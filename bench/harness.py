"""Benchmark harness: timed repeats in fresh interpreters, then a trace.

For each workload the timed phase runs rounds of one full repeat plus
``SETUP_PER_ROUND`` set-up-only repeats, each in a fresh interpreter
(:mod:`bench.child`), round-robin across workloads, until the workload
has spent ``--seconds`` and has at least ``MIN_REPEATS`` full repeats.
End-to-end metrics are the medians of those repeats.  The traced run
then profiles the same workload in this process with ``cProfile`` and
splits its time by layer (:mod:`bench.layers`); it is never timed as
an end-to-end number.

Every run is checked: repeats, the traced run and (for ``sweep``) the
pooled and in-process serial runs must give the same digest, and at
seed 0 the digest pinned in ``bench/baseline.json``.  Any mismatch,
crash or timeout counts as failed experiments and makes the command
exit 1.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import bench
from bench.layers import LAYERS, LayerProfile

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
WORK_ROOT = Path(bench.ROOT) / ".bench_work"

#: End-to-end metrics (name -> unit), in report order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Full repeats per workload, at least, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Set-up-only repeats after each full repeat (set-up is short and
#: noisy, so it gets more samples than the run).
SETUP_PER_ROUND = 2
#: Wall budget of one child before it counts as hung.
CHILD_TIMEOUT_S = 90.0
DEFAULT_SECONDS = 20


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class WorkloadRun:
    """Samples, failures and the trace of one workload."""

    def __init__(self, name: str, seed: int, experiments: int,
                 pinned: Optional[str],
                 duration_ms: Optional[float] = None) -> None:
        self.name = name
        self.seed = seed
        #: Shortened simulated duration (tests); None runs the workload.
        self.duration_ms = duration_ms
        self.experiments = experiments
        self.pinned = pinned
        self.samples: List[Dict[str, Any]] = []
        self.setups: List[Dict[str, Any]] = []
        self.round_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[List[str]] = None
        self.traced: Dict[str, Any] = {}

    def fail(self, experiments: int, problem: str) -> None:
        self.failed += experiments
        self.problems.append(problem)

    def check(self, source: str, digest: str,
              per_experiment: Sequence[str]) -> None:
        """Count the experiments of one run whose output is wrong."""
        self.attempted += self.experiments
        if self.pinned is not None and digest != self.pinned:
            self.fail(self.experiments,
                      f"{source}: digest {digest} != pinned {self.pinned}")
            return
        if len(per_experiment) != self.experiments:
            self.fail(self.experiments, f"{source}: {len(per_experiment)} "
                                        f"of {self.experiments} experiments")
            return
        if self.reference is None:
            self.reference = list(per_experiment)
            return
        wrong = sum(1 for mine, ref in zip(per_experiment, self.reference)
                    if mine != ref)
        if wrong:
            self.fail(wrong, f"{source}: {wrong} experiment digest(s) "
                             "differ from the first repeat")

    def median(self, key: str) -> float:
        return quartiles([sample[key] for sample in self.samples])[1]

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        values = {
            "wall_s": [s["wall_s"] for s in self.samples],
            "setup_s": [s["setup_s"] for s in self.setups],
            "peak_rss_mb": [s["peak_rss_mb"] for s in self.samples],
        }
        report = {}
        for name, unit in END_TO_END.items():
            q1, median, q3 = quartiles(values[name])
            report[name] = {"value": median, "unit": unit, "q1": q1,
                            "q3": q3, "n": len(values[name]),
                            "samples": values[name]}
        return report

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        traced = self.traced
        profile = traced["profile"]
        wall = self.median("wall_s")
        metrics: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            # merge runs only on sweep: its busy time is reported as a
            # share, so no time metric reads a constant zero.
            if layer != "merge":
                metrics[f"{layer}.self_s"] = (profile.self_s[layer], "s")
            metrics[f"{layer}.share"] = (profile.share(layer), "fraction")
            metrics[f"{layer}.calls"] = (profile.calls[layer], "count")
        counts = traced["counts"]
        metrics.update({
            "sim.events": (traced["events"], "count"),
            "sim.us_per_event": (wall / traced["events"] * 1e6, "us"),
            "switch.frames_forwarded": (counts["frames_forwarded"], "count"),
            "switch.symbols_dropped": (counts["symbols_dropped"], "count"),
            "switch.us_per_frame": (
                profile.self_s["switch"] / counts["frames_forwarded"] * 1e6,
                "us"),
            "nic.packets_received": (counts["packets_received"], "count"),
            "nic.crc_errors": (counts["crc_errors"], "count"),
            "workload.messages_sent": (counts["messages_sent"], "count"),
            "workload.messages_received": (counts["messages_received"],
                                           "count"),
            "merge.busy_share": (traced["merge_busy_share"], "fraction"),
            "runtime.coordinator_cpu_s": (self.median("coordinator_cpu_s"),
                                          "s"),
            "runtime.worker_cpu_s": (self.median("worker_cpu_s"), "s"),
            "runtime.parallel_efficiency": (quartiles([
                s["worker_cpu_s"] / (s["workers"] * s["wall_s"])
                for s in self.samples])[1], "fraction"),
            "observe.artifact_bytes": (self.median("artifact_bytes"),
                                       "bytes"),
            "setup.import_s": (quartiles(
                [s["import_s"] for s in self.setups])[1], "s"),
            "setup.compile_s": (quartiles(
                [s["compile_s"] for s in self.setups])[1], "s"),
            "trace.overhead_x": (traced["wall_s"] / wall, "x"),
        })
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# timed phase: fresh interpreters
# ---------------------------------------------------------------------------


def _run_child(run: WorkloadRun, workdir: Path, setup_only: bool
               ) -> Optional[Dict[str, Any]]:
    """One :mod:`bench.child` process; None (and a failure) on error."""
    childdir = Path(tempfile.mkdtemp(prefix="child-", dir=workdir))
    command = [sys.executable, "-m", "bench.child", run.name,
               str(run.seed), str(childdir)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(childdir))
    # Own session, so a hung child's pool workers die with it.
    process = subprocess.Popen(command, cwd=bench.ROOT, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        run.fail(0 if setup_only else run.experiments,
                 f"child timed out after {CHILD_TIMEOUT_S:.0f}s")
        return None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        shutil.rmtree(childdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        run.fail(0 if setup_only else run.experiments,
                 f"child exited {process.returncode}: "
                 f"{err.strip().splitlines()[-1:] or ['no output']}")
        return None
    return json.loads(lines[-1])


def timed_phase(runs: Sequence[WorkloadRun], seconds: float,
                workdir: Path) -> None:
    """Round-robin timed repeats until every workload's budget is spent."""
    for run in runs:
        # Warm-up: byte-code caches and the page cache fill here, as
        # they would for any user after the first invocation.
        _run_child(run, workdir, setup_only=True)
    active = list(runs)
    while active:
        for run in list(active):
            if len(run.samples) >= MIN_REPEATS and (
                    sum(run.round_s) + quartiles(run.round_s)[1] > seconds):
                active.remove(run)
                continue
            began = time.perf_counter()
            sample = _run_child(run, workdir, setup_only=False)
            if sample is None:
                run.attempted += run.experiments
            else:
                run.check(f"repeat {len(run.samples) + 1}",
                          sample["digest"], sample["experiment_digests"])
                if not sample["sane"]:
                    run.fail(run.experiments, "received > sent or nothing "
                                              "sent in some experiment")
                run.samples.append(sample)
                run.setups.append(sample)
            for _ in range(SETUP_PER_ROUND):
                setup = _run_child(run, workdir, setup_only=True)
                if setup is not None:
                    run.setups.append(setup)
            run.round_s.append(time.perf_counter() - began)
            if sample is None and len(run.problems) > MIN_REPEATS:
                active.remove(run)  # keeps failing: stop spending on it


# ---------------------------------------------------------------------------
# traced phase: cProfile in this process
# ---------------------------------------------------------------------------


def traced_phase(run: WorkloadRun, workdir: Path) -> None:
    """Profile one run of the workload; record the per-layer split.

    Scenario load and compile are inside the profile (they are what the
    ``other`` layer holds); the traced wall time covers ``Campaign.run``
    only.  ``sweep`` is profiled in-process through the serial executor,
    which runs the same per-experiment and merge code as the pool; a
    second run profiles the pooled coordinator for the merge share.
    """
    from bench import workloads

    profiler = cProfile.Profile()
    profiler.enable()
    campaign = workloads.make_campaign(
        workloads.make_doc(run.name, run.seed, run.duration_ms))
    executor = workloads.make_executor(run.name, workdir / "traced",
                                       pooled=False)
    began = time.perf_counter()
    table = campaign.run(executor)
    wall = time.perf_counter() - began
    profiler.disable()
    digest, per_experiment = workloads.digests(table)
    run.check("traced run", digest, per_experiment)
    traced = {
        "profile": LayerProfile(pstats.Stats(profiler)),
        "wall_s": wall,
        "events": workloads.events_fired(table.results),
        "counts": workloads.counts(table.results),
        "merge_busy_share": 0.0,
    }
    if run.name == "sweep":
        pooled = cProfile.Profile()
        # Profile the coordinator only: forked workers stop the copy.
        os.register_at_fork(after_in_child=pooled.disable)
        campaign = workloads.make_campaign(
            workloads.make_doc(run.name, run.seed, run.duration_ms))
        executor = workloads.make_executor(run.name,
                                           workdir / "traced-pooled")
        began = time.perf_counter()
        pooled.enable()
        table = campaign.run(executor)
        pooled.disable()
        traced["wall_s"] = time.perf_counter() - began
        digest, per_experiment = workloads.digests(table)
        run.check("traced pooled run", digest, per_experiment)
        busy = LayerProfile(pstats.Stats(pooled)).cumulative_entering(
            "merge")
        traced["merge_busy_share"] = busy / traced["wall_s"]
    run.traced = traced


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _pinned_digests() -> Dict[str, str]:
    """Seed-0 digest of each workload, from the committed baseline."""
    if not BASELINE_PATH.exists():
        return {}
    baseline = json.loads(BASELINE_PATH.read_text())
    return {name: entry["digest"]
            for name, entry in baseline["workloads"].items()}


def _line(workload: str, name: str, metric: Dict[str, Any]) -> str:
    text = f"{workload} {name} {metric['value']!r} {metric['unit']}"
    if "n" in metric:
        text += f" q1={metric['q1']!r} q3={metric['q3']!r} n={metric['n']}"
    return text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Campaign benchmark: end-to-end and per-layer "
                    "metrics of the four workloads.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one workload only: 0 prints the end-to-end "
                             "metrics as JSON, 1 the per-layer ones; "
                             "default prints both as text")
    parser.add_argument("--out", type=Path,
                        help="write the JSON results document here")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(bench.SRC, "repro", "__init__.py")):
        print(f"bench: no program source at {bench.SRC}", file=sys.stderr)
        return 2
    from bench import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"bench: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    if args.trace is not None and len(names) != 1:
        print("bench: --trace takes exactly one --workload", file=sys.stderr)
        return 2
    pinned = _pinned_digests() if args.seed == 0 else {}
    runs = [
        WorkloadRun(name, args.seed,
                    len(workloads.make_campaign(
                        workloads.make_doc(name, args.seed))),
                    pinned.get(name))
        for name in names
    ]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(workdir)
    try:
        timed_phase(runs, args.seconds, workdir)
        if args.trace != 0:
            for run in runs:
                if not run.samples:
                    continue
                try:
                    traced_phase(run, workdir / run.name)
                except Exception:  # report it as failed experiments
                    run.attempted += run.experiments
                    run.fail(run.experiments, "traced run raised:\n"
                             + traceback.format_exc())
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return report(runs, args)


def report(runs: Sequence[WorkloadRun], args: argparse.Namespace) -> int:
    """Print every metric, write ``--out``, and give the exit code."""
    document: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workloads": {},
    }
    correct = True
    metrics: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        entry: Dict[str, Any] = {
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_fraction": run.failed / max(run.attempted, 1),
            "digest": run.samples[0]["digest"] if run.samples else None,
            "problems": run.problems,
        }
        if run.samples:
            entry["end_to_end"] = run.end_to_end()
            for name, metric in entry["end_to_end"].items():
                print(_line(run.name, name, metric))
        if run.traced:
            entry["per_layer"] = run.per_layer()
            for name, metric in entry["per_layer"].items():
                print(_line(run.name, name, metric))
        for problem in run.problems:
            print(f"{run.name} FAILED {problem}", file=sys.stderr)
        print(f"{run.name} checked attempted={run.attempted} "
              f"failed={run.failed} digest={entry['digest']}")
        document["workloads"][run.name] = entry
        correct = correct and not run.problems and bool(run.samples)
        if args.trace is not None and run.samples:
            section = "end_to_end" if args.trace == 0 else "per_layer"
            metrics = {name: {"value": m["value"], "unit": m["unit"]}
                       for name, m in entry.get(section, {}).items()}
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True)
                            + "\n")
    if args.trace is not None:
        run = runs[0]
        print(json.dumps({"correct": correct,
                          "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1

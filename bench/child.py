"""One timed repeat of one workload, in a fresh interpreter.

Usage: ``python -m bench.child WORKLOAD SEED WORKDIR [--setup-only]``.
Prints one JSON sample on stdout.  Set-up is timed from this module's
first statement: ``import repro.api``, generating the scenario document
and compiling it into a ready campaign.  The run is timed from the
``Campaign.run`` call to its return, artifact merge included.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

import bench  # noqa: E402


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def sample(workload: str, seed: int, workdir: Path, start: float,
           imported: float, setup_only: bool = False,
           duration_ms: Optional[float] = None) -> Dict[str, Any]:
    """Set up and (unless ``setup_only``) run ``workload`` once."""
    from bench import workloads

    artifacts = workdir / "artifacts"
    campaign = workloads.make_campaign(
        workloads.make_doc(workload, seed, duration_ms))
    executor = workloads.make_executor(workload, artifacts)
    ready = time.perf_counter()
    result: Dict[str, Any] = {
        "import_s": imported - start,
        "compile_s": ready - imported,
        "setup_s": ready - start,
    }
    if setup_only:
        return result
    self_cpu, child_cpu = (_cpu_s(resource.RUSAGE_SELF),
                           _cpu_s(resource.RUSAGE_CHILDREN))
    began = time.perf_counter()
    table = campaign.run(executor)
    wall = time.perf_counter() - began
    self_cpu = _cpu_s(resource.RUSAGE_SELF) - self_cpu
    child_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - child_cpu
    pooled = workload == "sweep"
    digest, per_experiment = workloads.digests(table)
    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        coordinator_cpu_s=self_cpu,
        # Serial workloads run their experiments in this process.
        worker_cpu_s=child_cpu if pooled else self_cpu,
        workers=workloads.SWEEP_WORKERS if pooled else 1,
        artifact_bytes=_tree_bytes(artifacts) if artifacts.exists() else 0,
        digest=digest,
        experiment_digests=per_experiment,
        sane=all(0 < r.messages_sent and r.messages_received
                 <= r.messages_sent for r in table.results),
    )
    return result


def main(argv: list) -> int:
    import repro.api  # timed: part of set-up

    imported = time.perf_counter()
    if not os.path.abspath(repro.__file__).startswith(bench.SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {bench.SRC}",
              file=sys.stderr)
        return 2
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    result = sample(workload, seed, workdir, START, imported,
                    setup_only="--setup-only" in argv[3:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Sharded campaign engine — serial vs pooled, equal workloads, same bytes.

The engine's contract (docs/runtime.md) is *determinism first*: a
campaign spec run through :class:`~repro.runtime.SerialExecutor` or the
lease-queue :class:`~repro.runtime.PooledExecutor` at any worker count
must produce byte-identical tables.  This benchmark asserts that
contract on a nine-experiment Table 4 campaign and records in
``BENCH_parallel.json`` at the repo root the wall-clock of six runs on
**equal workloads**: serial, 2 workers and 4 workers, each once without
and once with an ``artifacts_dir`` (per-experiment telemetry + capture
shards, the result store, and the merge).  The merge has its own row:
``merge_artifacts`` re-timed alone over the finished shards of the
serial artifacts run, so the artifact cost is not confused with
scheduling cost, plus its ``tracemalloc`` peak from a second merge.  The
peak must stay under three times the largest shard capture file: the
capture splice holds one shard at a time.

Honesty note on speedups: the simulation is CPU-bound pure Python, so
sharding only pays when the host grants more than one core.  The
snapshot therefore records ``cpu_count`` (the *effective* affinity, not
the nominal core count) and a ``cpu_limited`` flag; the >=2-worker
speedup assertion is gated on having at least two schedulable CPUs.
"""

import json
import os
import pathlib
import tempfile
import time
import tracemalloc

from benchmarks.conftest import bench_scale, record_result
from repro.nftape.campaign import Campaign
from repro.nftape.paper import _table4_row, table4_spec
from repro.capture.session import CAPTURE_FILE_NAME
from repro.runtime import PooledExecutor, SerialExecutor, merge_artifacts
from repro.runtime.artifacts import CAPTURE_SUBDIR, shard_dir
from repro.sim.timebase import MS

#: Repo-root scaling artifact: variant -> wall_s, plus speedups + cpu info.
BENCH_PARALLEL_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"
)

#: Base per-experiment duration before ``REPRO_BENCH_SCALE`` (the full
#: Table 4 run uses 20 ms; the benchmark only needs enough sim work per
#: experiment for the scheduler's overhead to be visible in proportion).
BASE_DURATION_PS = 4 * MS


def _spec():
    """The nine-experiment Table 4 campaign at benchmark scale."""
    duration_ps = int(BASE_DURATION_PS * bench_scale())
    return table4_spec(
        duration_ps=duration_ps,
        duty_on_ps=duration_ps // 8,
        duty_off_ps=duration_ps // 2,
        seed=0,
    )


def _run_variant(spec, workers: int, artifacts_dir=None) -> dict:
    """Run the spec through one executor variant; time it."""
    if workers == 1:
        executor = SerialExecutor(artifacts_dir=artifacts_dir)
    else:
        executor = PooledExecutor(workers=workers,
                                  artifacts_dir=artifacts_dir)
    campaign = Campaign.from_spec(spec, row_builder=_table4_row)
    start = time.perf_counter()
    table = campaign.run(executor=executor)
    return {
        "workers": workers,
        "artifacts": artifacts_dir is not None,
        "wall_s": round(time.perf_counter() - start, 6),
        "render": table.render(),
    }


def _time_merge(spec, root) -> dict:
    """Re-time ``merge_artifacts`` alone over a finished run's shards.

    The timed merge runs untraced; a second merge under ``tracemalloc``
    gives the peak bytes the merge allocates, next to the shard capture
    sizes that bound it.
    """
    entries = [(index, experiment.name)
               for index, experiment in enumerate(spec.experiments)]
    start = time.perf_counter()
    summary = merge_artifacts(root, entries, label=spec.name)
    wall_s = time.perf_counter() - start
    tracemalloc.start()
    try:
        merge_artifacts(root, entries, label=spec.name)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    shard_bytes = [
        (shard_dir(root, index, name) / CAPTURE_SUBDIR
         / CAPTURE_FILE_NAME).stat().st_size
        for index, name in entries
    ]
    return {
        "wall_s": round(wall_s, 6),
        "telemetry_shards": summary["telemetry_shards"],
        "capture_shards": summary["capture_shards"],
        "peak_bytes": peak_bytes,
        "largest_shard_capture_bytes": max(shard_bytes),
        "total_shard_capture_bytes": sum(shard_bytes),
    }


def test_parallel_campaign_scaling(benchmark):
    spec = _spec()
    cpu_count = len(os.sched_getaffinity(0))

    def run_all():
        with tempfile.TemporaryDirectory(prefix="repro-bench-par-") as tmp:
            home = pathlib.Path(tmp)
            runs = {}
            for workers in (1, 2, 4):
                runs[(workers, False)] = _run_variant(spec, workers)
                runs[(workers, True)] = _run_variant(
                    spec, workers, artifacts_dir=home / f"w{workers}")
            merge = _time_merge(spec, home / "w1")
        return runs, merge

    runs, merge = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The engine's core guarantee: identical bytes at any worker count,
    # with or without artifacts.
    renders = {run["render"] for run in runs.values()}
    assert len(renders) == 1
    assert merge["telemetry_shards"] == merge["capture_shards"] == len(spec)
    # The capture splice holds one shard at a time, so the merge's peak
    # is bounded by the largest shard, not by the campaign.
    assert merge["peak_bytes"] < 3 * merge["largest_shard_capture_bytes"], \
        merge
    # The merge is part of every artifacts run, so it fits inside each.
    for (workers, artifacts), run in runs.items():
        if artifacts:
            assert merge["wall_s"] <= run["wall_s"], (workers, run)

    def speedup(workers, artifacts):
        base = runs[(1, artifacts)]["wall_s"]
        wall = runs[(workers, artifacts)]["wall_s"]
        return round(base / wall, 3) if wall else 0.0

    cpu_limited = cpu_count < 2
    if not cpu_limited:
        # With real cores available the sharded run must beat serial.
        assert speedup(2, False) > 1.0, runs

    def name(workers, artifacts):
        base = "serial" if workers == 1 else f"workers_{workers}"
        return base + ("_artifacts" if artifacts else "")

    document = {
        "generated_by": "benchmarks/bench_parallel_campaign.py",
        "schema": ("variant -> {workers, artifacts, wall_s}; merge -> "
                   "merge_artifacts alone over the serial run's shards "
                   "(wall_s untraced, peak_bytes from a second "
                   "tracemalloc-traced merge, shard capture sizes); "
                   "speedups vs serial on the same workload"),
        "bench_scale": bench_scale(),
        "experiments": len(spec),
        "cpu_count": cpu_count,
        "cpu_limited": cpu_limited,
        "merge": merge,
        "tables_identical": True,
    }
    for (workers, artifacts), run in runs.items():
        document[name(workers, artifacts)] = {
            key: run[key] for key in ("workers", "artifacts", "wall_s")}
        if workers > 1:
            key = f"speedup_{workers}w" + ("_artifacts" if artifacts else "")
            document[key] = speedup(workers, artifacts)
    BENCH_PARALLEL_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"sharded campaign scaling ({len(spec)} experiments, "
        f"{cpu_count} schedulable cpu(s))",
        "                      no artifacts      with artifacts",
    ]
    for workers in (1, 2, 4):
        cells = []
        for artifacts in (False, True):
            wall = runs[(workers, artifacts)]["wall_s"]
            cell = f"{wall:8.3f}s"
            if workers > 1:
                cell += f" ({speedup(workers, artifacts)}x)"
            cells.append(f"{cell:<18}")
        label = "serial" if workers == 1 else f"{workers} workers"
        lines.append(f"  {label:<18}  {cells[0]}{cells[1]}")
    lines += [
        f"  merge_artifacts alone: {merge['wall_s']:.3f}s "
        f"({merge['telemetry_shards']} shards), peak "
        f"{merge['peak_bytes'] / 1e6:.2f} MB traced; largest shard "
        f"capture {merge['largest_shard_capture_bytes'] / 1e6:.2f} MB",
        "  tables byte-identical across all variants: yes",
    ]
    if cpu_limited:
        lines.append(
            "  note: single-cpu host; parallel runs pay spawn overhead "
            "without parallelism (speedup gate skipped)"
        )
    record_result("parallel_campaign", "\n".join(lines))

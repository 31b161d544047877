"""Every workload on a tiny input emits exactly the declared metrics."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import bench
from bench import child, harness, workloads

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


def _declared(section):
    return {(metric["name"], metric["unit"]) for metric in SPEC[section]}


def _emitted(metrics):
    return {(name, metric["unit"]) for name, metric in metrics.items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {name for name, _ in _declared("end_to_end")} == set(
        harness.END_TO_END)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_the_declared_metrics(workload, tmp_path):
    duration_ms = 0.5
    doc = workloads.make_doc(workload, 1, duration_ms)
    run = harness.WorkloadRun(workload, 1, len(workloads.make_campaign(doc)),
                              pinned=None, duration_ms=duration_ms)
    start = time.perf_counter()
    sample = child.sample(workload, 1, tmp_path / "timed", start, start,
                          duration_ms=duration_ms)
    run.check("repeat", sample["digest"], sample["experiment_digests"])
    run.samples.append(sample)
    run.setups.append(child.sample(workload, 1, tmp_path / "setup", start,
                                   start, setup_only=True,
                                   duration_ms=duration_ms))
    harness.traced_phase(run, tmp_path / "traced")

    assert sample["sane"]
    assert run.problems == [] and run.failed == 0
    assert _emitted(run.end_to_end()) == _declared("end_to_end")
    assert _emitted(run.per_layer()) == _declared("per_layer")

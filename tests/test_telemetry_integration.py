"""End-to-end telemetry tests: instrumented campaign, CLI artifacts.

These run a real (tiny) fault-injection experiment with a live
:class:`~repro.telemetry.session.ObservationSession` and check that the
instrumentation wired through the kernel, device, injector, and campaign
layers actually lands in the registry and span log — and that the CLI
``campaign``/``metrics`` commands produce and re-render the artifacts.
"""

import json

import pytest

from repro import cli
from repro.sim.timebase import MS
from repro.telemetry import (
    ARTIFACT_NAMES,
    MetricsRegistry,
    ObservationSession,
    parse_spans_jsonl,
)

pytestmark = pytest.mark.usefixtures("observation_off")


def _run_small_experiment(session_kwargs=None):
    from repro.core.faults import control_symbol_swap
    from repro.hw.registers import MatchMode
    from repro.myrinet.symbols import GAP, IDLE
    from repro.nftape.experiment import Experiment, TestbedOptions
    from repro.nftape.plan import DutyCyclePlan

    # GAP->IDLE: inter-packet gaps are plentiful on the instrumented
    # link, so the matched trigger reliably fires within 1 ms.
    plan = DutyCyclePlan(
        "RL",
        control_symbol_swap(GAP, IDLE, MatchMode.ON),
        on_ps=1 * MS // 8,
        off_ps=1 * MS // 2,
        use_serial=False,
    )
    experiment = Experiment(
        "telemetry-it",
        duration_ps=1 * MS,
        plan=plan,
        testbed_options=TestbedOptions(seed=11),
        drain_ps=1 * MS,
    )
    session = ObservationSession(**(session_kwargs or {}))
    with session:
        result = experiment.run()
    return session, result


class TestInstrumentedExperiment:
    @pytest.fixture(scope="class")
    def run(self):
        return _run_small_experiment()

    def test_kernel_counters_populate(self, run):
        session, _ = run
        assert session.registry.value("sim.events_fired") > 0
        assert session.registry.get("sim.run_events") is not None
        assert session.registry.value("sim.now_ps") > 0

    def test_device_burst_metrics_populate(self, run):
        session, _ = run
        registry = session.registry
        total_bursts = sum(
            registry.value("device.bursts", direction=d) for d in ("R", "L")
        )
        assert total_bursts > 0
        latency = registry.get("device.added_latency_ns")
        assert latency is not None and latency.count > 0
        # The device adds latency: nothing can transit in zero time.
        assert latency.mean > 0

    def test_injection_counters_populate(self, run):
        session, result = run
        assert result.injections > 0
        registry = session.registry
        matched = sum(
            m.value
            for m in registry
            if m.name == "injector.injections"
        )
        assert matched == result.injections

    def test_experiment_spans_nest(self, run):
        session, _ = run
        paths = {r.path for r in session.spans.records}
        assert "experiment" in paths
        assert "experiment/settle" in paths
        assert "experiment/workload" in paths
        assert "experiment/drain" in paths
        workload = session.spans.find("workload")[0]
        assert workload.sim_ps == 1 * MS
        assert workload.wall_ns > 0

    def test_workload_counters_match_result(self, run):
        session, result = run
        registry = session.registry
        assert registry.value("workload.messages_sent") == (
            result.messages_sent
        )
        assert registry.value("workload.messages_received") == (
            result.messages_received
        )

    def test_sampled_device_stats_bridge(self, run):
        session, _ = run
        registry = session.registry
        symbols = sum(
            m.value for m in registry if m.name == "stats.symbols"
        )
        assert symbols > 0
        high = [
            m for m in registry if m.name == "device.fifo.high_watermark"
        ]
        assert high and max(m.value for m in high) > 0


class TestArtifactWriting:
    def test_session_writes_all_artifacts(self, tmp_path):
        session, _ = _run_small_experiment({"out_dir": tmp_path})
        telemetry = tmp_path / "telemetry"
        for name in ARTIFACT_NAMES:
            assert (telemetry / name).exists(), name
        assert (tmp_path / "capture" / "capture.rcap").exists()
        document = json.loads((telemetry / "metrics.json").read_text())
        assert document["generated_by"] == "repro.telemetry"
        rebuilt = MetricsRegistry.from_dict(document["metrics"])
        assert rebuilt.value("sim.events_fired") == (
            session.registry.value("sim.events_fired")
        )
        spans = parse_spans_jsonl((telemetry / "spans.jsonl").read_text())
        assert {r.name for r in spans} >= {"experiment", "workload"}
        trace = json.loads((telemetry / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


class TestCliCampaign:
    def test_campaign_drops_artifacts_and_reports(self, tmp_path, capsys):
        exit_code = cli.main([
            "campaign", "--experiments", "1", "--duration-ms", "1",
            "--seed", "3", "--artifacts-dir", str(tmp_path), "--no-progress",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "artifacts merged" in out
        for name in ARTIFACT_NAMES:
            assert (tmp_path / "telemetry" / name).exists(), name

    def test_metrics_rerenders_prometheus(self, tmp_path, capsys):
        assert cli.main([
            "campaign", "--experiments", "1", "--duration-ms", "1",
            "--artifacts-dir", str(tmp_path), "--no-progress",
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "metrics", "--input", str(tmp_path / "telemetry" / "metrics.json"),
            "--format", "prom",
        ]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_sim_events_fired_total counter" in prom
        assert "repro_campaign_shards_merged 1" in prom

    def test_metrics_json_round_trip(self, tmp_path, capsys):
        assert cli.main([
            "campaign", "--experiments", "1", "--duration-ms", "1",
            "--artifacts-dir", str(tmp_path), "--no-progress",
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "metrics", "--input", str(tmp_path / "telemetry" / "metrics.json"),
            "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["series"]

    def test_metrics_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert cli.main([
            "metrics", "--input", str(tmp_path / "nope.json"),
        ]) == 2
        assert "no metrics artifact" in capsys.readouterr().err

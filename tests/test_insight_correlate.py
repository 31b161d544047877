"""End-to-end correlation tests: real campaign artifacts in, verdicts out.

These tests run the actual campaign CLI (in-process) to produce genuine
artifact directories — engine layout via ``--artifacts-dir`` at two
worker counts — then drive :func:`repro.insight.analyze_artifacts`
through its contract:

* the top-ranked cause names the actually-injected fault;
* the blast radius lists exactly the host pairs routed across the
  corrupted segment;
* reports are byte-stable across worker counts;
* every damaged-input edge (missing files, torn JSONL tails, orphan
  spans, orphan windows) degrades into a partial report — and bumps the
  ``insight.degraded`` counter — instead of crashing.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.insight import analyze_artifacts, load_artifacts
from repro.nftape.campaign import Campaign
from repro.runtime import SerialExecutor
from repro.telemetry import TelemetrySession
from tests.test_scenario_fabric import shrunk

EXPECTED_RL_PAIRS = [
    ("pc", "sparc1"), ("pc", "sparc2"),
    ("sparc1", "pc"), ("sparc2", "pc"),
]


@pytest.fixture(scope="module")
def engine_root(tmp_path_factory):
    """A 3-experiment sharded campaign's merged artifact directory."""
    root = tmp_path_factory.mktemp("insight") / "engine"
    assert main([
        "campaign", "--experiments", "3", "--duration-ms", "1",
        "--workers", "2", "--artifacts-dir", str(root), "--no-progress",
    ]) == 0
    return root


@pytest.fixture(scope="module")
def engine_root_serial(tmp_path_factory):
    """The same campaign executed with one worker (stability witness)."""
    root = tmp_path_factory.mktemp("insight") / "engine-w1"
    assert main([
        "campaign", "--experiments", "3", "--duration-ms", "1",
        "--workers", "1", "--artifacts-dir", str(root), "--no-progress",
    ]) == 0
    return root


@pytest.fixture(scope="module")
def fabric_root(tmp_path_factory):
    """``fabric-congestion`` (durations shrunk) run with artifacts."""
    root = tmp_path_factory.mktemp("insight") / "fabric"
    spec = shrunk("fabric-congestion")
    Campaign.from_spec(spec).run(executor=SerialExecutor(artifacts_dir=root))
    return root, spec


def _mutable_copy(source, tmp_path, name):
    target = tmp_path / name
    shutil.copytree(source, target)
    return target


class TestHappyPath:
    def test_engine_layout_full_verdict(self, engine_root):
        report = analyze_artifacts(engine_root)
        assert report.campaign["source"] == "engine"
        assert report.campaign["spec_present"] is True
        assert [i.index for i in report.incidents] == [0, 1, 2]
        assert [i.name for i in report.incidents] == [
            "IDLE->GAP", "GAP->IDLE", "STOP->GO",
        ]
        faulted = [
            i for i in report.incidents
            if i.features["injections"] or i.features["marks_matched"]
        ]
        assert faulted, "campaign injected faults but none were observed"
        for incident in faulted:
            assert incident.top_cause == f"injected-fault:{incident.name}"

    def test_blast_radius_is_exactly_the_routed_pairs(self, engine_root):
        report = analyze_artifacts(engine_root)
        faulted = [
            i for i in report.incidents
            if i.features["injections"] or i.features["marks_matched"]
        ]
        for incident in faulted:
            pairs = [
                (p["src"], p["dst"]) for p in incident.blast_radius.pairs
            ]
            assert pairs == EXPECTED_RL_PAIRS

    def test_spans_join_on_shard_and_span_id(self, engine_root):
        report = analyze_artifacts(engine_root)
        joined = [i for i in report.incidents if i.span.get("joined")]
        assert joined
        for incident in joined:
            names = {p["name"] for p in incident.span["phases"]}
            assert "workload" in names

    def test_no_wall_clock_leaks_into_the_report(self, engine_root):
        text = analyze_artifacts(engine_root).canonical_json()
        assert "wall_ns" not in text
        assert "wall_s" not in text


class TestFabricBlastRadius:
    """Fabric campaigns get their blast radius from the spec'd wiring."""

    def test_fabric_topology_is_known(self, fabric_root):
        root, _spec = fabric_root
        report = analyze_artifacts(root)
        assert not [d for d in report.degradations
                    if d.startswith("topology:")]

    def test_corrupted_host_link_crosses_every_pair_of_its_host(
        self, fabric_root
    ):
        root, spec = fabric_root
        testbed = spec.experiments[1].testbed
        host = testbed.instrumented_host
        (switch,) = [sw for h, sw, _port in testbed.topology.host_links
                     if h == host]
        others = [h for h in testbed.topology.hosts if h != host]
        report = analyze_artifacts(root)
        (incident,) = [i for i in report.incidents
                       if i.name == "flow-control-corruption"]
        assert incident.features["injections"] > 0
        radius = incident.blast_radius
        assert radius.segment["attached_to"] == f"sw:{switch}"
        assert radius.pairs
        assert {(p["src"], p["dst"]) for p in radius.pairs} == (
            {(host, other) for other in others}
            | {(other, host) for other in others}
        )


class TestByteStability:
    def test_same_input_same_bytes(self, engine_root):
        first = analyze_artifacts(engine_root)
        second = analyze_artifacts(engine_root)
        assert first.canonical_json() == second.canonical_json()
        assert first.digest() == second.digest()

    def test_worker_count_does_not_change_the_digest(
        self, engine_root, engine_root_serial
    ):
        parallel = analyze_artifacts(engine_root)
        serial = analyze_artifacts(engine_root_serial)
        assert parallel.digest() == serial.digest()


class TestDegradedInputs:
    def test_missing_spans_jsonl_degrades(self, engine_root, tmp_path):
        root = _mutable_copy(engine_root, tmp_path, "no-spans")
        (root / "telemetry" / "spans.jsonl").unlink()
        report = analyze_artifacts(root)
        assert "spans.jsonl missing" in report.degradations
        assert len(report.incidents) == 3  # capture plane still drives
        assert not any(i.span.get("joined") for i in report.incidents)

    def test_torn_final_line_degrades_and_keeps_the_rest(
        self, engine_root, tmp_path
    ):
        root = _mutable_copy(engine_root, tmp_path, "torn")
        spans = root / "telemetry" / "spans.jsonl"
        text = spans.read_text()
        spans.write_text(text + '{"span_id": 42, "name": "experi')
        report = analyze_artifacts(root)
        assert any("torn final line" in d for d in report.degradations)
        assert any(i.span.get("joined") for i in report.incidents)

    def test_window_without_span_degrades_not_crashes(
        self, engine_root, tmp_path
    ):
        """Capture windows exist but their experiment spans are gone."""
        root = _mutable_copy(engine_root, tmp_path, "orphan-windows")
        spans = root / "telemetry" / "spans.jsonl"
        kept = [
            line for line in spans.read_text().splitlines()
            if json.loads(line).get("name") != "experiment"
        ]
        spans.write_text("\n".join(kept) + "\n")
        report = analyze_artifacts(root)
        assert any(
            "not found in spans.jsonl" in d for d in report.degradations
        )
        assert len(report.incidents) == 3
        assert all(not i.span.get("joined") for i in report.incidents)
        # The capture evidence still produces a ranked verdict.
        assert all(i.hypotheses for i in report.incidents)

    def test_span_without_capture_experiment_degrades(
        self, engine_root, tmp_path
    ):
        """A telemetry span the capture plane has no record of."""
        root = _mutable_copy(engine_root, tmp_path, "orphan-span")
        spans = root / "telemetry" / "spans.jsonl"
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        ghost = dict(next(r for r in rows if r.get("name") == "experiment"))
        ghost["span_id"] = 999_983
        ghost["shard"] = 97
        ghost.setdefault("attrs", {})
        ghost["attrs"] = dict(ghost["attrs"], name="ghost-run")
        rows.append(ghost)
        spans.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n"
        )
        report = analyze_artifacts(root)
        assert any(
            "ghost-run" in d and "no matching capture experiment" in d
            for d in report.degradations
        )

    def test_missing_capture_falls_back_to_the_spec(
        self, engine_root, tmp_path
    ):
        root = _mutable_copy(engine_root, tmp_path, "no-capture")
        (root / "capture" / "capture.rcap").unlink()
        report = analyze_artifacts(root)
        assert "capture.rcap missing" in report.degradations
        assert [i.index for i in report.incidents] == [0, 1, 2]
        assert all(
            any("absent from the capture artifact" in d
                for d in report.degradations)
            for _ in report.incidents
        )
        assert report.counts["windows"] == 0

    def test_degradations_bump_the_insight_counter(
        self, engine_root, tmp_path
    ):
        root = _mutable_copy(engine_root, tmp_path, "counted")
        (root / "telemetry" / "metrics.json").unlink()
        with TelemetrySession() as session:
            report = analyze_artifacts(root)
        assert report.degradations
        assert session.registry.value("insight.degraded") == len(
            report.degradations
        )

    def test_no_counter_without_an_active_session(
        self, engine_root, tmp_path
    ):
        root = _mutable_copy(engine_root, tmp_path, "uncounted")
        (root / "telemetry" / "metrics.json").unlink()
        report = analyze_artifacts(root)  # must simply not raise
        assert report.degradations

    def test_not_a_directory_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_artifacts(tmp_path / "nowhere")

    def test_unparsable_metrics_json_degrades(self, engine_root, tmp_path):
        root = _mutable_copy(engine_root, tmp_path, "bad-metrics")
        (root / "telemetry" / "metrics.json").write_text("{nope")
        report = analyze_artifacts(root)
        assert any(
            "metrics.json unparsable" in d for d in report.degradations
        )
        assert report.campaign["features"] == {}

    def test_spec_json_that_is_not_a_codec_document_degrades(
        self, engine_root, tmp_path
    ):
        """An older summary-format spec.json (valid JSON, not the spec
        codec's document) degrades; the capture still names incidents."""
        root = _mutable_copy(engine_root, tmp_path, "old-spec")
        (root / "spec.json").write_text(json.dumps({
            "generated_by": "repro.runtime", "version": 1, "name": "old",
            "experiments": [{"index": 0, "name": "IDLE->GAP", "seed": 1}],
        }))
        report = analyze_artifacts(root)
        assert any(
            d.startswith("spec.json unparsable") for d in report.degradations
        )
        assert report.campaign["spec_present"] is False
        assert [i.name for i in report.incidents] == [
            "IDLE->GAP", "GAP->IDLE", "STOP->GO",
        ]


class TestReportShape:
    def test_counts_block_is_consistent(self, engine_root):
        report = analyze_artifacts(engine_root)
        assert report.counts["incidents"] == len(report.incidents)
        assert report.counts["degradations"] == len(report.degradations)
        assert report.counts["spans"] > 0

    def test_latency_quantile_features_present(self, engine_root):
        report = analyze_artifacts(engine_root)
        features = report.campaign["features"]
        assert set(features) == {
            "latency_p50_ns", "latency_p95_ns", "latency_p99_ns",
        }
        assert features["latency_p50_ns"] <= features["latency_p99_ns"]

    def test_label_override_wins(self, engine_root):
        report = analyze_artifacts(engine_root, label="override")
        assert report.label == "override"

    def test_render_text_names_every_incident(self, engine_root):
        report = analyze_artifacts(engine_root)
        text = report.render_text()
        for incident in report.incidents:
            assert incident.name in text
        assert report.digest() in text

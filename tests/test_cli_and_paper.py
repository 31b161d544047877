"""Tests for the CLI and smoke tests for the fast paper experiments."""

import pathlib
from argparse import Namespace

import pytest

from repro.cli import EXPERIMENTS, _campaign_spec, build_parser, main
from repro.core.faults import control_symbol_swap
from repro.core.monitor import MonitorConfig
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, GO, IDLE, STOP
from repro.nftape.paper import OVERLOAD_WORKLOAD, PAPER_TABLE4, table4_spec
from repro.sim.timebase import MS, US

SYMBOLS = {"IDLE": IDLE, "GAP": GAP, "STOP": STOP, "GO": GO}


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_synthesis_subcommand(self, capsys):
        assert main(["synthesis"]) == 0
        out = capsys.readouterr().out
        assert "fifo_inject" in out
        assert "model/paper" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fast_experiment_with_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["run", "sec434", "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        assert "16-bit-apart swap" in stdout
        text = out_file.read_text()
        assert text.startswith("# DSN 2002 reproduction")
        assert "veHa" not in text  # tables carry counts, not payloads
        assert "checksum_drops" in text

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["run", "all", "--scale", "0.5"])
        assert args.experiments == ["all"]
        assert args.scale == 0.5

    def test_capture_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["capture", "decode", "--input", "x"])
        assert args.capture_command == "decode"
        assert args.input == "x"

    def test_capture_missing_artifact_fails(self, tmp_path, capsys):
        assert main(
            ["capture", "summarize", "--input", str(tmp_path)]
        ) == 2
        assert "no capture artifact" in capsys.readouterr().err

    def test_campaign_artifacts_dir_parallel(self, tmp_path, capsys):
        """--workers N --artifacts-dir DIR: result store + merged artifacts."""
        root = tmp_path / "art"
        assert main([
            "campaign", "--experiments", "2", "--duration-ms", "1",
            "--workers", "2", "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 experiment(s) executed with 2 worker(s)" in out
        assert "artifacts merged" in out
        assert (root / "results.sqlite").exists()
        assert (root / "telemetry" / "metrics.json").exists()
        assert (root / "capture" / "capture.rcap").exists()
        assert (root / "experiments").is_dir()

    def test_campaign_resume_requires_artifacts_dir(self, capsys):
        assert main(["campaign", "--resume", "--no-progress"]) == 2
        assert "--artifacts-dir" in capsys.readouterr().err

    def test_retired_flags_are_unrecognized(self, capsys):
        """--telemetry-dir/--capture-dir are gone: argparse rejects them."""
        for argv in (
            ["campaign", "--telemetry-dir", "x", "--no-progress"],
            ["run", "sec434", "--capture-dir", "x"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_artifacts_dir_umbrella_on_run(self, tmp_path, capsys):
        root = tmp_path / "art"
        assert main([
            "run", "sec434", "--artifacts-dir", str(root),
        ]) == 0
        captured = capsys.readouterr()
        assert "deprecated" not in captured.err
        assert (root / "telemetry" / "metrics.json").exists()
        assert (root / "capture" / "capture.rcap").exists()

    def test_offline_readers_default_to_the_artifacts_dir_layout(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--artifacts-dir out`` then the readers with no ``--input``."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table2", "--scale", "0.1",
                     "--artifacts-dir", "out"]) == 0
        capsys.readouterr()
        assert main(["capture", "summarize"]) == 0
        assert "lifecycle events" in capsys.readouterr().out
        assert main(["metrics", "--format", "summary"]) == 0
        assert "sim.events_fired" in capsys.readouterr().out

    def test_campaign_capture_then_decode(self, tmp_path, capsys):
        """CLI acceptance: campaign --artifacts-dir, then summarize/decode."""
        root = tmp_path / "art"
        assert main([
            "campaign", "--experiments", "1", "--duration-ms", "1",
            "--seed", "1", "--artifacts-dir", str(root), "--no-progress",
        ]) == 0
        cap_dir = str(root / "capture")
        out = capsys.readouterr().out
        assert "capture shard(s)" in out

        assert main(["capture", "summarize", "--input", cap_dir]) == 0
        out = capsys.readouterr().out
        assert "lifecycle events" in out

        json_out = tmp_path / "analysis.json"
        assert main([
            "capture", "decode", "--input", cap_dir,
            "--json", str(json_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "Failure analysis" in out
        assert json_out.exists()


class TestLibraryCampaignOverrides:
    """``campaign`` and ``table4_spec`` compile library documents with
    the caller's scale applied as overrides."""

    DEMO_PAIRS = [
        "IDLE->GAP", "GAP->IDLE", "STOP->GO", "GO->STOP",
        "IDLE->STOP", "GAP->GO", "STOP->IDLE", "GO->GAP",
    ]

    @pytest.mark.parametrize("capture", [False, True])
    @pytest.mark.parametrize("duration_ms", [1.0, 2.0, 3.0])
    def test_cli_campaign_spec(self, duration_ms, capture):
        spec = _campaign_spec(
            Namespace(experiments=10, duration_ms=duration_ms, seed=3),
            capture,
        )
        assert spec.name == "cli control-symbol campaign"
        assert spec.base_seed == 3
        names = [e.name for e in spec.experiments]
        assert names == [self.DEMO_PAIRS[i % 8] for i in range(10)]
        duration_ps = int(duration_ms * MS)
        for experiment in spec.experiments:
            source, target = experiment.name.split("->")
            plan = experiment.plan
            assert (plan.kind, plan.direction) == ("duty_cycle", "RL")
            assert plan.config == control_symbol_swap(
                SYMBOLS[source], SYMBOLS[target], MatchMode.ON)
            assert experiment.duration_ps == duration_ps
            assert plan.on_ps == duration_ps // 8
            assert plan.off_ps == duration_ps // 2
            monitor = experiment.testbed.device_kwargs.get("monitor_config")
            if capture:
                assert monitor == MonitorConfig(
                    enabled=True, pre_symbols=128, post_symbols=128)
            else:
                assert monitor is None

    def test_table4_spec_rows_carry_the_paper_numbers(self):
        spec = table4_spec()
        assert spec.name == "Table 4 — control symbol corruption"
        assert [e.name for e in spec.experiments] == [
            f"{mask}->{replacement}"
            for mask, replacement, *_ in PAPER_TABLE4
        ]
        for experiment, row in zip(spec.experiments, PAPER_TABLE4):
            params = experiment.params
            assert (
                params["mask"], params["replacement"],
                params["paper_sent"], params["paper_received"],
                params["paper_loss"],
            ) == row
            mask, replacement = row[:2]
            assert experiment.plan.config == control_symbol_swap(
                SYMBOLS[mask], SYMBOLS[replacement], MatchMode.ON)
            assert experiment.testbed.host_kwargs == {
                "rx_drain_factor": 2.0}
            assert experiment.workload == OVERLOAD_WORKLOAD
            assert experiment.duration_ps == 20 * MS
            assert experiment.plan.on_ps == int(1.5 * MS)
            assert experiment.plan.off_ps == int(8.5 * MS)

    def test_table4_spec_overrides_reach_every_plan(self):
        spec = table4_spec(duration_ps=3 * MS, duty_on_ps=250 * US + 3,
                           duty_off_ps=777 * US, seed=11)
        assert spec.base_seed == 11
        assert len(spec.experiments) == len(PAPER_TABLE4)
        for experiment in spec.experiments:
            assert experiment.duration_ps == 3 * MS
            assert experiment.plan.on_ps == 250 * US + 3
            assert experiment.plan.off_ps == 777 * US


class TestPaperExperimentsFast:
    """The fast regeneration functions run inside the unit suite too, so
    a regression is caught before the benchmark stage."""

    def test_sec434(self):
        from repro.nftape.paper import sec434_udp_checksum
        table = sec434_udp_checksum(messages=10)
        swap = table.rows[0]
        assert swap["corrupted_delivered"] == 10
        plain = table.rows[1]
        assert plain["checksum_drops"] == 10

    def test_sec432(self):
        from repro.nftape.paper import sec432_packet_types
        table = sec432_packet_types()
        assert len(table.rows) == 5
        assert "node removed=True" in table.rows[0]["observed"]

    def test_sec433(self):
        from repro.nftape.paper import sec433_addresses
        table, artifacts = sec433_addresses()
        assert len(table.rows) == 4
        assert artifacts["fig11_before"]
        assert artifacts["fig11_after"]

    def test_sec35(self):
        from repro.nftape.paper import sec35_passthrough
        from repro.sim.timebase import MS
        table = sec35_passthrough(duration_ps=5 * MS)
        direct, with_device = table.rows
        assert direct["received"] == with_device["received"]

    def test_table2_small(self):
        from repro.nftape.paper import table2_latency
        table = table2_latency(exchanges=60, experiments=2)
        for row in table.rows:
            assert 220_000 < float(row["without_ns"]) < 250_000

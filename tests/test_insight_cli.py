"""CLI surface tests for ``insight analyze|report|similar``.

Everything runs in-process through :func:`repro.cli.main` against a
real (small, engine-layout) campaign artifact directory, pinning exit
codes, the digest line the CI golden gate greps, and the similar-query
argument contract.
"""

import json
import re
from argparse import Namespace

import pytest

from repro.cli import _campaign_spec, main
from repro.insight import analyze_artifacts
from repro.nftape.campaign import Campaign
from repro.runtime import SerialExecutor

_HEX_DIGEST = re.compile(r"^[0-9a-f]{32}$")


@pytest.fixture(scope="module")
def artifact_root(tmp_path_factory):
    """A 2-experiment campaign's engine-layout artifact root."""
    root = tmp_path_factory.mktemp("insight-cli") / "art"
    spec = _campaign_spec(
        Namespace(experiments=2, duration_ms=1.0, seed=0), True)
    Campaign.from_spec(spec).run(executor=SerialExecutor(
        artifacts_dir=root, label=spec.name))
    return root


class TestAnalyze:
    def test_summary_output_and_digest_line(self, artifact_root, capsys):
        assert main([
            "insight", "analyze", "--input", str(artifact_root),
        ]) == 0
        out = capsys.readouterr().out
        assert "incident(s)" in out
        assert "[0] IDLE->GAP" in out
        match = re.search(r"report digest: ([0-9a-f]{32})", out)
        assert match
        assert match.group(1) == analyze_artifacts(artifact_root).digest()

    def test_digest_only_prints_bare_digest(self, artifact_root, capsys):
        assert main([
            "insight", "analyze", "--input", str(artifact_root),
            "--digest-only",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert _HEX_DIGEST.match(out)

    def test_json_out_writes_the_canonical_report(
        self, artifact_root, tmp_path, capsys
    ):
        target = tmp_path / "nested" / "report.json"
        assert main([
            "insight", "analyze", "--input", str(artifact_root),
            "--json", str(target),
        ]) == 0
        document = json.loads(target.read_text())
        assert document["format"] == "repro.insight-report"
        assert document["version"] == 1
        assert target.read_text().rstrip("\n") == (
            analyze_artifacts(artifact_root).canonical_json()
        )

    def test_label_override(self, artifact_root, capsys):
        assert main([
            "insight", "analyze", "--input", str(artifact_root),
            "--label", "renamed",
        ]) == 0
        assert "analyzed renamed:" in capsys.readouterr().out

    def test_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "insight", "analyze", "--input", str(tmp_path / "nope"),
        ]) == 2
        assert "no artifact directory" in capsys.readouterr().err


class TestReport:
    def test_renders_and_writes(self, artifact_root, tmp_path, capsys):
        target = tmp_path / "incident.txt"
        assert main([
            "insight", "report", "--input", str(artifact_root),
            "--out", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "incident report:" in out
        assert "IDLE->GAP" in out
        assert target.read_text().startswith("incident report:")


class TestSimilar:
    def test_store_then_query_by_label(
        self, artifact_root, tmp_path, capsys
    ):
        store = str(tmp_path / "insight.sqlite")
        for label in ("campaign-a", "campaign-b"):
            assert main([
                "insight", "analyze", "--input", str(artifact_root),
                "--label", label, "--store", store,
            ]) == 0
        capsys.readouterr()
        assert main([
            "insight", "similar", "--store", store,
            "--label", "campaign-a",
        ]) == 0
        out = capsys.readouterr().out
        assert "#1 campaign-b" in out
        assert "distance=0.000000" in out

    def test_query_by_artifact_directory(
        self, artifact_root, tmp_path, capsys
    ):
        store = str(tmp_path / "insight.sqlite")
        assert main([
            "insight", "analyze", "--input", str(artifact_root),
            "--label", "stored", "--store", store,
        ]) == 0
        capsys.readouterr()
        assert main([
            "insight", "similar", "--store", store,
            "--input", str(artifact_root),
        ]) == 0
        assert "#1 stored" in capsys.readouterr().out

    def test_requires_exactly_one_query_source(self, tmp_path, capsys):
        store = str(tmp_path / "insight.sqlite")
        assert main(["insight", "similar", "--store", store]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "insight", "similar", "--store", store,
            "--label", "x", "--input", str(tmp_path),
        ]) == 2

    def test_unknown_label_fails_cleanly(self, tmp_path, capsys):
        store = str(tmp_path / "insight.sqlite")
        assert main([
            "insight", "similar", "--store", store, "--label", "ghost",
        ]) == 2
        assert "no campaign labelled" in capsys.readouterr().err

    def test_empty_store_reports_nothing_to_compare(
        self, artifact_root, tmp_path, capsys
    ):
        store = str(tmp_path / "empty.sqlite")
        assert main([
            "insight", "similar", "--store", store,
            "--input", str(artifact_root),
        ]) == 0
        assert "no stored campaigns" in capsys.readouterr().out

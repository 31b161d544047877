"""Library scenarios through the lease queue: compile digests + identity.

The scenario path is the declarative front door (``scenario run``); the
pooled lease-queue executor must be a pure executor swap behind it.
Two gates per library scenario:

* its **compile digest** still matches the committed golden corpus
  (executor changes must not perturb compilation);
* its compiled campaign renders a **byte-identical table at 1, 2, and
  4 pooled workers** — compared against a serial run of the same spec.

The identity runs use a *shrunk* copy of each compiled spec (durations
capped at 0.25 ms simulated) so the whole matrix stays test-suite
fast; shrinking rewrites only ``duration_ps``/``drain_ps``, never the
plans, so every scenario's fault topology is exercised.  The unshrunk
digests are pinned by the golden gate above and the scenarios stay
fully runnable (``tests/test_scenario.py`` runs them unshrunk).
"""

import dataclasses
import pathlib

import pytest

from repro.cli import main
from repro.nftape.campaign import Campaign
from repro.runtime import PooledExecutor, SerialExecutor
from repro.scenario import compile_scenario, load_scenario
from repro.scenario.golden import check_scenario_corpus, compile_digest
from repro.scenario.library import list_scenarios
from repro.sim.timebase import MS

LIBRARY = list_scenarios()

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Identity-run cap on simulated time (see module docstring).
SHRINK_CAP_PS = MS // 4


def shrunk(name):
    """The compiled spec with durations capped for fast identity runs."""
    spec = compile_scenario(load_scenario(name))
    experiments = tuple(
        dataclasses.replace(
            experiment,
            duration_ps=min(experiment.duration_ps, SHRINK_CAP_PS),
            drain_ps=min(experiment.drain_ps, SHRINK_CAP_PS),
        )
        for experiment in spec.experiments
    )
    return dataclasses.replace(spec, experiments=experiments)


class TestGoldenCompileDigests:
    def test_the_library_is_exactly_eight_scenarios(self):
        assert len(LIBRARY) == 8

    @pytest.mark.parametrize("name", LIBRARY)
    def test_compile_digest_matches_the_committed_corpus(self, name):
        expected = (GOLDEN_DIR / f"scenario_{name}.expected") \
            .read_text().strip()
        assert compile_digest(name) == expected

    def test_corpus_gate_is_green(self):
        ok, messages = check_scenario_corpus(GOLDEN_DIR)
        assert ok, "\n".join(messages)


class TestFabricWorkerCountIdentity:
    @pytest.mark.parametrize("name", LIBRARY)
    def test_table_is_byte_identical_at_1_2_and_4_workers(self, name):
        spec = shrunk(name)
        serial = Campaign.from_spec(spec).run(executor=SerialExecutor())
        for workers in (1, 2, 4):
            executor = PooledExecutor(workers=workers)
            table = Campaign.from_spec(spec).run(executor=executor)
            assert table.render() == serial.render(), \
                f"{name} diverged at {workers} worker(s)"
            assert executor.retries == {}


class TestScenarioRunFabricCli:
    def test_scenario_run_fabric_prints_the_fabric_summary(
            self, tmp_path, capsys):
        home = tmp_path / "run"
        assert main([
            "scenario", "run", "dual-injector",
            "--workers", "2", "--artifacts-dir", str(home),
            "--no-progress",
        ]) == 0
        out = capsys.readouterr().out
        assert "executed with 2 worker(s)" in out
        assert "store: " in out
        assert (home / "results.sqlite").is_file()

    def test_store_query_reads_the_scenario_run(self, tmp_path, capsys):
        home = tmp_path / "run"
        assert main([
            "scenario", "run", "dual-injector",
            "--workers", "2", "--artifacts-dir", str(home),
            "--no-progress",
        ]) == 0
        capsys.readouterr()
        assert main(["store", "query",
                     "--artifacts-dir", str(home)]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out

"""The sharded campaign engine: specs, seeding, executors, resume.

The contract under test is the one docs/runtime.md promises:

* campaigns are **data** (frozen, picklable specs) materialized inside
  whichever process runs them;
* per-experiment seeds derive from the base seed by a pure rule, so
  results are **bit-identical at any worker count**;
* the result store makes ``--resume`` skip completed experiments
  without changing the merged table, for both executors;
* crashed workers are retried with the same seed; hung workers are
  killed by the wall-clock timeout (the lease deadline).
"""

import json
import pickle
import sqlite3

import pytest

from repro.errors import CampaignError, ConfigurationError
from repro.hw.registers import MatchMode
from repro.core.faults import control_symbol_swap
from repro.myrinet.symbols import GAP, STOP
from repro.nftape.campaign import Campaign
from repro.nftape.experiment import TestbedOptions
from repro.runtime import (
    CampaignSpec,
    ExperimentSpec,
    PlanSpec,
    PooledExecutor,
    SerialExecutor,
    derive_seed,
)
from repro.runtime.executors import MAX_RETRIES
from repro.runtime.seeding import SEED_MASK
from repro.runtime.spec_codec import spec_from_json
from repro.runtime.store import ResultStore, spec_digest
from repro.runtime.worker import CRASH_PARAM, HANG_PARAM
from repro.sim.timebase import MS


def tiny_spec(n=4, base_seed=0, name="unit campaign", extra_params=None):
    """A small, fast campaign: alternating fault and no-fault runs."""
    specs = []
    for index in range(n):
        plan = None
        if index % 2:
            plan = PlanSpec(
                "fault", "RL",
                control_symbol_swap(GAP, STOP, MatchMode.ON),
                use_serial=False,
            )
        specs.append(ExperimentSpec(
            name=f"run-{index}",
            duration_ps=1 * MS,
            plan=plan,
            params=dict(extra_params or {}),
        ))
    return CampaignSpec(name, specs, base_seed=base_seed)


# ----------------------------------------------------------------------
# seeding
# ----------------------------------------------------------------------

class TestSeeding:
    def test_deterministic_and_sensitive_to_all_inputs(self):
        assert derive_seed(0, 1, "x") == derive_seed(0, 1, "x")
        assert derive_seed(0, 1, "x") != derive_seed(1, 1, "x")
        assert derive_seed(0, 1, "x") != derive_seed(0, 2, "x")
        assert derive_seed(0, 1, "x") != derive_seed(0, 1, "y")

    def test_stays_within_63_bits(self):
        for index in range(64):
            seed = derive_seed(12345, index, f"run-{index}")
            assert 0 <= seed <= SEED_MASK

    def test_duplicate_names_still_get_distinct_seeds(self):
        """The index participates, so repeated pair names differ."""
        assert derive_seed(0, 0, "GAP->STOP") != derive_seed(0, 8, "GAP->STOP")


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------

class TestSpecs:
    def test_plan_spec_validates_kind(self):
        config = control_symbol_swap(GAP, STOP, MatchMode.ON)
        with pytest.raises(ConfigurationError):
            PlanSpec("nope", "RL", config)

    def test_plan_spec_validates_direction(self):
        config = control_symbol_swap(GAP, STOP, MatchMode.ON)
        with pytest.raises(ConfigurationError):
            PlanSpec("fault", "Q", config)

    def test_campaign_spec_pickles_and_round_trips(self):
        spec = tiny_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.seed_for(2) == spec.seed_for(2)

    def test_materialize_owns_private_copies(self):
        """A worker mutating its test bed options can never leak state
        back into the shared spec."""
        options = TestbedOptions(host_kwargs={"rx_drain_factor": 2.0})
        spec = ExperimentSpec("iso", duration_ps=1 * MS, testbed=options)
        live = spec.materialize(seed=7)
        live.testbed_options.host_kwargs["rx_drain_factor"] = 99.0
        assert options.host_kwargs["rx_drain_factor"] == 2.0
        assert live.testbed_options.seed == 7


# ----------------------------------------------------------------------
# determinism under parallelism — the engine's core guarantee
# ----------------------------------------------------------------------

class TestParallelDeterminism:
    def test_workers_1_vs_4_byte_identical(self, tmp_path):
        """Same spec, same table bytes, same merged counters — whether
        run in-process or sharded across four worker processes."""
        spec = tiny_spec(n=8)

        serial_exec = SerialExecutor(artifacts_dir=tmp_path / "serial")
        serial = Campaign.from_spec(spec).run(executor=serial_exec)

        pooled_exec = PooledExecutor(
            workers=4, artifacts_dir=tmp_path / "pooled"
        )
        pooled = Campaign.from_spec(spec).run(executor=pooled_exec)

        assert serial.render() == pooled.render()
        assert serial.rows == pooled.rows
        assert sorted(serial_exec.executed) == list(range(8))
        assert sorted(pooled_exec.executed) == list(range(8))

        # Merged telemetry: identical modulo wall-clock series.
        def deterministic_series(root):
            doc = json.loads(
                (root / "telemetry" / "metrics.json").read_text()
            )
            return {
                (s["name"], json.dumps(s["labels"], sort_keys=True)): s
                for s in doc["metrics"]["series"]
                if "wall" not in s["name"] and "per_s" not in s["name"]
            }

        assert deterministic_series(tmp_path / "serial") == \
            deterministic_series(tmp_path / "pooled")

        # Both executors write the campaign's spec codec document to
        # spec.json, byte-equal (the insight engine decodes it to name
        # faults, directions, and the topology).
        serial_doc = (tmp_path / "serial" / "spec.json").read_text()
        pooled_doc = (tmp_path / "pooled" / "spec.json").read_text()
        assert serial_doc == pooled_doc
        assert spec_from_json(json.loads(serial_doc)) == spec

        # Merged span rows are stamped with their campaign-global shard.
        spans_text = (
            tmp_path / "pooled" / "telemetry" / "spans.jsonl"
        ).read_text()
        shards = {
            json.loads(line).get("shard")
            for line in spans_text.splitlines()
        }
        assert shards == set(range(8))

    def test_results_survive_the_worker_boundary(self, tmp_path):
        """Counter maps and params come back from workers intact."""
        spec = tiny_spec(n=2, extra_params={"tag": "boundary"})
        pooled = Campaign.from_spec(spec)
        pooled.run(executor=PooledExecutor(workers=2))
        for result in pooled.results:
            assert result.params["tag"] == "boundary"
            assert result.host_stats  # per-host counters crossed over
            assert "testbed" not in result.extras  # live objects do not


# ----------------------------------------------------------------------
# result-store resume (serial and pooled share one store)
# ----------------------------------------------------------------------

def _store_rows(root, spec):
    with ResultStore(root / "results.sqlite") as store:
        return list(store.export_rows(spec_digest(spec)))


def _keep_first_winners(root, spec, keep):
    """Simulate an interruption: drop every winner past ``keep``."""
    conn = sqlite3.connect(root / "results.sqlite")
    with conn:
        conn.execute("DELETE FROM results WHERE spec_digest = ? "
                     "AND idx >= ?", (spec_digest(spec), keep))
    conn.close()


class TestStoreResume:
    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_resume_skips_completed_experiments(self, tmp_path,
                                                resume_workers):
        """Half a serial run's winners survive; the resumed run (serial
        or pooled) restores them and executes only the rest."""
        spec = tiny_spec(n=4)
        root = tmp_path / "run"

        full_exec = SerialExecutor(artifacts_dir=root)
        full = Campaign.from_spec(spec).run(executor=full_exec)
        assert sorted(full_exec.executed) == [0, 1, 2, 3]
        _keep_first_winners(root, spec, keep=2)

        resumed_exec = (
            SerialExecutor(artifacts_dir=root, resume=True)
            if resume_workers == 1 else
            PooledExecutor(workers=2, artifacts_dir=root, resume=True)
        )
        resumed = Campaign.from_spec(spec).run(executor=resumed_exec)
        assert sorted(resumed_exec.skipped) == [0, 1]
        assert sorted(resumed_exec.executed) == [2, 3]
        assert resumed.render() == full.render()

    def test_a_different_spec_restores_nothing(self, tmp_path):
        root = tmp_path / "run"
        Campaign.from_spec(tiny_spec(n=1, base_seed=0)).run(
            executor=SerialExecutor(artifacts_dir=root)
        )
        other = SerialExecutor(artifacts_dir=root, resume=True)
        Campaign.from_spec(tiny_spec(n=1, base_seed=99)).run(
            executor=other)
        assert other.skipped == []
        assert other.executed == [0]

    def test_serial_records_every_winner(self, tmp_path):
        spec = tiny_spec(n=2)
        root = tmp_path / "run"
        table = Campaign.from_spec(spec).run(
            executor=SerialExecutor(artifacts_dir=root))
        rows = _store_rows(root, spec)
        assert [row["index"] for row in rows] == [0, 1]
        assert [row["seed"] for row in rows] == \
            [spec.seed_for(0), spec.seed_for(1)]
        assert [row["result"]["name"] for row in rows] == \
            [result.name for result in table.results]

    def test_resume_without_artifacts_dir_fails(self):
        with pytest.raises(CampaignError, match="result store"):
            Campaign.from_spec(tiny_spec(n=1)).run(
                executor=SerialExecutor(resume=True)
            )
        with pytest.raises(CampaignError, match="result store"):
            Campaign.from_spec(tiny_spec(n=1)).run(
                executor=PooledExecutor(resume=True)
            )


# ----------------------------------------------------------------------
# robustness: crash retry and wall-clock timeout
# ----------------------------------------------------------------------

class TestRobustness:
    def test_crashed_worker_is_retried_with_same_seed(self):
        """A worker that dies abruptly is replaced (fresh process, same
        derived seed) and the campaign's output is unaffected."""
        clean = Campaign.from_spec(tiny_spec(n=2))
        clean_table = clean.run(executor=PooledExecutor(workers=2))

        crashing = Campaign.from_spec(
            tiny_spec(n=2, extra_params={CRASH_PARAM: 1})
        )
        crashing_exec = PooledExecutor(workers=2)
        crashed_table = crashing.run(executor=crashing_exec)

        assert crashing_exec.retries == {0: 1, 1: 1}
        assert crashed_table.render() == clean_table.render()

    def test_crash_beyond_retry_budget_fails_the_campaign(self):
        campaign = Campaign.from_spec(
            tiny_spec(n=1, extra_params={CRASH_PARAM: MAX_RETRIES + 1})
        )
        executor = PooledExecutor(workers=1)
        with pytest.raises(CampaignError, match="failed after"):
            campaign.run(executor=executor)
        assert executor.retries == {0: MAX_RETRIES}

    def test_hung_worker_trips_the_timeout(self):
        campaign = Campaign.from_spec(
            tiny_spec(n=1, extra_params={HANG_PARAM: 30.0})
        )
        executor = PooledExecutor(workers=1, timeout_s=0.5)
        with pytest.raises(CampaignError, match="timed out"):
            campaign.run(executor=executor)
        assert executor.retries == {0: MAX_RETRIES}

    def test_deterministic_worker_exception_is_not_retried(self):
        """A ValueError inside the experiment is the campaign's bug, not
        the infrastructure's — fail immediately, report the traceback."""
        spec = CampaignSpec("bad", [
            ExperimentSpec("negative-duration", duration_ps=-5)
        ])
        executor = PooledExecutor(workers=1)
        with pytest.raises(CampaignError) as error:
            Campaign.from_spec(spec).run(executor=executor)
        assert executor.retries == {}
        assert "negative-duration" in str(error.value)
        assert "Traceback" in str(error.value)

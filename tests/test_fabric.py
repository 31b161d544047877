"""The pooled executor's lease queue: queue file, store resume, events.

What docs/runtime.md promises for the lease-queue :class:`PooledExecutor`,
pinned:

* **byte-identical at any worker count** — the same campaign run
  serially and pooled with 1, 2, and 4 workers renders the same table,
  merges the same artifacts, and stores the same winner rows;
* ``resume=True`` restarts from the sqlite store: completed
  experiments are restored, the rest execute, the table is unchanged;
* the queue file is self-validating — a torn or truncated queue parses
  as *no work*, never as wrong work;
* :class:`EventBus` lifecycle is exactly-once per experiment even when
  a lease is forfeited and re-issued, and re-issue is announced as
  ``experiment_retried`` with a ``reason``, not a second
  ``experiment_started``;
* a retried/re-issued attempt never double-counts merged telemetry —
  the counters of a run whose attempt 0 crashed *after* writing its
  artifact shard equal a clean single-attempt run's.

Chaos-mode convergence (kill/hang/torn-store/duplicate/truncation) has
its own harness in ``tests/chaos/``.
"""

import json
import os
import time

import pytest

from repro.core.faults import control_symbol_swap
from repro.errors import CampaignError
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, STOP
from repro.nftape.campaign import Campaign
from repro.runtime import (
    CampaignSpec,
    EventBus,
    EventBusSession,
    ExperimentSpec,
    PlanSpec,
    PooledExecutor,
    SerialExecutor,
)
from repro.runtime import executors
from repro.runtime.artifacts import merged_metrics_path
from repro.runtime.events import EVENT_KINDS
from repro.runtime.fabric import read_lease, read_queue, write_queue
from repro.runtime.store import ResultStore, spec_digest
from repro.runtime.worker import CRASH_AFTER_PARAM, HANG_PARAM, \
    HANG_UNTIL_PARAM
from repro.sim.timebase import MS
from tests.test_runtime import tiny_spec


def fabric_spec(n=4, name="fabric campaign", per_index_params=None):
    """Like ``tiny_spec`` but with *per-experiment* chaos params."""
    per_index_params = per_index_params or {}
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
            params=dict(per_index_params.get(index, {})),
        ))
    return CampaignSpec(name, specs, base_seed=0)


def counter_series(metrics_path):
    """The deterministic (counter + histogram) slice of merged metrics —
    gauges carry wall-clock timings and are excluded by design."""
    document = json.loads(metrics_path.read_text())
    return sorted(
        (entry["name"], tuple(sorted(entry.get("labels", {}).items())),
         entry.get("value", entry.get("count")))
        for entry in document["metrics"]["series"]
        if entry.get("kind") in ("counter", "histogram")
    )


# ----------------------------------------------------------------------
# the queue file
# ----------------------------------------------------------------------

class TestQueueFile:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec(n=3)
        digest = spec_digest(spec)
        write_queue(tmp_path, digest, spec)
        items = read_queue(tmp_path, digest)
        assert items == [
            (index, f"run-{index}", spec.seed_for(index))
            for index in range(3)
        ]

    def test_missing_and_empty_park_the_reader(self, tmp_path):
        assert read_queue(tmp_path) is None
        (tmp_path / "queue.jsonl").write_text("")
        assert read_queue(tmp_path) is None

    def test_truncation_parses_as_no_work(self, tmp_path):
        spec = tiny_spec(n=3)
        digest = spec_digest(spec)
        target = write_queue(tmp_path, digest, spec)
        whole = target.read_text()
        for cut in (len(whole) // 2, len(whole) - 3):
            target.write_text(whole[:cut])
            assert read_queue(tmp_path, digest) is None

    def test_digest_mismatch_is_not_work(self, tmp_path):
        spec = tiny_spec(n=2)
        write_queue(tmp_path, spec_digest(spec), spec)
        assert read_queue(tmp_path, "f" * 32) is None
        assert read_queue(tmp_path, spec_digest(spec)) is not None

    def test_rewrite_repairs_in_place(self, tmp_path):
        spec = tiny_spec(n=2)
        digest = spec_digest(spec)
        target = write_queue(tmp_path, digest, spec)
        target.write_text("junk\n")
        write_queue(tmp_path, digest, spec)
        assert read_queue(tmp_path, digest) is not None


# ----------------------------------------------------------------------
# worker-count identity and artifacts
# ----------------------------------------------------------------------

def _exported(root, spec):
    with ResultStore(root / "results.sqlite") as store:
        return list(store.export_rows(spec_digest(spec)))


def _aggregate(root, spec):
    with ResultStore(root / "results.sqlite") as store:
        return store.aggregate(spec_digest(spec))


class TestWorkerCountIdentity:
    def test_fabric_matches_serial_at_1_2_and_4_workers(self, tmp_path):
        """One spec, four runs — serial and pooled with 1, 2 and 4
        workers: identical rendered tables, identical winner rows and
        identical aggregates in the result store.  The store is equal
        by query, not by bytes: rows land in completion order."""
        spec = tiny_spec()
        serial_root = tmp_path / "serial"
        serial = Campaign.from_spec(spec).run(
            executor=SerialExecutor(artifacts_dir=serial_root))
        reference = _exported(serial_root, spec)
        totals = _aggregate(serial_root, spec)
        assert [row["index"] for row in reference] == [0, 1, 2, 3]
        assert totals["experiments_done"] == 4
        for workers in (1, 2, 4):
            root = tmp_path / f"w{workers}"
            executor = PooledExecutor(workers=workers, artifacts_dir=root)
            table = Campaign.from_spec(spec).run(executor=executor)
            assert table.render() == serial.render(), workers
            assert _exported(root, spec) == reference, workers
            assert _aggregate(root, spec) == totals, workers
            assert executor.executed == [0, 1, 2, 3]
            assert executor.retries == {}

    def test_merged_artifacts_match_the_serial_path(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        Campaign.from_spec(tiny_spec()).run(executor=SerialExecutor(
            artifacts_dir=serial_dir))
        executor = PooledExecutor(workers=2, artifacts_dir=pooled_dir)
        Campaign.from_spec(tiny_spec()).run(executor=executor)
        assert executor.merge_summary["telemetry_shards"] == 4
        assert executor.merge_summary["capture_shards"] == 4
        assert not executor.merge_summary["missing_shards"]
        assert (pooled_dir / "capture" / "capture.rcap").read_bytes() \
            == (serial_dir / "capture" / "capture.rcap").read_bytes()
        assert counter_series(merged_metrics_path(pooled_dir)) \
            == counter_series(merged_metrics_path(serial_dir))

    def test_store_is_queryable_after_the_run(self, tmp_path):
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=tmp_path / "run")
        Campaign.from_spec(tiny_spec()).run(executor=executor)
        with ResultStore(tmp_path / "run" / "results.sqlite") as store:
            digest = store.resolve("unit campaign")
            assert digest == spec_digest(tiny_spec())
            assert store.aggregate(digest)["experiments_done"] == 4
            assert store.aggregate(digest) == store.fold_aggregate(digest)

    def test_fabric_resume_without_a_home_is_an_error(self):
        with pytest.raises(CampaignError, match="resume"):
            Campaign.from_spec(tiny_spec()).run(
                executor=PooledExecutor(resume=True))


# ----------------------------------------------------------------------
# resume from the store
# ----------------------------------------------------------------------

class TestStoreResume:
    def test_resume_restores_winners_and_runs_the_rest(self, tmp_path):
        spec = tiny_spec()
        serial = Campaign.from_spec(spec).run(executor=SerialExecutor())

        # Seed the store with the first half, as if a prior pooled run
        # was killed at 50%.
        home = tmp_path / "run"
        home.mkdir()
        with ResultStore(home / "results.sqlite") as store:
            digest = store.begin(spec)
            for index, result in enumerate(serial.results[:2]):
                store.record(digest, index, result.name,
                             spec.seed_for(index), result)

        executor = PooledExecutor(workers=2, resume=True,
                                  artifacts_dir=home)
        table = Campaign.from_spec(spec).run(executor=executor)
        assert executor.skipped == [0, 1]
        assert executor.executed == [2, 3]
        assert table.render() == serial.render()

    def test_resume_with_everything_done_executes_nothing(self, tmp_path):
        home = tmp_path / "run"
        first = PooledExecutor(workers=2, artifacts_dir=home)
        baseline = Campaign.from_spec(tiny_spec()).run(executor=first)
        second = PooledExecutor(workers=2, resume=True,
                                artifacts_dir=home)
        table = Campaign.from_spec(tiny_spec()).run(executor=second)
        assert second.skipped == [0, 1, 2, 3]
        assert second.executed == []
        assert table.render() == baseline.render()


# ----------------------------------------------------------------------
# events: exactly-once lifecycle under lease re-issue (satellite)
# ----------------------------------------------------------------------

def lease_reissue_run(tmp_path, bus):
    """One pooled run where experiment 1's first attempt hangs past the
    lease deadline, forcing a kill + forfeit + re-issue."""
    spec = fabric_spec(per_index_params={
        1: {HANG_PARAM: 30.0, HANG_UNTIL_PARAM: 1},
    })
    executor = PooledExecutor(
        workers=2, timeout_s=0.4,
        artifacts_dir=tmp_path / "run", events_label="reissue campaign",
    )
    with EventBusSession(bus):
        table = Campaign.from_spec(spec).run(executor=executor)
    return executor, table


class TestEventsUnderReissue:
    def test_retired_kinds_are_gone(self):
        assert "experiment_retried" in EVENT_KINDS
        for kind in ("fabric_lease_reissued", "experiment_timeout",
                     "journal_record"):
            assert kind not in EVENT_KINDS

    def test_lifecycle_is_exactly_once_per_index(self, tmp_path):
        bus = EventBus()
        executor, table = lease_reissue_run(tmp_path, bus)
        assert executor.retries.get(1, 0) >= 1

        events = bus.history("reissue campaign")
        started = [e.payload["index"] for e in events
                   if e.kind == "experiment_started"]
        finished = [e.payload["index"] for e in events
                    if e.kind == "experiment_finished"]
        assert sorted(started) == [0, 1, 2, 3]
        assert sorted(finished) == [0, 1, 2, 3]

        clean = Campaign.from_spec(fabric_spec()).run(
            executor=SerialExecutor())
        assert table.render() == clean.render()

    def test_reissue_event_carries_the_audit_payload(self, tmp_path):
        bus = EventBus()
        executor, _ = lease_reissue_run(tmp_path, bus)
        reissued = [e for e in bus.history("reissue campaign")
                    if e.kind == "experiment_retried"]
        assert len(reissued) == executor.retries[1] >= 1
        event = reissued[0]
        assert event.payload["index"] == 1
        assert event.payload["name"] == "run-1"
        assert event.payload["attempt"] == 1
        assert "timed out" in event.payload["reason"]

    def test_campaign_finished_reports_the_reissue_count(self, tmp_path):
        bus = EventBus()
        executor, _ = lease_reissue_run(tmp_path, bus)
        (finished,) = [e for e in bus.history("reissue campaign")
                       if e.kind == "campaign_finished"]
        assert finished.payload["retried"] \
            == sum(executor.retries.values()) >= 1


# ----------------------------------------------------------------------
# no double-counted telemetry on retried attempts (satellite fix+pin)
# ----------------------------------------------------------------------

class TestNoDoubleCount:
    """Attempt 0 crashes *after* promoting its artifact shard; attempt 1
    re-runs and must lose the promotion race — merged telemetry counters
    equal a clean single-attempt run's."""

    def test_pooled_retry_does_not_double_count(self, tmp_path):
        clean_dir = tmp_path / "clean"
        Campaign.from_spec(tiny_spec()).run(executor=PooledExecutor(
            workers=2, artifacts_dir=clean_dir))

        crashed_dir = tmp_path / "crashed"
        executor = PooledExecutor(workers=2, artifacts_dir=crashed_dir)
        Campaign.from_spec(
            tiny_spec(extra_params={CRASH_AFTER_PARAM: 1})
        ).run(executor=executor)
        assert executor.retries == {index: 1 for index in range(4)}
        assert counter_series(merged_metrics_path(crashed_dir)) \
            == counter_series(merged_metrics_path(clean_dir))

    def test_fabric_reissue_does_not_double_count(self, tmp_path):
        clean_dir = tmp_path / "clean"
        Campaign.from_spec(fabric_spec()).run(executor=PooledExecutor(
            workers=2, artifacts_dir=clean_dir))

        crashed_dir = tmp_path / "crashed"
        executor = PooledExecutor(workers=2, timeout_s=30.0,
                                  artifacts_dir=crashed_dir)
        table = Campaign.from_spec(fabric_spec(per_index_params={
            2: {CRASH_AFTER_PARAM: 1},
        })).run(executor=executor)
        assert executor.retries.get(2, 0) == 1
        assert counter_series(merged_metrics_path(crashed_dir)) \
            == counter_series(merged_metrics_path(clean_dir))
        clean = Campaign.from_spec(fabric_spec()).run(
            executor=SerialExecutor())
        assert table.render() == clean.render()


# ----------------------------------------------------------------------
# a lease released by its finished worker is not a retry
# ----------------------------------------------------------------------

class TestReleasedLeaseIsNotARetry:
    @pytest.mark.skipif(not hasattr(os, "waitid"),
                        reason="waiting without reaping needs os.waitid")
    def test_holder_exiting_after_release_is_not_a_retry(
        self, tmp_path, monkeypatch
    ):
        """The worker records its result, releases the lease and exits
        between the coordinator's lease read and its liveness check: the
        experiment completed, so nothing is forfeited or retried."""
        observed = []

        def read_then_await_holder_exit(path):
            lease = read_lease(path)
            if lease is not None and not observed:
                observed.append(lease)
                # Wait for the holder to exit, without reaping it.
                deadline = time.monotonic() + 60
                while os.waitid(os.P_PID, lease.pid, os.WEXITED
                                | os.WNOWAIT | os.WNOHANG) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            return lease

        monkeypatch.setattr(executors, "read_lease",
                            read_then_await_holder_exit)
        spec = CampaignSpec("release race", [ExperimentSpec(
            "only", duration_ps=1 * MS, params={HANG_PARAM: 0.2},
        )])
        bus = EventBus()
        executor = PooledExecutor(workers=1, timeout_s=None,
                                  artifacts_dir=tmp_path / "run",
                                  events_label="release race")
        with EventBusSession(bus):
            Campaign.from_spec(spec).run(executor=executor)
        assert observed, "the coordinator never saw the lease"
        assert executor.retries == {}
        assert not [e for e in bus.history("release race")
                    if e.kind == "experiment_retried"]

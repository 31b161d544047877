"""Fault-injection chaos suite: every failure converges to serial.

The lease queue's failure-model table (``repro/runtime/fabric.py``
module docstring) promises five recoveries for the pooled executor.
Each class here injects exactly one of those failures
deterministically — via the worker-side chaos
params (:data:`CRASH_PARAM` & friends), the executor's
``chaos_duplicate_delivery`` hook, or direct file surgery — and then
asserts **convergence**: the chaos run's table render, merged capture
bytes, and merged telemetry counters equal the serial baseline's.

Set ``REPRO_CHAOS_ROUNDS=N`` to repeat each injection N times with a
rotating target experiment (CI runs 10; the default 1 keeps local runs
fast).  Failures never depend on wall-clock luck: crashes fire on a
param check, hangs are bounded by a short lease deadline, and the
torn-store and torn-queue modes damage the files from the test itself.
"""

import os
import sqlite3
import threading
import time

import pytest

from repro.nftape.campaign import Campaign
from repro.runtime import PooledExecutor, SerialExecutor
from repro.runtime.artifacts import merged_capture_path, \
    merged_metrics_path
from repro.runtime.store import spec_digest
from repro.runtime.worker import (
    CRASH_PARAM,
    HANG_PARAM,
    HANG_UNTIL_PARAM,
)
from tests.test_fabric import counter_series, fabric_spec

#: Injection repetitions; CI exports REPRO_CHAOS_ROUNDS=10.
ROUNDS = max(1, int(os.environ.get("REPRO_CHAOS_ROUNDS", "1")))

#: Experiments per chaos campaign — enough that every failure strikes
#: mid-run, small enough that a round stays subsecond.
EXPERIMENTS = 6


def chaos_spec(per_index_params=None):
    return fabric_spec(n=EXPERIMENTS, name="chaos campaign",
                       per_index_params=per_index_params)


def rotating_targets():
    """One target experiment per round, rotating over the campaign."""
    return [round_index % EXPERIMENTS for round_index in range(ROUNDS)]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The serial run every chaos run must converge to."""
    home = tmp_path_factory.mktemp("baseline")
    table = Campaign.from_spec(chaos_spec()).run(
        executor=SerialExecutor(artifacts_dir=home))
    return {
        "render": table.render(),
        "capture": merged_capture_path(home).read_bytes(),
        "counters": counter_series(merged_metrics_path(home)),
    }


def assert_converged(baseline, table, home):
    """The one invariant: chaos output is byte-identical to serial."""
    assert table.render() == baseline["render"]
    assert merged_capture_path(home).read_bytes() == baseline["capture"]
    assert counter_series(merged_metrics_path(home)) \
        == baseline["counters"]


# ----------------------------------------------------------------------
# 1. worker killed mid-lease
# ----------------------------------------------------------------------

class TestWorkerKilledMidLease:
    @pytest.mark.parametrize("target", rotating_targets())
    def test_dead_holder_is_forfeited_and_reissued(
            self, tmp_path, baseline, target):
        """The worker claims the lease, then ``os._exit``\\ s before
        running — the coordinator must spot the dead holder, re-issue
        with the same seed, and respawn a replacement."""
        home = tmp_path / "run"
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=home)
        table = Campaign.from_spec(chaos_spec(
            {target: {CRASH_PARAM: 1}}
        )).run(executor=executor)
        assert executor.retries == {target: 1}
        assert_converged(baseline, table, home)

    def test_every_worker_crashing_at_once_still_converges(
            self, tmp_path, baseline):
        """All experiments crash their first attempt — a worse storm
        than any single kill; the respawn budget absorbs it."""
        home = tmp_path / "run"
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=home)
        table = Campaign.from_spec(chaos_spec(
            {index: {CRASH_PARAM: 1} for index in range(EXPERIMENTS)}
        )).run(executor=executor)
        assert sum(executor.retries.values()) == EXPERIMENTS
        assert_converged(baseline, table, home)


# ----------------------------------------------------------------------
# 2. worker hangs past the lease deadline
# ----------------------------------------------------------------------

class TestWorkerHangsPastDeadline:
    @pytest.mark.parametrize("target", rotating_targets())
    def test_expired_lease_is_reissued_and_the_late_result_loses(
            self, tmp_path, baseline, target):
        """The first attempt sleeps far past the lease deadline; the
        coordinator terminates the sleeper, the re-issued attempt wins,
        and the output is unperturbed."""
        home = tmp_path / "run"
        executor = PooledExecutor(workers=2, timeout_s=0.4,
                                  artifacts_dir=home)
        table = Campaign.from_spec(chaos_spec(
            {target: {HANG_PARAM: 60.0, HANG_UNTIL_PARAM: 1}}
        )).run(executor=executor)
        assert executor.retries.get(target, 0) >= 1
        assert_converged(baseline, table, home)


# ----------------------------------------------------------------------
# 3. torn sqlite write (copy-under-write / kill -9 mid-commit)
# ----------------------------------------------------------------------

class TestTornSqliteWrite:
    @pytest.mark.parametrize("round_index", range(ROUNDS))
    def test_truncated_store_is_quarantined_and_rerun(
            self, tmp_path, baseline, round_index):
        """A completed store torn at the file level (truncation rotates
        with the round) is quarantined at the next open; the resumed
        campaign re-runs everything and converges."""
        home = tmp_path / "run"
        first = PooledExecutor(workers=2,
                               artifacts_dir=home)
        Campaign.from_spec(chaos_spec()).run(executor=first)

        store_file = home / "results.sqlite"
        whole = store_file.read_bytes()
        keep = max(100, len(whole) // (2 + round_index))
        store_file.write_bytes(whole[:keep])
        for sidecar in ("-wal", "-shm"):
            path = home / ("results.sqlite" + sidecar)
            if path.exists():
                path.unlink()

        resumed = PooledExecutor(workers=2, resume=True,
                                 artifacts_dir=home)
        table = Campaign.from_spec(chaos_spec()).run(executor=resumed)
        assert resumed.skipped == []  # nothing trustworthy survived
        assert sorted(resumed.executed) == list(range(EXPERIMENTS))
        assert (home / "results.sqlite.corrupt-0").exists()
        assert_converged(baseline, table, home)

    def test_garbage_store_at_first_open_is_quarantined(
            self, tmp_path, baseline):
        """Not even a valid sqlite header: the executor must quarantine
        and start fresh rather than crash or trust it."""
        home = tmp_path / "run"
        home.mkdir()
        (home / "results.sqlite").write_bytes(b"\x00garbage" * 200)
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=home)
        table = Campaign.from_spec(chaos_spec()).run(executor=executor)
        assert (home / "results.sqlite.corrupt-0").exists()
        assert_converged(baseline, table, home)


# ----------------------------------------------------------------------
# 4. duplicate lease delivery
# ----------------------------------------------------------------------

class TestDuplicateLeaseDelivery:
    @pytest.mark.parametrize("target", rotating_targets())
    def test_rogue_double_execution_is_absorbed(
            self, tmp_path, baseline, target):
        """A rogue worker executes the target experiment *without*
        claiming its lease — a partitioned queue delivering one lease
        twice.  The store's one-winner transaction and the atomic shard
        promotion keep exactly one of everything."""
        home = tmp_path / "run"
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=home,
                                  chaos_duplicate_delivery=target)
        table = Campaign.from_spec(chaos_spec()).run(executor=executor)
        assert_converged(baseline, table, home)


# ----------------------------------------------------------------------
# 5. queue-file truncation
# ----------------------------------------------------------------------

class TestQueueTruncation:
    @pytest.mark.parametrize("round_index", range(ROUNDS))
    def test_truncated_queue_parks_workers_until_repaired(
            self, tmp_path, baseline, round_index):
        """Mid-run the queue file is torn (cut point rotates with the
        round).  Parked workers must make no progress on a damaged
        queue; the coordinator detects and atomically rewrites it."""
        home = tmp_path / "run"
        spec = chaos_spec()
        digest = spec_digest(spec)
        queue_file = home / "fabric" / "queue.jsonl"
        store_file = home / "results.sqlite"

        def winners_so_far():
            try:
                conn = sqlite3.connect(store_file, timeout=5.0)
                (count,) = conn.execute(
                    "SELECT COUNT(*) FROM results WHERE spec_digest = ? "
                    "AND winner = 1", (digest,)).fetchone()
                conn.close()
                return count
            except sqlite3.Error:
                return 0

        def tear_queue_mid_run():
            # Strike while >= 4 experiments are still outstanding, so
            # completion *requires* the coordinator's repair.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if queue_file.exists() and winners_so_far() >= 1:
                    whole = queue_file.read_text()
                    cut = max(10, len(whole) // (2 + round_index))
                    queue_file.write_text(whole[:cut])
                    return
                time.sleep(0.002)

        saboteur = threading.Thread(target=tear_queue_mid_run,
                                    daemon=True)
        executor = PooledExecutor(workers=2,
                                  artifacts_dir=home)
        saboteur.start()
        table = Campaign.from_spec(spec).run(executor=executor)
        saboteur.join(timeout=30)
        assert executor.queue_repairs >= 1
        assert_converged(baseline, table, home)

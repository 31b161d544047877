"""The fabric's sqlite result store: winner dedup and aggregation.

The store is the fabric's shared record of truth, so its contract is
tested independently of any executor:

* one row per ``(spec_digest, index, attempt)``, **first completed
  attempt wins** — arbitrary interleavings of inserts, duplicate
  deliveries, and lease re-issues keep exactly one winning attempt per
  experiment (hypothesis-driven, plus seeded rounds through the local
  ``tests/strategies.py`` property core);
* the incrementally maintained ``aggregates`` table equals a
  from-scratch fold over the winner rows after every interleaving;
* a fresh ``begin`` clears prior rows of the same digest, a resume
  keeps them;
* a torn/corrupt database file is quarantined at open, never trusted;
* a future schema version refuses to open rather than guess.
"""

import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError, ConfigurationError
from repro.nftape.results import ExperimentResult
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.runtime.store import (
    AGGREGATE_FIELDS,
    STORE_SCHEMA_VERSION,
    ResultStore,
    spec_digest,
)
from repro.sim.timebase import MS
from tests.strategies import run_property


def small_spec(n=4, name="store campaign", base_seed=3):
    """A spec the store can register; never actually executed here."""
    return CampaignSpec(
        name,
        [ExperimentSpec(name=f"run-{index}", duration_ps=1 * MS)
         for index in range(n)],
        base_seed=base_seed,
    )


def fake_result(index, attempt=0, salt=0):
    """A distinct, cheap result for ``(index, attempt)`` — no sim run."""
    return ExperimentResult(
        name=f"run-{index}",
        duration_ps=1 * MS,
        messages_sent=10 + index + salt,
        messages_received=8 + attempt,
        injections=index % 3,
        checksum_drops=attempt,
    )


@pytest.fixture()
def store():
    with ResultStore(":memory:") as instance:
        yield instance


# ----------------------------------------------------------------------
# identity: the spec digest
# ----------------------------------------------------------------------

class TestSpecDigest:
    def test_digest_is_stable_and_semantic(self):
        assert spec_digest(small_spec()) == spec_digest(small_spec())

    def test_digest_distinguishes_specs(self):
        assert spec_digest(small_spec(base_seed=3)) \
            != spec_digest(small_spec(base_seed=4))
        assert spec_digest(small_spec(n=4)) != spec_digest(small_spec(n=5))

    def test_digest_is_short_hex(self):
        digest = spec_digest(small_spec())
        assert len(digest) == 32
        int(digest, 16)  # pure hex


# ----------------------------------------------------------------------
# lifecycle: begin / record / query
# ----------------------------------------------------------------------

class TestLifecycle:
    def test_first_attempt_wins(self, store):
        digest = store.begin(small_spec())
        assert store.record(digest, 0, "run-0", 7, fake_result(0)) is True
        assert store.record(digest, 0, "run-0", 7,
                            fake_result(0, attempt=1), attempt=1) is False
        assert store.attempts(digest, 0) == [
            {"attempt": 0, "winner": True},
            {"attempt": 1, "winner": False},
        ]

    def test_out_of_order_attempt_can_win(self, store):
        """A re-issued attempt that finishes first is the winner — the
        store cares who *completed* first, not who was issued first."""
        digest = store.begin(small_spec())
        assert store.record(digest, 2, "run-2", 7, fake_result(2, 1),
                            attempt=1) is True
        assert store.record(digest, 2, "run-2", 7, fake_result(2)) is False
        assert store.attempts(digest, 2) == [
            {"attempt": 0, "winner": False},
            {"attempt": 1, "winner": True},
        ]

    def test_duplicate_delivery_is_idempotent(self, store):
        """The same (index, attempt) landing twice changes nothing."""
        digest = store.begin(small_spec())
        store.record(digest, 1, "run-1", 9, fake_result(1))
        before = store.aggregate(digest)
        assert store.record(digest, 1, "run-1", 9,
                            fake_result(1, salt=5)) is False
        assert store.aggregate(digest) == before
        assert store.completed(digest)[1].messages_sent \
            == fake_result(1).messages_sent

    def test_completed_round_trips_results(self, store):
        digest = store.begin(small_spec())
        original = fake_result(3)
        store.record(digest, 3, "run-3", 11, original)
        assert store.completed(digest) == {3: original}
        assert store.completed_indices(digest) == {3}

    def test_fresh_begin_clears_resume_keeps(self, store):
        spec = small_spec()
        digest = store.begin(spec)
        store.record(digest, 0, "run-0", 7, fake_result(0))
        assert store.begin(spec, resume=True) == digest
        assert store.completed_indices(digest) == {0}
        store.begin(spec)  # from scratch: old rows must not leak in
        assert store.completed_indices(digest) == set()
        assert store.aggregate(digest)["experiments_done"] == 0

    def test_export_rows_are_index_ordered_and_json_safe(self, store):
        import json

        digest = store.begin(small_spec())
        for index in (2, 0, 1):
            store.record(digest, index, f"run-{index}", index,
                         fake_result(index))
        rows = list(store.export_rows(digest))
        assert [row["index"] for row in rows] == [0, 1, 2]
        json.dumps(rows)  # wire-safe

    def test_campaign_progress_view(self, store):
        digest = store.begin(small_spec(n=2))
        store.record(digest, 0, "run-0", 7, fake_result(0))
        (row,) = store.campaigns()
        assert row["spec_digest"] == digest
        assert row["name"] == "store campaign"
        assert (row["experiments"], row["experiments_done"]) == (2, 1)


class TestResolve:
    def test_by_digest_prefix_and_exact_name(self, store):
        digest = store.begin(small_spec())
        assert store.resolve(digest[:8]) == digest
        assert store.resolve("store campaign") == digest
        assert store.resolve("no-such") is None

    def test_ambiguous_prefix_raises(self, store):
        store.begin(small_spec(name="campaign a"))
        store.begin(small_spec(name="campaign b"))
        with pytest.raises(CampaignError, match="ambiguous"):
            store.resolve("")


# ----------------------------------------------------------------------
# robustness: torn files and future schemas
# ----------------------------------------------------------------------

class TestRobustness:
    def test_corrupt_file_is_quarantined_not_trusted(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_bytes(b"SQLite format 3\x00" + b"\xde\xad" * 600)
        with ResultStore(path) as store:
            assert store.recovered is True
            digest = store.begin(small_spec())
            store.record(digest, 0, "run-0", 7, fake_result(0))
            assert store.completed_indices(digest) == {0}
        assert (tmp_path / "results.sqlite.corrupt-0").exists()

    def test_second_quarantine_gets_a_fresh_generation(self, tmp_path):
        path = tmp_path / "results.sqlite"
        for generation in range(2):
            path.write_bytes(b"garbage" * 100)
            ResultStore(path).close()
            assert (tmp_path
                    / f"results.sqlite.corrupt-{generation}").exists()

    def test_future_schema_version_refuses_to_open(self, tmp_path):
        path = tmp_path / "results.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = ? WHERE key = ?",
                     (str(STORE_SCHEMA_VERSION + 1), "schema_version"))
        conn.commit()
        conn.close()
        with pytest.raises(ConfigurationError, match="schema"):
            ResultStore(path)

    def test_two_connections_share_one_store(self, tmp_path):
        """Coordinator + worker pattern: one writes, the other reads."""
        path = tmp_path / "results.sqlite"
        writer = ResultStore(path)
        reader = ResultStore(path)
        try:
            digest = writer.begin(small_spec())
            writer.record(digest, 0, "run-0", 7, fake_result(0))
            assert reader.completed_indices(digest) == {0}
        finally:
            writer.close()
            reader.close()


# ----------------------------------------------------------------------
# properties: one winner, aggregates equal a from-scratch fold
# ----------------------------------------------------------------------

interleavings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),   # experiment index
              st.integers(min_value=0, max_value=2),   # attempt
              st.integers(min_value=0, max_value=9)),  # payload salt
    max_size=24,
)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(events=interleavings)
    def test_any_interleaving_keeps_one_winner_and_exact_aggregates(
            self, events):
        """Satellite invariant: arbitrary interleavings of insert /
        lease-expire / re-insert with the same ``(spec_digest, index)``
        keep exactly one winning attempt, and the incremental
        aggregation equals a from-scratch fold."""
        with ResultStore(":memory:") as store:
            digest = store.begin(small_spec())
            first_seen = {}
            for index, attempt, salt in events:
                won = store.record(
                    digest, index, f"run-{index}", index,
                    fake_result(index, attempt, salt), attempt=attempt)
                assert won == (index not in first_seen)
                first_seen.setdefault(index, (attempt, salt))
            for index, (attempt, salt) in first_seen.items():
                audit = store.attempts(digest, index)
                assert sum(entry["winner"] for entry in audit) == 1
                assert store.completed(digest)[index] \
                    == fake_result(index, attempt, salt)
            assert store.aggregate(digest) == store.fold_aggregate(digest)
            assert store.aggregate(digest)["experiments_done"] \
                == len(first_seen)

    def test_seeded_rounds_through_the_local_property_core(self):
        """The same invariant through ``strategies.run_property`` — a
        second, independently seeded generator exercising the store."""

        def prop(rng: random.Random) -> None:
            with ResultStore(":memory:") as store:
                digest = store.begin(small_spec(n=6))
                winners = {}
                for _ in range(rng.randrange(40)):
                    index = rng.randrange(6)
                    attempt = rng.randrange(4)
                    store.record(digest, index, f"run-{index}", index,
                                 fake_result(index, attempt),
                                 attempt=attempt)
                    winners.setdefault(index, attempt)
                assert store.aggregate(digest) \
                    == store.fold_aggregate(digest)
                for index, attempt in winners.items():
                    assert store.completed(digest)[index].checksum_drops \
                        == attempt

        run_property(prop, rounds=20, name="store_one_winner")

    def test_aggregate_fields_cover_the_scalar_counters(self):
        """Every scalar counter of ExperimentResult is aggregated —
        adding one to the dataclass must extend AGGREGATE_FIELDS."""
        result = fake_result(0)
        for field in AGGREGATE_FIELDS:
            assert isinstance(getattr(result, field), int), field

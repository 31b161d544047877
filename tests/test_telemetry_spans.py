"""Unit tests for span tracking and the observation session lifecycle."""

import pytest

from repro.sim.kernel import Simulator
from repro.telemetry.session import ObservationSession
from repro.telemetry.spans import NOOP_SPAN, SpanRecord, SpanTracker, span
from repro.telemetry.state import STATE

pytestmark = pytest.mark.usefixtures("observation_off")


class TestSpanTracker:
    def test_nesting_builds_paths_and_parents(self):
        tracker = SpanTracker()
        with tracker.span("campaign") as outer:
            with tracker.span("experiment") as middle:
                with tracker.span("workload") as inner:
                    assert tracker.open_depth == 3
        assert tracker.open_depth == 0
        assert outer.path == "campaign"
        assert middle.path == "campaign/experiment"
        assert inner.path == "campaign/experiment/workload"
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert [r.name for r in tracker.records] == [
            "workload", "experiment", "campaign",  # completion order
        ]

    def test_wall_times_are_monotonic(self):
        tracker = SpanTracker()
        with tracker.span("a") as record:
            pass
        assert record.end_wall_ns is not None
        assert record.end_wall_ns >= record.start_wall_ns
        assert record.wall_ns >= 0

    def test_sim_time_marks(self):
        tracker = SpanTracker()
        sim = Simulator()
        sim.schedule_at(1_000, lambda: None, label="tick")
        with tracker.span("workload", sim=sim) as record:
            sim.run_until(5_000)
        assert record.start_sim_ps == 0
        assert record.end_sim_ps == 5_000
        assert record.sim_ps == 5_000

    def test_no_sim_means_no_sim_marks(self):
        tracker = SpanTracker()
        with tracker.span("a") as record:
            pass
        assert record.start_sim_ps is None
        assert record.sim_ps is None

    def test_name_is_positional_only_so_attrs_may_shadow(self):
        tracker = SpanTracker()
        with tracker.span("experiment", name="exp-3", run=3) as record:
            pass
        assert record.name == "experiment"
        assert record.attrs == {"name": "exp-3", "run": 3}

    def test_exception_marks_error_and_unwinds(self):
        tracker = SpanTracker()
        with pytest.raises(ValueError):
            with tracker.span("boom"):
                raise ValueError("x")
        assert tracker.open_depth == 0
        assert tracker.records[0].attrs["error"] == "ValueError"

    def test_find_by_name(self):
        tracker = SpanTracker()
        for _ in range(3):
            with tracker.span("experiment"):
                pass
        with tracker.span("drain"):
            pass
        assert len(tracker.find("experiment")) == 3
        assert len(tracker.find("drain")) == 1


class TestGlobalSpanHelper:
    def test_disabled_returns_shared_noop(self):
        assert STATE.spans is None
        first = span("anything", name="ignored")
        second = span("other")
        assert first is NOOP_SPAN and second is NOOP_SPAN
        with first:  # must be a usable context manager
            pass

    def test_enabled_records_into_session_tracker(self):
        with ObservationSession() as session:
            assert STATE.spans is session.spans
            with span("campaign", name="t"):
                with span("experiment", run=1):
                    pass
        assert STATE.spans is None
        paths = sorted(r.path for r in session.spans.records)
        assert paths == ["campaign", "campaign/experiment"]

    def test_noop_swallows_nothing(self):
        with pytest.raises(RuntimeError):
            with span("x"):
                raise RuntimeError("propagates")


class TestSpanRecordSerialization:
    def test_round_trip(self):
        tracker = SpanTracker()
        sim = Simulator()
        with tracker.span("experiment", sim=sim, seed=7) as record:
            pass
        data = record.to_dict()
        rebuilt = SpanRecord.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.attrs == {"seed": 7}

    def test_open_span_durations_degrade(self):
        record = SpanRecord(
            span_id=1, name="open", path="open", depth=0,
            parent_id=None, start_wall_ns=100,
        )
        assert record.wall_ns == 0
        assert record.sim_ps is None

    def test_shard_absent_from_live_sessions_but_round_trips(self):
        """The merge-time shard stamp must not change live output: no
        ``shard`` key unless one was assigned, lossless when it was."""
        tracker = SpanTracker()
        with tracker.span("experiment") as record:
            pass
        assert "shard" not in record.to_dict()
        record.shard = 3
        data = record.to_dict()
        assert data["shard"] == 3
        rebuilt = SpanRecord.from_dict(data)
        assert rebuilt.shard == 3
        assert rebuilt.to_dict() == data


class TestTelemetrySessionLifecycle:
    def test_state_restored_after_session(self):
        assert STATE.registry is None
        with ObservationSession() as session:
            assert STATE.registry is session.registry
            assert STATE.spans is session.spans
        assert STATE.registry is None
        assert STATE.spans is None

    def test_sessions_nest_and_restore_outer(self):
        with ObservationSession() as outer:
            with ObservationSession() as inner:
                assert STATE.registry is inner.registry
            assert STATE.registry is outer.registry
        assert STATE.registry is None

    def test_exception_still_restores_and_records_wall(self):
        session = ObservationSession()
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        assert STATE.registry is None
        assert session.wall_s is not None and session.wall_s >= 0

    def test_derived_session_metrics(self):
        with ObservationSession() as session:
            session.registry.counter("sim.events_fired").inc(1000)
        assert session.registry.value("sim.events_per_s") > 0
        assert session.registry.value("session.wall_s") == pytest.approx(
            session.wall_s
        )

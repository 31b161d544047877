"""Span-based wall-clock tracing.

A *span* brackets one phase of work — ``campaign → experiment →
workload → injection`` — and records both wall time (how long the host
took) and sim time (how far the picosecond clock advanced), because the
reproduction's whole performance story is the ratio between the two.

Spans nest through a stack held by the :class:`SpanTracker`; the
module-level :func:`span` helper reads the switchboard's ``spans`` slot and
degrades to a shared allocation-free no-op context manager when
telemetry is disabled, so instrumented code is branch-cheap either way::

    with span("experiment", sim=testbed.sim, run=i):
        ...

Wall-clock reads happen *only* here (and in the session bookkeeping) —
this is the one package exempt from simlint's SIM001 rule, and nothing
read from the wall clock ever flows back into sim scheduling.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.state import STATE

__all__ = ["SpanRecord", "SpanTracker", "span", "current_span_id", "NOOP_SPAN"]


@dataclass
class SpanRecord:
    """One completed (or still-open) span."""

    span_id: int
    name: str
    #: Slash-joined ancestry, e.g. ``campaign/experiment/workload``.
    path: str
    depth: int
    parent_id: Optional[int]
    start_wall_ns: int
    end_wall_ns: Optional[int] = None
    start_sim_ps: Optional[int] = None
    end_sim_ps: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Campaign-global experiment index stamped by the artifact merge;
    #: ``None`` for spans written directly by a live session.  Span ids
    #: restart per shard, so ``(shard, span_id)`` is the unique key in a
    #: merged ``spans.jsonl``.
    shard: Optional[int] = None

    @property
    def wall_ns(self) -> int:
        """Wall-clock duration (0 while the span is still open)."""
        if self.end_wall_ns is None:
            return 0
        return self.end_wall_ns - self.start_wall_ns

    @property
    def sim_ps(self) -> Optional[int]:
        """Simulated-time duration, when a simulator was attached."""
        if self.start_sim_ps is None or self.end_sim_ps is None:
            return None
        return self.end_sim_ps - self.start_sim_ps

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "span_id": self.span_id,
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "parent_id": self.parent_id,
            "start_wall_ns": self.start_wall_ns,
            "end_wall_ns": self.end_wall_ns,
            "wall_ns": self.wall_ns,
            "start_sim_ps": self.start_sim_ps,
            "end_sim_ps": self.end_sim_ps,
            "sim_ps": self.sim_ps,
            "attrs": self.attrs,
        }
        # Only merged records carry provenance; live-session spans.jsonl
        # output stays byte-identical to the pre-shard format.
        if self.shard is not None:
            out["shard"] = self.shard
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=data["span_id"],
            name=data["name"],
            path=data["path"],
            depth=data["depth"],
            parent_id=data.get("parent_id"),
            start_wall_ns=data["start_wall_ns"],
            end_wall_ns=data.get("end_wall_ns"),
            start_sim_ps=data.get("start_sim_ps"),
            end_sim_ps=data.get("end_sim_ps"),
            attrs=dict(data.get("attrs", {})),
            shard=data.get("shard"),
        )


class _ActiveSpan:
    """Context manager for one live span inside a tracker."""

    __slots__ = ("_tracker", "_record", "_sim")

    def __init__(self, tracker: "SpanTracker", record: SpanRecord, sim: Any):
        self._tracker = tracker
        self._record = record
        self._sim = sim

    def __enter__(self) -> SpanRecord:
        self._tracker._stack.append(self._record)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        record.end_wall_ns = self._tracker.now_wall_ns()
        if self._sim is not None:
            record.end_sim_ps = self._sim.now
        if exc_type is not None:
            record.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracker._stack
        if stack and stack[-1] is record:
            stack.pop()
        self._tracker.records.append(record)
        return False


class _NoopSpan:
    """Reusable zero-cost stand-in returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class SpanTracker:
    """Owns the span stack and the completed-record list for one session.

    Wall timestamps combine one epoch read (``time.time_ns`` at
    construction) with the monotonic ``perf_counter_ns`` delta, so they
    are absolute *and* monotonic — what the Chrome trace exporter needs.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._epoch_ns = time.time_ns()
        self._perf0_ns = time.perf_counter_ns()

    def now_wall_ns(self) -> int:
        """Absolute monotonic wall-clock timestamp in nanoseconds."""
        return self._epoch_ns + (time.perf_counter_ns() - self._perf0_ns)

    def span(self, name: str, /, sim: Any = None, **attrs: Any) -> _ActiveSpan:
        """Open a nested span; ``sim`` (a Simulator) adds sim-time marks.

        ``name`` is positional-only so ``attrs`` may freely contain a
        ``name`` key (e.g. ``span("experiment", name=experiment.name)``).
        """
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=next(self._ids),
            name=name,
            path=f"{parent.path}/{name}" if parent else name,
            depth=len(self._stack),
            parent_id=parent.span_id if parent else None,
            start_wall_ns=self.now_wall_ns(),
            start_sim_ps=None if sim is None else sim.now,
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, record, sim)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def find(self, name: str) -> List[SpanRecord]:
        """Completed spans with the given name."""
        return [r for r in self.records if r.name == name]

    def current(self) -> Optional[SpanRecord]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None


def span(name: str, /, sim: Any = None, **attrs: Any):
    """Open a span on the active session's tracker, or a no-op.

    This is the instrumentation entry point: safe to call from anywhere
    at any time; it costs one attribute read when telemetry is off.
    """
    spans = STATE.spans
    if spans is None:
        return NOOP_SPAN
    return spans.span(name, sim=sim, **attrs)


def current_span_id() -> Optional[int]:
    """Span id of the innermost open span, or None.

    Used by the capture subsystem to stamp experiment markers with the
    ``experiment`` span they ran under, joining ``capture.rcap`` records
    to ``spans.jsonl`` offline.  Costs one attribute read when telemetry
    is off.
    """
    spans = STATE.spans
    if spans is None:
        return None
    record = spans.current()
    return None if record is None else record.span_id

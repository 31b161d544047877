"""The discrete-event simulation kernel.

A :class:`Simulator` owns an integer picosecond clock and a binary-heap
event queue.  Events scheduled for the same instant fire in the order they
were scheduled (a monotonically increasing sequence number breaks ties), so
simulations are fully deterministic for a given seed.

Cancelling an event only flags it; the heap skips flagged entries when
they reach its head.  Long timeouts that are almost always cancelled
(a switch arms one per frame, 50 ms out) would otherwise pile up far
from the head and deepen every push and pop, so the heap is rebuilt
without its cancelled entries once they outnumber the live ones — the
rule ``asyncio`` applies to its timer heap.  Pop order is fixed by the
unique ``(time, seq)`` keys, so a rebuild never changes it.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.timebase import format_time
from repro.telemetry import instrument as _telemetry
from repro.telemetry.state import STATE as _TELEMETRY_STATE

#: Heap length below which cancelled entries are left for the pops to
#: skip; from it on the heap is compacted whenever they outnumber live
#: ones, so it never grows past ``max(COMPACT_FLOOR, 2 * pending)``.
COMPACT_FLOOR = 256


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE=1`` asks for kernel invariant checks.

    The determinism sanitizer (:mod:`repro.analysis.sanitize`) sets this
    to turn on per-event assertions: integral timestamps, monotonic
    ``(time, seq)`` pop order, and callable callbacks.  The checks cost
    a few percent, so they stay off in normal runs.
    """
    return os.environ.get("REPRO_SANITIZE", "") == "1"


class Event:
    """A scheduled callback.

    The heap stores ``(time, seq, event)`` tuples, so events pop in
    deterministic order without ever comparing Event objects.
    ``cancelled`` events stay in the heap but are skipped when popped
    (or dropped by a compaction); this makes cancellation O(1)
    amortized.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        #: The simulator whose heap holds this event; ``None`` once it
        #: has fired or been cancelled (or if no simulator queued it).
        self._sim: Optional[Simulator] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._dead += 1
            sim._maybe_compact()

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )


class Simulator:
    """Deterministic discrete-event scheduler with a picosecond clock."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Event]] = []
        #: Cancelled entries still in ``_queue``.
        self._dead = 0
        self._fired = 0
        self._running = False
        self._tracer: Optional[Callable[[Event], None]] = None
        self._sanitize = sanitize_enabled()
        self._last_fired: Tuple[int, int] = (-1, -1)

    def attach_tracer(self, tracer: Optional[Callable[[Event], None]]) -> None:
        """Install a per-event hook called as each event fires.

        The determinism sanitizer uses this to fold every fired event
        into a digest; ``None`` detaches.  The hook fires *before* the
        event's callback so divergence is pinned to the first
        out-of-order event, not its consequences.  A running batch keeps
        the hook it started with.
        """
        self._tracer = tracer

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of live events still queued (cancelled ones excluded)."""
        return len(self._queue) - self._dead

    def schedule(
        self, delay: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` picoseconds from now.

        Returns the :class:`Event`, which the caller may ``cancel()``.
        A negative delay is an error; a zero delay fires on the next
        scheduler step, after all previously scheduled same-time events.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event {delay}ps in the past at "
                f"t={format_time(self._now)}"
            )
        # The push is inlined here and in schedule_at: this is the
        # simulator's most frequent call.  A push never adds a cancelled
        # entry, so only the one that brings the heap up to the floor
        # (cancelled entries may have piled up below it) needs a check.
        time = self._now + delay
        if self._sanitize:
            self._check_schedule(time, callback)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label)
        event._sim = self
        queue = self._queue
        heappush(queue, (time, seq, event))
        if len(queue) == COMPACT_FLOOR:
            self._maybe_compact()
        return event

    def schedule_at(
        self, time: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={format_time(time)}, "
                f"already at t={format_time(self._now)}"
            )
        if self._sanitize:
            self._check_schedule(time, callback)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, label)
        event._sim = self
        queue = self._queue
        heappush(queue, (time, seq, event))
        if len(queue) == COMPACT_FLOOR:
            self._maybe_compact()
        return event

    def _check_schedule(self, time: int, callback: Callable[[], None]) -> None:
        """Scheduling invariants enforced under ``REPRO_SANITIZE=1``."""
        if isinstance(time, bool) or not isinstance(time, int):
            raise SimulationError(
                f"sanitize: non-integer event time {time!r}; the "
                "picosecond clock is integer-only (see SIM003)"
            )
        if not callable(callback):
            raise SimulationError(
                f"sanitize: event callback {callback!r} is not callable"
            )

    def _maybe_compact(self) -> None:
        """Rebuild the heap without its cancelled entries once they
        outnumber the live ones (and the heap has reached the floor).

        Every rebuild removes at least half the heap, each entry of it
        cancelled once, so the cost is O(1) amortized per cancel.
        """
        queue = self._queue
        if len(queue) >= COMPACT_FLOOR and 2 * self._dead > len(queue):
            # In place: a running drain loop holds this very list.
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapify(queue)
            self._dead = 0

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (cancelled events are discarded silently and do not count).
        """
        return self._drain(None, 1) == 1

    def _check_pop_invariants(self, event: Event) -> None:
        """Event-queue invariants enforced under ``REPRO_SANITIZE=1``."""
        if event.time < self._now:
            raise SimulationError(
                f"sanitize: event '{event.label}' fires at "
                f"t={format_time(event.time)}, before the clock at "
                f"t={format_time(self._now)} — heap order violated"
            )
        key = (event.time, event.seq)
        if key <= self._last_fired:
            raise SimulationError(
                f"sanitize: event '{event.label}' pops out of order: "
                f"(time, seq)={key} after {self._last_fired}"
            )
        self._last_fired = key

    def _drain(self, deadline: Optional[int], max_events: Optional[int]) -> int:
        """The kernel's one drain loop, behind :meth:`batch_advance` and
        :meth:`step`.

        Pops live events in ``(time, seq)`` order and fires them until
        the queue empties, the next one lies past ``deadline``
        (inclusive) or ``max_events`` have fired.  The sanitize flag and
        the tracer are read once per call.  Returns the number fired.
        """
        queue = self._queue
        sanitize = self._sanitize
        tracer = self._tracer
        budget = -1 if max_events is None else max(max_events, 0)
        fired = 0
        while queue and fired != budget:
            entry = heappop(queue)
            time, _seq, event = entry
            if event.cancelled:
                self._dead -= 1
                continue
            if deadline is not None and time > deadline:
                heappush(queue, entry)
                break
            event._sim = None
            if sanitize:
                self._check_pop_invariants(event)
            self._now = time
            self._fired += 1
            if tracer is not None:
                tracer(event)
            event.callback()
            fired += 1
        self._maybe_compact()
        return fired

    def batch_advance(
        self,
        deadline: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Fire queued events in one inlined drain loop.

        The batch-advance primitive behind :meth:`run` and
        :meth:`run_until`: identical pop order, sanitize invariants and
        tracer placement as per-event :meth:`step` calls, but without a
        Python method call per event — the heap pop, clock advance and
        callback dispatch are fused into a single frame.  ``deadline``
        (inclusive) bounds simulated time and advances the clock to it;
        ``max_events`` bounds the number of events fired.

        Returns the number of events executed by this call.
        """
        fired = self._drain(deadline, max_events)
        if deadline is not None and deadline > self._now:
            self._now = deadline
        # Telemetry accounting happens per *batch*, never per event, so
        # the kernel's hot loop stays untouched; one slot read when off.
        if _TELEMETRY_STATE.active:
            _telemetry.kernel_run(self, fired)
        return fired

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        return self.batch_advance(max_events=max_events)

    def run_until(self, deadline: int) -> int:
        """Run all events with ``time <= deadline``; advance clock to it.

        Events scheduled beyond the deadline remain queued.  Returns the
        number of events executed.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline t={format_time(deadline)} is before "
                f"t={format_time(self._now)}"
            )
        return self.batch_advance(deadline=deadline)

    def run_for(self, duration: int) -> int:
        """Run events for ``duration`` picoseconds of simulated time."""
        return self.run_until(self._now + duration)

    def _peek(self) -> Optional[Event]:
        """Return the next live event without popping it."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if head.cancelled:
                heappop(queue)
                self._dead -= 1
                continue
            return head
        return None

    def next_event_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        head = self._peek()
        return None if head is None else head.time

    def every(
        self,
        period: int,
        callback: Callable[[], None],
        label: str = "",
        start_delay: Optional[int] = None,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``period`` picoseconds until stopped.

        ``start_delay`` defaults to one full period.
        """
        if period <= 0:
            raise SimulationError(f"periodic task needs period > 0, got {period}")
        task = PeriodicTask(self, period, callback, label)
        task.start(period if start_delay is None else start_delay)
        return task


class PeriodicTask:
    """A repeating event created by :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        period: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self._sim = sim
        self._period = period
        self._callback = callback
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False
        self.fire_count = 0

    def start(self, delay: int) -> None:
        """(Re)arm the task to first fire ``delay`` picoseconds from now."""
        self._stopped = False
        self._event = self._sim.schedule(delay, self._fire, self._label)

    def stop(self) -> None:
        """Stop the task; the pending occurrence is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback()
        if not self._stopped:
            self._event = self._sim.schedule(self._period, self._fire, self._label)

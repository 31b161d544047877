"""The kernel's event order against a sorted-list reference model.

Random interleavings of ``schedule``/``schedule_at``, cancels (from
outside, from inside callbacks, and of events that already fired),
``run_until`` deadlines, ``max_events`` and ``step()`` must fire the same
``(time, seq, label)`` stream as a naive kernel that keeps every event
in a list and always fires the smallest live ``(time, seq)``; the clock,
``events_fired`` and ``pending`` must agree after every operation.  The
heap must also stay compact: cancelled entries may never make it longer
than ``max(COMPACT_FLOOR, 2 * live)``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.kernel import COMPACT_FLOOR

#: Far enough out that a re-armed timeout outlives every short event.
LONG_TIMEOUT = 10_000


class _RefEvent:
    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 label: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.live = True

    def cancel(self) -> None:
        self.live = False


class _ReferenceKernel:
    """Every event in one list; fire the smallest live ``(time, seq)``."""

    def __init__(self) -> None:
        self.now = 0
        self.events_fired = 0
        self._seq = 0
        self._events: List[_RefEvent] = []

    @property
    def pending(self) -> int:
        return sum(event.live for event in self._events)

    def schedule(self, delay: int, callback, label: str = "") -> _RefEvent:
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_at(self, time: int, callback, label: str = "") -> _RefEvent:
        event = _RefEvent(time, self._seq, callback, label)
        self._seq += 1
        self._events.append(event)
        return event

    def _drain(self, deadline: Optional[int], max_events: Optional[int]) -> int:
        fired = 0
        while max_events is None or fired < max_events:
            live = [event for event in self._events if event.live]
            if not live:
                break
            head = min(live, key=lambda event: (event.time, event.seq))
            if deadline is not None and head.time > deadline:
                break
            head.live = False
            self.now = head.time
            self.events_fired += 1
            fired += 1
            head.callback()
        return fired

    def step(self) -> bool:
        return self._drain(None, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        return self._drain(None, max_events)

    def run_until(self, deadline: int) -> int:
        fired = self._drain(deadline, None)
        self.now = max(self.now, deadline)
        return fired


actions = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("spawn"), st.integers(0, 40)),
)
operations = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 60), actions),
    st.tuples(st.just("schedule_at"), st.integers(0, 60), actions),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("rearm"), st.integers(1, 700)),
    st.tuples(st.just("run_until"), st.integers(0, 80)),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 6))),
    st.tuples(st.just("step"), st.none()),
)


def _play(kernel, program, after_each=None):
    """Run ``program`` on ``kernel``; return what fired and the
    ``(now, events_fired, pending)`` state after every operation."""
    fired = []
    handles = []
    timeout = []

    def make_callback(index: int, action):
        def callback() -> None:
            event = handles[index]
            fired.append((kernel.now, event.seq, event.label))
            if action is None:
                return
            kind, value = action
            if kind == "cancel":
                handles[value % len(handles)].cancel()
            else:
                add(kernel.schedule, value, None, "spawned")
        return callback

    def add(method, when, action, label):
        index = len(handles)
        handles.append(None)
        handles[index] = method(when, make_callback(index, action), label)
        return handles[index]

    states = []
    for kind, value, *rest in program:
        if kind == "schedule":
            add(kernel.schedule, value, rest[0], f"e{len(handles)}")
        elif kind == "schedule_at":
            add(kernel.schedule_at, kernel.now + value, rest[0],
                f"e{len(handles)}")
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif kind == "rearm":
            # The switch's pattern: each frame cancels the previous
            # long timeout and arms a fresh one.
            for _ in range(value):
                if timeout:
                    timeout.pop().cancel()
                timeout.append(add(kernel.schedule, LONG_TIMEOUT, None,
                                   "long-timeout"))
        elif kind == "run_until":
            kernel.run_until(kernel.now + value)
        elif kind == "run":
            kernel.run(max_events=value)
        else:
            kernel.step()
        states.append((kernel.now, kernel.events_fired, kernel.pending))
        if after_each is not None:
            after_each()
    return fired, states


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, max_size=40))
# Cancelled entries piled up below the floor, then plain pushes carry
# the heap across it.
@example([("rearm", 253)] + [("schedule", 0, None)] * 4)
def test_kernel_fires_like_the_sorted_list_model(program):
    sim = Simulator()
    bounds = []

    def heap_is_compact() -> None:
        bounds.append(len(sim._queue) <= max(COMPACT_FLOOR, 2 * sim.pending))

    fired, states = _play(sim, program, heap_is_compact)
    expected_fired, expected_states = _play(_ReferenceKernel(), program)
    assert fired == expected_fired
    assert states == expected_states
    assert all(bounds)


def test_rearmed_timeouts_leave_a_compact_heap():
    """Thousands of cancelled long timeouts, one live: the heap is
    rebuilt rather than left thousands of entries deep."""
    sim = Simulator()
    event = None
    for _ in range(5_000):
        if event is not None:
            event.cancel()
        event = sim.schedule(LONG_TIMEOUT, lambda: None, "long-timeout")
        assert len(sim._queue) <= max(COMPACT_FLOOR, 2 * sim.pending)
    assert sim.pending == 1
    assert sim.run() == 1

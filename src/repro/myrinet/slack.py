"""Slack buffers (paper Figure 9).

A slack buffer absorbs the symbols that are in flight between the moment a
receiver signals STOP and the moment the sender actually stops.  Crossing
the high-water mark raises backpressure; draining below the low-water mark
releases it; exceeding capacity *drops symbols*, which is the mechanical
origin of the buffer-overflow packet losses in the paper's control-symbol
campaign (§4.3.1).

Two drain models are provided:

* :class:`LaneSlackBuffer` — value and D/C flag lanes drained explicitly
  by their consumer (every switch input port holds one; the drain rate
  is set by the output link);
* :class:`RateDrainedSlackBuffer` — occupancy decays continuously at a
  fixed drain rate (host interfaces, where the drain is the I/O bus DMA).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.kernel import Event, Simulator

#: Default slack capacity in symbols.  Real Myrinet slack buffers are
#: sized to cover twice the round trip of the longest cable; the chunked
#: link transport (symbols arrive in bursts of up to a flush quantum)
#: needs several quanta of headroom above the high-water mark so that
#: bursts already committed to the wire never overrun the buffer before
#: a STOP can take effect.
DEFAULT_CAPACITY = 1024
#: Default high-water mark.
DEFAULT_HIGH_WATER = 512
#: Default low-water mark.
DEFAULT_LOW_WATER = 192


class _WatermarkMixin:
    """Shared watermark bookkeeping and backpressure callback plumbing."""

    def _init_watermarks(
        self,
        capacity: int,
        high_water: int,
        low_water: int,
        on_backpressure: Optional[Callable[[bool], None]],
    ) -> None:
        if not 0 <= low_water < high_water <= capacity:
            raise ConfigurationError(
                f"need 0 <= low({low_water}) < high({high_water}) <= "
                f"capacity({capacity})"
            )
        self.capacity = capacity
        self.high_water = high_water
        self.low_water = low_water
        self.on_backpressure = on_backpressure
        self._pressured = False
        self.symbols_dropped = 0
        self.overflow_events = 0
        self.stop_crossings = 0
        self.go_crossings = 0

    def check_watermarks(self, occupancy: int) -> None:
        """Raise or release backpressure for ``occupancy`` symbols.

        ``occupancy`` is what the consumer charges to this input, which
        may exceed the buffer's own contents (a switch adds the claimed
        output's outbox).
        """
        if not self._pressured and occupancy >= self.high_water:
            self._pressured = True
            self.stop_crossings += 1
            if self.on_backpressure is not None:
                self.on_backpressure(True)
        elif self._pressured and occupancy <= self.low_water:
            self._pressured = False
            self.go_crossings += 1
            if self.on_backpressure is not None:
                self.on_backpressure(False)

    @property
    def pressured(self) -> bool:
        """True while the buffer is asserting backpressure."""
        return self._pressured


class LaneSlackBuffer(_WatermarkMixin):
    """A slack buffer of value and D/C flag lanes, drained by its consumer.

    The lanes are public so a consumer on a hot path can park a run as
    one slice of each; :meth:`push` is the same operation for one run.
    Watermarks are checked only when the consumer calls
    :meth:`check_watermarks` with the occupancy it charges.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        high_water: int = DEFAULT_HIGH_WATER,
        low_water: int = DEFAULT_LOW_WATER,
        on_backpressure: Optional[Callable[[bool], None]] = None,
    ) -> None:
        self._init_watermarks(capacity, high_water, low_water, on_backpressure)
        self.values = bytearray()
        self.flags = bytearray()

    def push(self, values: bytes, flags: bytes) -> int:
        """Park a run in order; return how many symbols fit.

        Symbols past ``capacity`` are dropped and counted.
        """
        keep = min(len(values), self.capacity - len(self.values))
        self.values += values[:keep]
        self.flags += flags[:keep]
        if keep < len(values):
            self.symbols_dropped += len(values) - keep
            self.overflow_events += 1
        return keep

    def take(self) -> Tuple[bytes, bytes]:
        """Empty the buffer, returning its value and flag lanes."""
        values, flags = bytes(self.values), bytes(self.flags)
        del self.values[:], self.flags[:]
        return values, flags

    @property
    def occupancy(self) -> int:
        return len(self.values)


class RateDrainedSlackBuffer(_WatermarkMixin):
    """A slack buffer whose occupancy decays at a constant drain rate.

    The drain is evaluated lazily: occupancy is brought up to date
    whenever symbols arrive, and a release event is scheduled to clear
    backpressure once the drain is projected to cross the low-water mark.
    Overflowing pushes report how many symbols had to be dropped; the
    caller decides *which* symbols those are (dropping from the tail of
    an arriving burst loses data and GAP symbols alike, which is what
    corrupts frames during overload).
    """

    def __init__(
        self,
        sim: Simulator,
        drain_period_ps: int,
        capacity: int = DEFAULT_CAPACITY,
        high_water: int = DEFAULT_HIGH_WATER,
        low_water: int = DEFAULT_LOW_WATER,
        on_backpressure: Optional[Callable[[bool], None]] = None,
    ) -> None:
        if drain_period_ps <= 0:
            raise ConfigurationError("drain period must be positive")
        self._init_watermarks(capacity, high_water, low_water, on_backpressure)
        self._sim = sim
        self._drain_period_ps = drain_period_ps
        self._occupancy = 0.0
        self._last_update = 0
        self._release_event: Optional[Event] = None

    @property
    def drain_period_ps(self) -> int:
        """Picoseconds to drain one symbol."""
        return self._drain_period_ps

    def _settle(self) -> None:
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._occupancy = max(
                0.0, self._occupancy - elapsed / self._drain_period_ps
            )
            self._last_update = now

    def push_burst(self, count: int) -> int:
        """Account for ``count`` arriving symbols; return how many fit.

        The return value may be less than ``count`` when the buffer
        overflows; the caller must drop the excess symbols.
        """
        self._settle()
        room = self.capacity - self._occupancy
        accepted = min(count, max(0, int(room)))
        dropped = count - accepted
        self._occupancy += accepted
        if dropped:
            self.symbols_dropped += dropped
            self.overflow_events += 1
        self.check_watermarks(int(self._occupancy))
        if self._pressured:
            self._schedule_release()
        return accepted

    @property
    def occupancy(self) -> float:
        self._settle()
        return self._occupancy

    def _schedule_release(self) -> None:
        if self._release_event is not None:
            self._release_event.cancel()
        surplus = self._occupancy - self.low_water
        if surplus <= 0:
            return
        delay = int(surplus * self._drain_period_ps) + 1
        self._release_event = self._sim.schedule(
            delay, self._release_check, label="slack-release"
        )

    def _release_check(self) -> None:
        self._release_event = None
        self._settle()
        self.check_watermarks(int(self._occupancy))
        if self._pressured:
            self._schedule_release()

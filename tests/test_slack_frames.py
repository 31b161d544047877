"""Unit tests for slack buffers (Figure 9) and frame assembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.myrinet.frames import FrameAssembler
from repro.myrinet.slack import LaneSlackBuffer, RateDrainedSlackBuffer
from repro.myrinet.symbols import (
    GAP, GO, IDLE, STOP, Burst, control_symbol, data_symbol,
)
from tests.fixtures.frames_prechange import PerSymbolFrameAssembler


def park(buffer, *values):
    """Push one data symbol per value, then charge the buffer's own
    occupancy to the watermarks (a consumer with no outbox)."""
    for value in values:
        buffer.push(bytes((value,)), b"\x01")
        buffer.check_watermarks(buffer.occupancy)


def drain(buffer, until):
    """Take the buffer's lanes and drain them one symbol at a time,
    charging the remaining backlog, until ``until(backlog)`` holds."""
    backlog = len(buffer.take()[0])
    while not until(backlog):
        backlog -= 1
        buffer.check_watermarks(backlog)


class TestLaneSlackBuffer:
    def test_watermark_callbacks(self):
        events = []
        buffer = LaneSlackBuffer(capacity=10, high_water=6, low_water=2,
                                 on_backpressure=events.append)
        park(buffer, *range(6))
        assert events == [True]
        assert buffer.pressured
        drain(buffer, until=lambda backlog: backlog <= 2)
        assert events == [True, False]
        assert not buffer.pressured

    def test_overflow_drops(self):
        buffer = LaneSlackBuffer(capacity=4, high_water=3, low_water=1)
        park(buffer, *range(6))
        assert buffer.occupancy == 4
        assert buffer.symbols_dropped == 2
        assert buffer.overflow_events == 2

    def test_fifo_order(self):
        buffer = LaneSlackBuffer(capacity=8, high_water=6, low_water=2)
        park(buffer, *range(5))
        assert list(buffer.take()[0]) == [0, 1, 2, 3, 4]
        assert buffer.occupancy == 0

    def test_watermark_validation(self):
        with pytest.raises(ConfigurationError):
            LaneSlackBuffer(capacity=4, high_water=5, low_water=1)
        with pytest.raises(ConfigurationError):
            LaneSlackBuffer(capacity=8, high_water=2, low_water=3)

    def test_crossing_counters(self):
        buffer = LaneSlackBuffer(capacity=10, high_water=4, low_water=2)
        for _cycle in range(3):
            park(buffer, 0, 0, 0, 0)
            drain(buffer, until=lambda backlog: backlog == 0)
        assert buffer.stop_crossings == 3
        assert buffer.go_crossings == 3

    def test_run_push_keeps_lanes_and_drops_the_tail(self):
        buffer = LaneSlackBuffer(capacity=5, high_water=4, low_water=1)
        assert buffer.push(b"\x01\x02\x0c", b"\x01\x01\x00") == 3
        assert buffer.push(b"\x03\x04\x05", b"\x01\x01\x01") == 2
        assert buffer.take() == (b"\x01\x02\x0c\x03\x04",
                                 b"\x01\x01\x00\x01\x01")
        assert (buffer.symbols_dropped, buffer.overflow_events) == (1, 1)


class TestRateDrainedSlackBuffer:
    def test_occupancy_drains_over_time(self, sim):
        buffer = RateDrainedSlackBuffer(sim, drain_period_ps=100,
                                        capacity=100, high_water=50,
                                        low_water=10)
        buffer.push_burst(40)
        assert buffer.occupancy == pytest.approx(40)
        sim.run_for(2000)  # drains 20 symbols
        assert buffer.occupancy == pytest.approx(20, abs=1)

    def test_overflow_reports_drop_count(self, sim):
        buffer = RateDrainedSlackBuffer(sim, drain_period_ps=100,
                                        capacity=50, high_water=30,
                                        low_water=10)
        accepted = buffer.push_burst(80)
        assert accepted == 50
        assert buffer.symbols_dropped == 30

    def test_backpressure_release_is_scheduled(self, sim):
        events = []
        buffer = RateDrainedSlackBuffer(sim, drain_period_ps=100,
                                        capacity=100, high_water=40,
                                        low_water=10,
                                        on_backpressure=events.append)
        buffer.push_burst(60)
        assert events == [True]
        sim.run()  # the scheduled release check fires after draining
        assert events == [True, False]
        assert not buffer.pressured

    def test_invalid_drain_period(self, sim):
        with pytest.raises(ConfigurationError):
            RateDrainedSlackBuffer(sim, drain_period_ps=0)


class TestFrameAssembler:
    def _assembler(self, max_frame=64, cls=FrameAssembler):
        frames = []
        controls = []
        assembler = cls(frames.append, controls.append, max_frame=max_frame)
        return assembler, frames, controls

    @staticmethod
    def _push(assembler, symbols):
        assembler.push_burst(Burst.from_symbols(symbols))

    def test_frames_split_on_gap(self):
        assembler, frames, _ = self._assembler()
        self._push(assembler, [data_symbol(byte) for byte in b"abc"])
        self._push(assembler, [GAP])
        self._push(assembler, [data_symbol(byte) for byte in b"de"])
        self._push(assembler, [GAP])
        assert frames == [b"abc", b"de"]
        assert assembler.frames_emitted == 2

    def test_multiple_gaps_between_packets(self):
        """Paper: any positive number of GAPs may separate packets."""
        assembler, frames, _ = self._assembler()
        self._push(assembler, [data_symbol(1), GAP, GAP, GAP,
                               data_symbol(2), GAP])
        assert frames == [b"\x01", b"\x02"]

    def test_control_symbols_do_not_break_frames(self):
        """Paper Fig. 8: control symbols interleave with packet data."""
        assembler, frames, controls = self._assembler()
        self._push(assembler, [
            data_symbol(1), STOP, data_symbol(2), GO, data_symbol(3), GAP,
        ])
        assert frames == [b"\x01\x02\x03"]
        assert controls == [STOP, GO]

    def test_idle_ignored(self):
        assembler, frames, controls = self._assembler()
        self._push(assembler, [IDLE, data_symbol(9), IDLE, GAP])
        assert frames == [b"\x09"]
        assert controls == []

    def test_undecodable_control_dropped_and_counted(self):
        assembler, frames, _ = self._assembler()
        self._push(assembler, [data_symbol(1), control_symbol(0xFF), GAP])
        assert frames == [b"\x01"]
        assert assembler.undecodable_controls == 1

    def test_oversize_frame_discarded(self):
        assembler, frames, _ = self._assembler(max_frame=4)
        self._push(assembler, [data_symbol(0)] * 10 + [GAP])
        assert frames == []
        assert assembler.oversize_frames == 1
        # The assembler recovers for the next frame.
        self._push(assembler, [data_symbol(1), GAP])
        assert frames == [b"\x01"]

    def test_partial_length_and_reset(self):
        assembler, frames, _ = self._assembler()
        self._push(assembler, [data_symbol(1), data_symbol(2)])
        assert assembler.partial_length == 2
        assembler.reset()
        self._push(assembler, [GAP])
        assert frames == []

    def test_fused_burst_equals_per_symbol(self):
        stream = ([data_symbol(b) for b in b"hello"] + [STOP, GAP]
                  + [data_symbol(b) for b in b"world"] + [GO]
                  + [control_symbol(0xAA), GAP, IDLE])
        a1, f1, c1 = self._assembler()
        a2, f2, c2 = self._assembler(cls=PerSymbolFrameAssembler)
        a1.push_burst(Burst.from_symbols(stream))
        for symbol in stream:
            a2.push(symbol)
        assert f1 == f2
        assert c1 == c2
        assert a1.undecodable_controls == a2.undecodable_controls

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(
            st.one_of(
                st.integers(0, 255).map(data_symbol),
                st.sampled_from([GAP, STOP, GO, IDLE, control_symbol(0x08),
                                 control_symbol(0x55)]),
            ),
            max_size=80,
        ),
        cuts=st.lists(st.integers(0, 80), max_size=5),
        max_frame=st.integers(1, 12),
    )
    def test_run_batched_burst_equals_per_symbol(self, stream, cuts,
                                                 max_frame):
        """Data runs straddling the ``max_frame`` limit and the burst
        boundaries overflow exactly where per-symbol pushes do."""
        a1, f1, c1 = self._assembler(max_frame)
        a2, f2, c2 = self._assembler(max_frame, PerSymbolFrameAssembler)
        bounds = [0] + sorted(min(cut, len(stream)) for cut in cuts)
        for start, end in zip(bounds, bounds[1:] + [len(stream)]):
            a1.push_burst(Burst.from_symbols(stream[start:end]))
        for symbol in stream:
            a2.push(symbol)
        assert (f1, c1) == (f2, c2)
        for name in ("frames_emitted", "oversize_frames",
                     "undecodable_controls", "partial_length"):
            assert getattr(a1, name) == getattr(a2, name), name

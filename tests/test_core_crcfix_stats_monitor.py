"""Unit tests for the CRC fix-up stage, statistics, and monitoring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crcfix import CrcFixupStage
from repro.core.monitor import InjectionMonitor, MonitorConfig
from repro.core.stats import StatisticsGatherer
from repro.hw.injector import InjectionEvent
from repro.hw.sdram import SdramBuffer
from repro.myrinet.addresses import MacAddress
from repro.myrinet.crc8 import crc8, crc8_update
from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA
from repro.myrinet.symbols import (
    GAP, GO, IDLE, STOP, Burst, control_symbol, data_symbol, data_symbols,
    decode_control, symbol_bytes,
)


def frame_symbols(raw: bytes):
    burst = data_symbols(raw)
    burst.append(GAP)
    return burst


def frame_burst(raw: bytes):
    return Burst.from_symbols(frame_symbols(raw))


def feed(stage, symbols, enabled, rewrites=()):
    """Run a symbol list through a CRC fix-up stage; symbols out.

    ``rewrites`` are the burst-relative positions an injector rewrote.
    """
    return stage.feed(Burst.from_symbols(symbols), enabled,
                      rewrites).symbols()


def make_packet(payload=b"payload", dst=0x0B, src=0x0A):
    return MyrinetPacket(
        route=[], packet_type=PACKET_TYPE_DATA,
        payload=MacAddress(dst).to_bytes() + MacAddress(src).to_bytes()
        + payload,
    )


class TestCrcFixupStage:
    def test_clean_frame_passes_byte_identical(self):
        stage = CrcFixupStage()
        burst = frame_symbols(make_packet().to_bytes())
        out = feed(stage, burst, True)
        assert out == burst
        assert stage.frames_passed == 1
        assert stage.frames_fixed == 0

    def test_dirty_frame_gets_recomputed_crc(self):
        stage = CrcFixupStage()
        raw = bytearray(make_packet().to_bytes())
        raw[6] ^= 0xFF  # corrupted mid-frame, CRC now stale
        out = feed(stage, frame_symbols(bytes(raw)), True, rewrites=[6])
        fixed = symbol_bytes(out)
        assert crc8(fixed) == 0  # CRC recomputed over the corrupted body
        assert fixed[6] == raw[6]
        assert stage.frames_fixed == 1

    def test_disabled_stage_does_not_launder_corruption(self):
        stage = CrcFixupStage()
        raw = bytearray(make_packet().to_bytes())
        raw[6] ^= 0xFF
        out = feed(stage, frame_symbols(bytes(raw)), False)
        assert crc8(symbol_bytes(out)) != 0

    def test_upstream_corruption_not_fixed_when_frame_clean_of_injections(self):
        """Only frames the injector actually touched are repaired."""
        stage = CrcFixupStage()
        raw = bytearray(make_packet().to_bytes())
        raw[6] ^= 0xFF  # upstream corruption, no injection event
        out = feed(stage, frame_symbols(bytes(raw)), True, rewrites=())
        assert crc8(symbol_bytes(out)) != 0

    def test_control_symbols_pass_through(self):
        stage = CrcFixupStage()
        raw = make_packet().to_bytes()
        burst = data_symbols(raw[:3]) + [STOP] + data_symbols(raw[3:]) + [GO, GAP]
        out = feed(stage, burst, True)
        assert STOP in out and GO in out
        assert symbol_bytes(out) == raw

    def test_frame_spanning_bursts(self):
        stage = CrcFixupStage()
        raw = bytearray(make_packet().to_bytes())
        raw[3] ^= 0x10  # rewritten in the first burst, CRC in the second
        symbols = frame_symbols(bytes(raw))
        out = []
        out.extend(feed(stage, symbols[:5], True, rewrites=[3]))
        out.extend(feed(stage, symbols[5:], True))
        assert crc8(symbol_bytes(out)) == 0

    def test_flush_releases_held_symbol(self):
        stage = CrcFixupStage()
        feed(stage, data_symbols(b"ab"), True)
        held = stage.flush().symbols()
        assert symbol_bytes(held) == b"b"
        assert stage.idle

    def test_two_frames_second_clean(self):
        stage = CrcFixupStage()
        dirty_raw = bytearray(make_packet(b"one").to_bytes())
        dirty_raw[6] ^= 0x01
        clean_raw = make_packet(b"two").to_bytes()
        burst = frame_symbols(bytes(dirty_raw)) + frame_symbols(clean_raw)
        out = feed(stage, burst, True, rewrites=[6])
        data = symbol_bytes(out)
        first, second = data[:len(dirty_raw)], data[len(dirty_raw):]
        assert crc8(first) == 0      # fixed
        assert second == clean_raw   # untouched


class TestStatisticsGatherer:
    def test_counts_symbols_and_controls(self):
        gatherer = StatisticsGatherer()
        gatherer.feed(
            Burst.from_symbols([STOP, GO, GAP] + data_symbols(b"abc")))
        stats = gatherer.stats
        assert stats.symbols == 6
        assert stats.data_symbols == 3
        assert stats.control_symbols["STOP"] == 1
        assert stats.control_symbols["GO"] == 1

    def test_per_pair_packet_counters(self):
        """Paper §3.2: counters incremented for each packet seen with
        given source/destination identifiers."""
        gatherer = StatisticsGatherer()
        for _repeat in range(3):
            gatherer.feed(frame_burst(make_packet().to_bytes()))
        gatherer.feed(frame_burst(make_packet(dst=0x0C).to_bytes()))
        stats = gatherer.stats
        assert stats.frames == 4
        assert stats.pair_count(MacAddress(0x0A), MacAddress(0x0B)) == 3
        assert stats.pair_count(MacAddress(0x0A), MacAddress(0x0C)) == 1

    def test_route_prefix_skipped(self):
        gatherer = StatisticsGatherer()
        packet = MyrinetPacket.for_route(
            [3], PACKET_TYPE_DATA,
            MacAddress(2).to_bytes() + MacAddress(1).to_bytes() + b"x",
        )
        gatherer.feed(frame_burst(packet.to_bytes()))
        assert gatherer.stats.pair_count(MacAddress(1), MacAddress(2)) == 1

    def test_bad_crc_counted(self):
        gatherer = StatisticsGatherer()
        raw = bytearray(make_packet().to_bytes())
        raw[-1] ^= 0xFF
        gatherer.feed(frame_burst(bytes(raw)))
        assert gatherer.stats.crc_bad_frames == 1

    def test_packet_type_histogram(self):
        gatherer = StatisticsGatherer()
        gatherer.feed(frame_burst(make_packet().to_bytes()))
        mapping = MyrinetPacket(route=[], packet_type=0x0005, payload=b"s")
        gatherer.feed(frame_burst(mapping.to_bytes()))
        assert gatherer.stats.packet_types[0x0004] == 1
        assert gatherer.stats.packet_types[0x0005] == 1

    def test_reset(self):
        gatherer = StatisticsGatherer()
        gatherer.feed(frame_burst(make_packet().to_bytes()))
        gatherer.reset()
        assert gatherer.stats.frames == 0


def _event():
    return InjectionEvent(
        segment_index=10, window_before=0x11223344, ctl_before=0xF,
        window_after=0x11FF3344, ctl_after=0xF, lanes_rewritten=1,
        lanes_unreachable=0, forced=False,
    )


class TestCaptureRecord:
    def test_control_symbol_only_window(self):
        """A window of pure control symbols has an SDRAM footprint but
        no data bytes — data_bytes() must not misread control values
        (GAP is 0x0C, a perfectly plausible data byte) as payload."""
        from repro.core.monitor import CaptureRecord

        record = CaptureRecord(
            time_ps=500, direction="R", event=_event(),
            before=[GAP, STOP, GO], after=[GO, STOP],
        )
        assert record.data_bytes() == b""
        # 2 bytes per 9-bit symbol + 16 bytes of header.
        assert record.size_bytes == 2 * 5 + 16

    def test_empty_window_still_has_header_footprint(self):
        from repro.core.monitor import CaptureRecord

        record = CaptureRecord(time_ps=0, direction="L", event=_event())
        assert record.size_bytes == 16
        assert record.data_bytes() == b""

    def test_mixed_window_extracts_only_data_bytes(self):
        from repro.core.monitor import CaptureRecord

        before = [GAP] + data_symbols(b"ab")
        after = data_symbols(b"cd") + [STOP]
        record = CaptureRecord(
            time_ps=0, direction="R", event=_event(),
            before=before, after=after,
        )
        assert record.data_bytes() == b"abcd"
        assert record.size_bytes == 2 * 6 + 16


class TestInjectionMonitor:
    def test_capture_surrounds_injection(self):
        """Paper §3.2: the FPGA keeps the bytes surrounding the fault
        injection event."""
        sdram = SdramBuffer()
        monitor = InjectionMonitor(
            "R", sdram, MonitorConfig(enabled=True, pre_symbols=4,
                                      post_symbols=4),
        )
        monitor.observe(Burst.from_symbols(data_symbols(b"beforebytes")))
        monitor.on_injection(1000, _event())
        monitor.observe(Burst.from_symbols(data_symbols(b"afterwards")))
        captures = monitor.captures()
        assert len(captures) == 1
        record = captures[0]
        assert symbol_bytes(record.before) == b"ytes"   # last 4 pre
        assert symbol_bytes(record.after) == b"afte"    # first 4 post
        assert record.time_ps == 1000
        assert record.event.lanes_rewritten == 1

    def test_disabled_monitor_captures_nothing(self):
        monitor = InjectionMonitor("R", SdramBuffer())
        monitor.observe(Burst.from_symbols(data_symbols(b"data")))
        monitor.on_injection(0, _event())
        monitor.observe(Burst.from_symbols(data_symbols(b"more")))
        monitor.flush()
        assert monitor.captures() == []

    def test_flush_closes_partial_captures(self):
        sdram = SdramBuffer()
        monitor = InjectionMonitor(
            "R", sdram, MonitorConfig(enabled=True, pre_symbols=2,
                                      post_symbols=100),
        )
        monitor.on_injection(0, _event())
        monitor.observe(Burst.from_symbols(data_symbols(b"xy")))
        monitor.flush()
        captures = monitor.captures()
        assert len(captures) == 1
        assert symbol_bytes(captures[0].after) == b"xy"

    def test_overlapping_captures(self):
        sdram = SdramBuffer()
        monitor = InjectionMonitor(
            "R", sdram, MonitorConfig(enabled=True, pre_symbols=2,
                                      post_symbols=3),
        )
        monitor.on_injection(0, _event())
        monitor.observe(Burst.from_symbols(data_symbols(b"a")))
        monitor.on_injection(1, _event())
        monitor.observe(Burst.from_symbols(data_symbols(b"bcde")))
        captures = monitor.captures()
        assert len(captures) == 2
        assert symbol_bytes(captures[0].after) == b"abc"
        assert symbol_bytes(captures[1].after) == b"bcd"

    def test_records_share_sdram_capacity(self):
        sdram = SdramBuffer(capacity_bytes=64)
        monitor = InjectionMonitor(
            "R", sdram, MonitorConfig(enabled=True, pre_symbols=8,
                                      post_symbols=8),
        )
        for index in range(10):
            monitor.on_injection(index, _event())
            monitor.observe(Burst.from_symbols(data_symbols(b"12345678")))
        monitor.flush()
        assert sdram.records_dropped_capacity > 0
        assert len(monitor.captures()) < 10


# ----------------------------------------------------------------------
# lane-based stages vs their per-symbol reference
# ----------------------------------------------------------------------

_SOUP = st.one_of(
    st.integers(0, 255).map(data_symbol),
    st.sampled_from([GAP, STOP, GO, IDLE, control_symbol(0x08),
                     control_symbol(0x55)]),
)


class _ReferenceCrcFixup:
    """The CRC fix-up stage one symbol at a time (its pre-lane form)."""

    def __init__(self):
        self.held = None
        self.crc = 0
        self.dirty = False
        self.fixed = 0
        self.passed = 0

    def feed(self, symbols, enabled, positions):
        if not enabled and self.held is None and not self.dirty \
                and not positions:
            return list(symbols)
        out = []
        for index, symbol in enumerate(symbols):
            if index in positions:
                self.dirty = True
            if symbol.is_data:
                if self.held is not None:
                    out.append(self.held)
                    self.crc = crc8_update(self.crc, self.held.value)
                self.held = symbol
            elif decode_control(symbol.value) is GAP:
                if self.held is not None:
                    if enabled and self.dirty:
                        out.append(data_symbol(self.crc))
                        self.fixed += 1
                    else:
                        out.append(self.held)
                        self.passed += 1
                self.held, self.crc, self.dirty = None, 0, False
                out.append(symbol)
            else:
                out.append(symbol)
        return out


@settings(max_examples=200, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(st.lists(_SOUP, max_size=40),
                  st.lists(st.integers(-2, 42), max_size=4),
                  st.booleans()),
        max_size=6,
    ),
)
def test_crc_fixup_equals_per_symbol_reference(bursts):
    """Rewritten positions on data and control symbols alike dirty the
    frame they fall in, exactly as a symbol-by-symbol pass would."""
    stage = CrcFixupStage()
    reference = _ReferenceCrcFixup()
    for symbols, positions, enabled in bursts:
        out = stage.feed(Burst.from_symbols(symbols), enabled, positions)
        expected = reference.feed(symbols, enabled, set(positions))
        assert out.symbols() == expected
    assert (stage.frames_fixed, stage.frames_passed) == \
        (reference.fixed, reference.passed)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.one_of(st.just(None), st.lists(_SOUP, max_size=12)),
        max_size=12,
    ),
    pre=st.integers(1, 6),
    post=st.integers(0, 6),
)
def test_monitor_equals_per_symbol_collection(steps, pre, post):
    """Batched capture collection completes the same records, in the
    same order and with the same symbols, as collecting one symbol at
    a time (``None`` steps open a capture)."""
    config = MonitorConfig(enabled=True, pre_symbols=pre, post_symbols=post)
    monitor = InjectionMonitor("R", SdramBuffer(), config)
    window, open_records, finished = [], [], []
    for step in steps:
        if step is None:
            monitor.on_injection(len(finished), _event())
            open_records.append((window[-pre:], []))
            continue
        monitor.observe(Burst.from_symbols(step))
        for symbol in step:
            still_open = []
            for before, after in open_records:
                after.append(symbol)
                if len(after) >= post:
                    finished.append((before, after))
                else:
                    still_open.append((before, after))
            open_records = still_open
            window.append(symbol)
    assert [(record.before, record.after)
            for record in monitor.captures()] == finished

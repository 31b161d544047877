"""Unit tests for FC CRC-32, frames, ordered sets, ports, and the tap."""

from dataclasses import replace

import pytest

from repro.core import FaultInjectorDevice
from repro.core.faults import replace_bytes
from repro.errors import ConfigurationError, CrcError, ProtocolError
from repro.fc.crc32 import crc32, verify32
from repro.fc.frame import FcFrame, FcFrameHeader, MAX_PAYLOAD
from repro.fc.node import FC_CODE_PERIOD_PS, FcPort, connect_fc
from repro.fc.ordered_sets import (
    ALL_ORDERED_SETS,
    EOF_N,
    EOF_T,
    IDLE,
    R_RDY,
    SOF_I3,
    SOF_N3,
    classify_word,
    is_eof,
    is_sof,
)
from repro.fc.tap import FcInjectorTap
from repro.hw.phy import DEFAULT_PHY_LATENCY_PS
from repro.hw.registers import MatchMode
from repro.myrinet.link import Link
from repro.sim.timebase import MS


class TestCrc32:
    def test_check_vector(self):
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    def test_verify32(self):
        data = b"frame body"
        framed = data + crc32(data).to_bytes(4, "little")
        assert verify32(framed)
        assert not verify32(framed[:-1] + b"\x00")
        assert not verify32(b"abc")


class TestOrderedSets:
    def test_all_start_with_k28_5(self):
        for ordered_set in ALL_ORDERED_SETS.values():
            assert ordered_set.characters[0] == (0xBC, True)

    def test_classification(self):
        assert classify_word(IDLE.characters) is IDLE
        assert classify_word(R_RDY.characters) is R_RDY
        assert classify_word(SOF_I3.characters) is SOF_I3

    def test_corrupted_word_unclassifiable(self):
        chars = list(SOF_I3.characters)
        chars[2] = (0x99, False)
        assert classify_word(tuple(chars)) is None

    def test_sof_eof_predicates(self):
        assert is_sof(SOF_I3) and is_sof(SOF_N3)
        assert is_eof(EOF_T) and is_eof(EOF_N)
        assert not is_sof(EOF_T)
        assert not is_eof(IDLE)


class TestFcFrame:
    def test_header_roundtrip(self):
        header = FcFrameHeader(r_ctl=0x22, d_id=0x112233, s_id=0x445566,
                               type=0x08, seq_cnt=7, ox_id=0x1234)
        raw = header.to_bytes()
        assert len(raw) == 24
        parsed = FcFrameHeader.from_bytes(raw)
        assert parsed == header

    def test_frame_content_roundtrip(self):
        frame = FcFrame(header=FcFrameHeader(d_id=1, s_id=2),
                        payload=b"scsi data")
        parsed = FcFrame.from_content(frame.content_bytes(), SOF_I3, EOF_T)
        assert parsed.payload == b"scsi data"
        assert parsed.header.d_id == 1

    def test_crc_error_detected(self):
        frame = FcFrame(header=FcFrameHeader(), payload=b"x" * 16)
        raw = bytearray(frame.content_bytes())
        raw[30] ^= 0x01
        with pytest.raises(CrcError):
            FcFrame.from_content(bytes(raw), SOF_I3, EOF_T)

    def test_payload_size_limit(self):
        with pytest.raises(ProtocolError):
            FcFrame(header=FcFrameHeader(), payload=bytes(MAX_PAYLOAD + 1))

    def test_truncated_content_rejected(self):
        with pytest.raises(ProtocolError):
            FcFrame.from_content(b"short", SOF_I3, EOF_T)


def make_fc_pair(sim, tap=None, bb_credit=2):
    a = FcPort(sim, "a", 0x010101, bb_credit=bb_credit)
    b = FcPort(sim, "b", 0x020202, bb_credit=bb_credit)
    connect_fc(sim, a, b, tap=tap)
    return a, b


def frame(payload=b"data", seq=0):
    return FcFrame(header=FcFrameHeader(d_id=0x020202, s_id=0x010101,
                                        type=0x08, seq_cnt=seq),
                   payload=payload)


class TestFcPort:
    def test_frame_delivery(self, sim):
        a, b = make_fc_pair(sim)
        got = []
        b.on_frame(lambda f: got.append(f.payload))
        a.send_frame(frame(b"hello fc"))
        sim.run_for(1 * MS)
        assert got == [b"hello fc"]
        assert b.crc_errors == 0

    def test_many_frames_in_order(self, sim):
        a, b = make_fc_pair(sim)
        got = []
        b.on_frame(lambda f: got.append(f.header.seq_cnt))
        for seq in range(20):
            a.send_frame(frame(seq=seq))
        sim.run_for(5 * MS)
        assert got == list(range(20))

    def test_credit_flow_control(self, sim):
        """Frames beyond the buffer-to-buffer credit wait for R_RDY."""
        a, b = make_fc_pair(sim, bb_credit=2)
        got = []
        b.on_frame(lambda f: got.append(f.header.seq_cnt))
        for seq in range(8):
            a.send_frame(frame(seq=seq))
        sim.run_for(5 * MS)
        assert got == list(range(8))
        assert a.credit_stalls > 0
        assert a.r_rdy_received == 8

    def test_bidirectional(self, sim):
        a, b = make_fc_pair(sim)
        got_a, got_b = [], []
        a.on_frame(lambda f: got_a.append(f.payload))
        b.on_frame(lambda f: got_b.append(f.payload))
        a.send_frame(frame(b"to-b"))
        b.send_frame(frame(b"to-a"))
        sim.run_for(1 * MS)
        assert got_b == [b"to-b"]
        assert got_a == [b"to-a"]

    def test_stats_snapshot(self, sim):
        a, b = make_fc_pair(sim)
        a.send_frame(frame())
        sim.run_for(1 * MS)
        assert a.stats["frames_sent"] == 1
        assert b.stats["frames_received"] == 1


class TestFcInjectorTap:
    def test_transparent_passthrough(self, sim):
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a, b = make_fc_pair(sim, tap=tap)
        got = []
        b.on_frame(lambda f: got.append(f.payload))
        for seq in range(5):
            a.send_frame(frame(b"through the tap", seq=seq))
        sim.run_for(2 * MS)
        assert got == [b"through the tap"] * 5
        assert b.crc_errors == 0
        assert b.stats["disparity_errors"] == 0

    def test_injection_with_crc32_fixup_delivered(self, sim):
        """Dual-media claim: the same injector core corrupts FC frames,
        with the FC CRC-32 recomputed before the EOF."""
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a, b = make_fc_pair(sim, tap=tap)
        got = []
        b.on_frame(lambda f: got.append(f.payload))
        device.configure("R", replace_bytes(b"data", b"DATA",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=True))
        a.send_frame(frame(b"fc data stream"))
        sim.run_for(2 * MS)
        assert got == [b"fc DATA stream"]
        assert tap.frames_crc_fixed == 1

    def test_injection_without_fixup_dropped_at_crc32(self, sim):
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a, b = make_fc_pair(sim, tap=tap)
        got = []
        b.on_frame(lambda f: got.append(f.payload))
        device.configure("R", replace_bytes(b"data", b"DATA",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=False))
        a.send_frame(frame(b"fc data stream"))
        sim.run_for(2 * MS)
        assert got == []
        assert b.crc_errors == 1

    def test_directions_independent_on_fc(self, sim):
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a, b = make_fc_pair(sim, tap=tap)
        got_a, got_b = [], []
        a.on_frame(lambda f: got_a.append(f.payload))
        b.on_frame(lambda f: got_b.append(f.payload))
        device.configure("R", replace_bytes(b"ping", b"PING",
                                            match_mode=MatchMode.ON,
                                            crc_fixup=True))
        a.send_frame(frame(b"ping pong"))
        b.send_frame(frame(b"ping pong"))
        sim.run_for(2 * MS)
        assert got_b == [b"PING pong"]   # R direction corrupted
        assert got_a == [b"ping pong"]   # L direction clean

    def test_pipeline_clocked_at_fc_code_period(self, sim):
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        make_fc_pair(sim, tap=FcInjectorTap(sim, device))
        assert device.pipeline_latency_ps == (
            device.pipeline_depth * FC_CODE_PERIOD_PS
            + 2 * DEFAULT_PHY_LATENCY_PS
        )

    def test_attachment_guards(self, sim):
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        tap.attach_left(Link(sim, "l"), "a")
        with pytest.raises(ConfigurationError):
            tap.attach_left(Link(sim, "l2"), "a")
        with pytest.raises(ConfigurationError):
            tap.attach_right(Link(sim, "r"), "c")

    def test_unencodable_injection_emits_invalid_code_group(self, sim):
        """Forcing a data character's D/C bit to control yields an
        undefined K character: the PHY puts an invalid code group on the
        line and the receiving port counts a code error."""
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a, b = make_fc_pair(sim, tap=tap)
        got = []
        b.on_frame(lambda f: got.append(f.payload))
        device.configure("R", replace(
            replace_bytes(b"data", b"DATA", match_mode=MatchMode.ONCE),
            corrupt_ctl=0, corrupt_ctl_mask=0b0001,
        ))
        a.send_frame(frame(b"fc data stream"))
        sim.run_for(2 * MS)
        assert tap.encode_failures == 1
        assert b.stats["code_errors"] == 1
        assert got == []

"""Decode-pipeline tests: frame reassembly, verdicts, injection marking.

The end-to-end class at the bottom is the PR's acceptance test: a real
fault-injection campaign run under capture + telemetry sessions, written
to a binary ``.rcap``, decoded offline, with every injection joined to a
symbol offset, a §4.4 classification, and a telemetry span id.
"""

import pytest

from repro.capture.decode import (
    analyze_capture,
    analyze_window,
    corruption_window_symbols,
    reassemble_frames,
)
from repro.capture.format import CaptureWindow
from repro.hostsim.ip import HEADER_LEN as IP_HEADER_LEN
from repro.hostsim.ip import IpAddress, IpLiteHeader
from repro.hostsim.udp import UdpDatagram
from repro.myrinet.addresses import MacAddress
from repro.myrinet.packet import PACKET_TYPE_DATA, MyrinetPacket
from repro.myrinet.symbols import GAP, GO, IDLE, STOP, data_symbols
from repro.runtime.seeding import derive_seed


# ----------------------------------------------------------------------
# frame builders
# ----------------------------------------------------------------------

DST = MacAddress(0x0B)
SRC = MacAddress(0x0A)

#: Offset of the first UDP user-payload byte in a routeless data frame:
#: type (4) + MAC header (12) + IP-lite (12) + UDP header (8).
UDP_PAYLOAD_OFFSET = 4 + 12 + IP_HEADER_LEN + 8


def make_udp_wire_bytes(udp_payload=b"abcdwxyz"):
    """A routeless data frame carrying a checksummed UDP datagram,
    byte-identical to what :mod:`repro.hostsim.sockets` transmits."""
    datagram = UdpDatagram(src_port=1111, dst_port=2222,
                           payload=udp_payload)
    ip = IpLiteHeader(src=IpAddress.for_mac(SRC),
                      dst=IpAddress.for_mac(DST))
    udp_bytes = bytearray(datagram.to_bytes(ip))
    ip.total_length = IP_HEADER_LEN + len(udp_bytes)
    return udp_bytes, ip


def frame_from_udp(udp_bytes, ip):
    packet_payload = (
        DST.to_bytes() + SRC.to_bytes() + ip.to_bytes() + bytes(udp_bytes)
    )
    packet = MyrinetPacket(route=[], packet_type=PACKET_TYPE_DATA,
                           payload=packet_payload)
    return packet.to_bytes()


def window_over(clean, corrupted, j, **overrides):
    """A CaptureWindow whose injector state says "the 4 lanes ending at
    byte ``j`` were rewritten from ``clean`` to ``corrupted``"."""
    fields = dict(
        experiment_index=0,
        time_ps=1000,
        direction="R",
        segment_index=j,
        window_before=int.from_bytes(clean[j - 3:j + 1], "big"),
        ctl_before=0xF,
        window_after=int.from_bytes(corrupted[j - 3:j + 1], "big"),
        ctl_after=0xF,
        lanes_rewritten=sum(
            1 for k in range(j - 3, j + 1) if clean[k] != corrupted[k]
        ),
        lanes_unreachable=0,
        forced=False,
        before=[],
        after=data_symbols(bytes(corrupted)) + [GAP],
    )
    fields.update(overrides)
    return CaptureWindow(**fields)


# ----------------------------------------------------------------------
# reassembly
# ----------------------------------------------------------------------


class TestReassembly:
    def test_offsets_and_trailing_partial(self):
        stream = (
            [IDLE] + data_symbols(b"ab") + [STOP, GAP]
            + [GO] + data_symbols(b"cd")
        )
        frames = reassemble_frames(stream)
        assert len(frames) == 2
        first, second = frames
        assert first.data == b"ab"
        assert first.offsets == [1, 2]
        assert first.complete
        assert second.data == b"cd"
        assert second.offsets == [6, 7]
        assert not second.complete

    def test_byte_index_of(self):
        stream = [IDLE] + data_symbols(b"xyz") + [GAP]
        [frame] = reassemble_frames(stream)
        assert frame.byte_index_of(2) == 1
        assert frame.byte_index_of(0) is None

    def test_empty_stream(self):
        assert reassemble_frames([]) == []
        assert reassemble_frames([IDLE, GAP, STOP]) == []


class TestCorruptionWindow:
    def test_stream_order_and_flags(self):
        # Lane 0 is the most recent symbol -> last in stream order;
        # ctl bit k says lane k carried a data symbol.
        symbols = corruption_window_symbols(0xAABBCCDD, 0b0101)
        assert [s.value for s in symbols] == [0xAA, 0xBB, 0xCC, 0xDD]
        assert [s.is_data for s in symbols] == [False, True, False, True]


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


class TestVerdicts:
    def test_clean_frame_full_udp_decode(self):
        udp_bytes, ip = make_udp_wire_bytes()
        raw = frame_from_udp(udp_bytes, ip)
        j = UDP_PAYLOAD_OFFSET  # identity "corruption" for the analyzer
        analysis = analyze_window(window_over(raw, raw, j))
        [frame] = analysis.frames
        assert frame.crc_ok is True
        assert frame.type_name == "data"
        assert frame.route_len == 0
        udp = frame.udp
        assert udp["src_port"] == 1111
        assert udp["dst_port"] == 2222
        assert udp["checksum_ok"] is True
        assert udp["payload_len"] == 8
        # Identity rewrite: nothing changed, and the analyzer says so.
        assert not analysis.capture.changed
        assert "no lane rewritten" in analysis.effect

    def test_crc_broken_verdict_with_exact_offset(self):
        """A raw byte flip (no CRC fix-up) breaks the frame CRC-8; the
        decoder points at the exact injected symbol."""
        udp_bytes, ip = make_udp_wire_bytes()
        clean = frame_from_udp(udp_bytes, ip)
        j = UDP_PAYLOAD_OFFSET + 2
        corrupted = bytearray(clean)
        corrupted[j] ^= 0x40
        analysis = analyze_window(window_over(clean, corrupted, j))

        assert analysis.mark.matched
        assert analysis.mark.injected_offsets == [j]
        [change] = analysis.mark.changes
        assert change["lane"] == 0
        assert change["offset"] == j
        assert analysis.hit_frames == [0]
        [frame] = analysis.frames
        assert frame.crc_ok is False
        assert frame.packet_type == PACKET_TYPE_DATA
        assert frame.byte_index_of(j) == j  # before==[], offsets align
        assert "CRC-8 broken" in analysis.effect

    def test_crc_ok_udp_checksum_broken(self):
        """Corruption + CRC fix-up (paper §3.3): the link-level CRC is
        valid again but the end-to-end UDP checksum catches it."""
        udp_bytes, ip = make_udp_wire_bytes()
        corrupted_udp = bytearray(udp_bytes)
        corrupted_udp[8] ^= 0x01  # first payload byte, checksum now stale
        clean = frame_from_udp(udp_bytes, ip)
        fixed = frame_from_udp(corrupted_udp, ip)  # CRC-8 recomputed
        j = UDP_PAYLOAD_OFFSET
        analysis = analyze_window(window_over(clean, fixed, j))

        assert analysis.mark.matched
        assert analysis.hit_frames == [0]
        [frame] = analysis.frames
        assert frame.crc_ok is True
        assert frame.udp["checksum_ok"] is False
        assert "UDP checksum broken" in analysis.effect

    def test_aligned_16bit_swap_sails_through(self):
        """Paper §4.3.4: swapping aligned 16-bit words is invisible to
        the one's-complement checksum — the decoder surfaces that."""
        udp_bytes, ip = make_udp_wire_bytes(udp_payload=b"abcdwxyz")
        swapped_udp = bytearray(udp_bytes)
        # UDP payload starts at even offset 8: swap the first two words.
        swapped_udp[8:10], swapped_udp[10:12] = (
            udp_bytes[10:12], udp_bytes[8:10]
        )
        clean = frame_from_udp(udp_bytes, ip)
        fixed = frame_from_udp(swapped_udp, ip)
        j = UDP_PAYLOAD_OFFSET + 3  # lanes 3..0 = the 4 swapped bytes
        analysis = analyze_window(window_over(clean, fixed, j))

        assert analysis.mark.matched
        assert len(analysis.mark.injected_offsets) == 4
        [frame] = analysis.frames
        assert frame.crc_ok is True
        assert frame.udp["checksum_ok"] is True
        assert "STILL VALID" in analysis.effect

    def test_framing_hit_between_frames(self):
        """An injected control symbol between frames hits no frame."""
        clean = bytes([0x10, 0x11, 0x12, 0x0C])  # treated as symbols
        window = CaptureWindow(
            experiment_index=0, time_ps=0, direction="L", segment_index=9,
            window_before=int.from_bytes(clean, "big"),
            ctl_before=0b1110,  # lane 0 was the control symbol
            window_after=int.from_bytes(clean[:3] + b"\x00", "big"),
            ctl_after=0b1110,
            lanes_rewritten=1, lanes_unreachable=0, forced=False,
            before=[],
            after=(
                data_symbols(clean[:3])
                + [GAP]  # corrupted control symbol: GAP value 0x0C -> 0
                + data_symbols(b"zz")
            ),
        )
        # The post window is [D(0x10), D(0x11), D(0x12), C(0x00)] --
        # make the captured stream contain it literally.
        window.after = corruption_window_symbols(
            window.window_after, window.ctl_after
        ) + data_symbols(b"zz") + [GAP]
        analysis = analyze_window(window)
        assert analysis.mark.matched
        assert analysis.hit_frames == []
        assert "between frames" in analysis.effect


# ----------------------------------------------------------------------
# end-to-end acceptance: campaign -> .rcap -> decode -> joined verdicts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_analysis(tmp_path_factory):
    """Run a real 2-experiment capture campaign once for the module."""
    from repro.core.faults import control_symbol_swap
    from repro.core.monitor import MonitorConfig
    from repro.hw.registers import MatchMode
    from repro.myrinet.symbols import GAP as GAP_SYMBOL
    from repro.myrinet.symbols import IDLE as IDLE_SYMBOL
    from repro.nftape.campaign import Campaign
    from repro.nftape.experiment import TestbedOptions
    from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
    from repro.sim.timebase import MS
    from repro.telemetry import ObservationSession

    out_dir = tmp_path_factory.mktemp("capture-e2e")
    duration_ps = 2 * MS
    monitor_config = MonitorConfig(
        enabled=True, pre_symbols=128, post_symbols=128
    )
    experiments = []
    for index, (source, target) in enumerate(
        [(IDLE_SYMBOL, GAP_SYMBOL), (GAP_SYMBOL, IDLE_SYMBOL)]
    ):
        plan = PlanSpec(
            "duty_cycle", "RL",
            control_symbol_swap(source, target, MatchMode.ON),
            on_ps=duration_ps // 8,
            off_ps=duration_ps // 2,
            use_serial=False,
        )
        experiments.append(ExperimentSpec(
            f"e2e-{index}",
            duration_ps=duration_ps,
            plan=plan,
            testbed=TestbedOptions(
                device_kwargs={"monitor_config": monitor_config},
            ),
        ))
    campaign = Campaign.from_spec(CampaignSpec("capture e2e", experiments))

    with ObservationSession(out_dir=out_dir, label="capture e2e") as session:
        campaign.run()
    path = out_dir / "capture" / "capture.rcap"
    assert path.exists()
    return session, analyze_capture(path)


class TestEndToEndAcceptance:
    def test_experiments_round_trip_with_classification_and_span(
        self, campaign_analysis
    ):
        session, analysis = campaign_analysis
        assert len(analysis.experiments) == 2
        for experiment in analysis.experiments:
            # Joined verdict: §4.4 class + telemetry span id per marker.
            assert experiment.fault_class in (
                "none", "passive", "active", "crash"
            )
            assert experiment.span_id is not None
            assert experiment.meta["seed"] == derive_seed(
                0, experiment.index, experiment.meta["name"])
            assert experiment.events > 0
            assert experiment.stage_counts.get("host_send", 0) > 0

    def test_at_least_one_experiment_injected_and_captured(
        self, campaign_analysis
    ):
        _session, analysis = campaign_analysis
        injecting = [
            e for e in analysis.experiments
            if e.meta.get("injections", 0) > 0
        ]
        assert injecting, "campaign produced no injections to analyze"
        for experiment in injecting:
            assert len(experiment.windows) == experiment.meta["captures"]
            assert experiment.windows, "injections but no capture windows"
            assert experiment.stage_counts.get("inject", 0) > 0

    def test_every_changed_window_marks_exact_symbol_offsets(
        self, campaign_analysis
    ):
        """The acceptance bar: each InjectionEvent that rewrote the
        stream is matched to decoded symbol offset(s) in its window."""
        _session, analysis = campaign_analysis
        changed = [
            w for e in analysis.experiments for w in e.windows
            if w.capture.changed
        ]
        assert changed, "no changed windows captured"
        for window in changed:
            assert window.mark.matched, window.effect
            assert window.mark.injected_offsets
            total = len(window.capture.symbols)
            for offset in window.mark.injected_offsets:
                assert 0 <= offset < total
            assert len(window.mark.changes) == len(
                window.mark.injected_offsets
            )

    def test_inject_events_match_marker_counts(self, campaign_analysis):
        session, analysis = campaign_analysis
        recorder = session.recorder
        if recorder.events_dropped:  # pragma: no cover - ring overflow
            pytest.skip("ring buffer overflowed; counts not comparable")
        for experiment in analysis.experiments:
            assert experiment.stage_counts.get("inject", 0) == (
                experiment.meta.get("injections", 0)
            )

    def test_report_renders_the_join(self, campaign_analysis):
        _session, analysis = campaign_analysis
        text = analysis.report().render_text()
        assert "Failure analysis" in text
        assert "span_id:" in text
        assert "lifecycle:" in text
        tree = analysis.to_dict()
        assert tree["total_windows"] == sum(
            len(e.windows) for e in analysis.experiments
        )

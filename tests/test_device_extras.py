"""Additional device, stats, and FC-tap coverage."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FaultInjectorDevice, InjectorSession
from repro.core.faults import replace_bytes
from repro.fc import FcFrame, FcFrameHeader, FcInjectorTap, FcPort
from repro.fc.node import connect_fc
from repro.hw.registers import MatchMode
from repro.myrinet.network import build_paper_testbed
from repro.sim import Simulator
from repro.sim.timebase import MS


class TestDeviceStatsSurface:
    def test_device_stats_as_dict(self, sim):
        device = FaultInjectorDevice(sim)
        network = build_paper_testbed(sim, device=device)
        network.settle()
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        pc.send_to(sparc1.mac, b"payload")
        sim.run_for(2 * MS)
        snapshot = device.stats.as_dict()
        assert set(snapshot) == {"R", "L"}
        assert snapshot["R"]["frames_seen"] >= 1
        assert snapshot["R"]["crc_bad_frames"] == 0
        assert "symbols_processed" in snapshot["R"]

    def test_monitor_summary_via_serial(self, sim):
        from repro.core.monitor import MonitorConfig
        device = FaultInjectorDevice(
            sim, monitor_config=MonitorConfig(enabled=True, pre_symbols=4,
                                              post_symbols=4),
        )
        network = build_paper_testbed(sim, device=device)
        session = InjectorSession(sim, device)
        network.settle()
        device.configure("R", replace_bytes(b"hit", b"HIT",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=True))
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        pc.send_to(sparc1.mac, b"a hit here....")
        sim.run_for(2 * MS)
        parsed = []
        session.read_monitor("R", parsed.append)
        sim.run_for(10 * MS)
        assert parsed and parsed[0]["cap"] == 1
        assert parsed[0]["sdram"] > 0

    def test_crcfix_stage_accessor(self, sim):
        device = FaultInjectorDevice(sim)
        assert device.crc_fixup_stage("R").idle
        assert device.crc_fixup_stage("L").idle


class TestFcTapProperties:
    @settings(max_examples=20, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=0, max_size=120),
                             min_size=1, max_size=8))
    def test_disarmed_tap_is_fully_transparent(self, payloads):
        """Arbitrary frames pass the tap byte-identically when the
        injector is disarmed."""
        sim = Simulator()
        device = FaultInjectorDevice(sim, medium="fibre-channel")
        tap = FcInjectorTap(sim, device)
        a = FcPort(sim, "a", 1, bb_credit=4)
        b = FcPort(sim, "b", 2, bb_credit=4)
        connect_fc(sim, a, b, tap=tap)
        got = []
        b.on_frame(lambda f: got.append((f.header.seq_cnt, f.payload)))
        for seq, payload in enumerate(payloads):
            a.send_frame(FcFrame(
                header=FcFrameHeader(d_id=2, s_id=1, seq_cnt=seq),
                payload=payload,
            ))
        sim.run_for(20 * MS)
        assert got == list(enumerate(payloads))
        assert b.crc_errors == 0
        assert b.stats["disparity_errors"] == 0


class TestPingPongUnderFaults:
    def test_pingpong_survives_packet_loss(self, sim):
        """Lost exchanges hit the loss timeout and the measurement
        continues (the paper's 2M-packet runs had to do the same)."""
        from repro.hostsim import HostStack, PingPong
        device = FaultInjectorDevice(sim)
        network = build_paper_testbed(sim, device=device)
        network.settle()
        # Drop the first matching ping payload (no CRC fix-up -> lost).
        device.configure("R", replace_bytes(b"\x00\x00\x00\x01",
                                            b"\x00\x00\x00\xff",
                                            match_mode=MatchMode.ONCE))
        stack_a = HostStack(sim, network.host("pc").interface)
        stack_b = HostStack(sim, network.host("sparc1").interface)
        results = []
        pingpong = PingPong(sim, stack_a, stack_b, count=10,
                            loss_timeout_ps=5 * MS,
                            on_complete=results.append)
        pingpong.start()
        sim.run_for(200 * MS)
        assert results
        assert results[0].exchanges == 10
        assert pingpong.losses >= 1

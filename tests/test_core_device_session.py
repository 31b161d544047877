"""Integration tests for the assembled device and the serial session."""

import pytest

from repro.core import FaultInjectorDevice, InjectorSession
from repro.core.faults import replace_bytes
from repro.core.monitor import MonitorConfig
from repro.core.session import SessionError, config_commands
from repro.errors import ConfigurationError
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.link import Link
from repro.myrinet.network import build_paper_testbed
from repro.myrinet.symbols import Burst
from repro.sim.timebase import MS, US


def make_testbed(sim, **device_kwargs):
    device = FaultInjectorDevice(sim, **device_kwargs)
    network = build_paper_testbed(sim, device=device)
    network.settle()
    return device, network


def deliver(sim, network, payload, src="pc", dst="sparc1"):
    received = []
    network.host(dst).interface.set_data_handler(
        lambda s, p: received.append(p)
    )
    network.host(src).interface.send_to(
        network.host(dst).interface.mac, payload
    )
    sim.run_for(2 * MS)
    return received


class TestDeviceDataPath:
    def test_transparent_passthrough(self, sim):
        device, network = make_testbed(sim)
        assert deliver(sim, network, b"hello") == [b"hello"]
        assert device.bursts_forwarded > 0

    def test_disarmed_device_forwards_the_burst_object(self, sim):
        """A disarmed direction copies nothing: the burst that arrives
        on one segment is the object sent on the other."""
        device = FaultInjectorDevice(sim)
        left, right = Link(sim, "left"), Link(sim, "right")
        device.attach_left(left, "b")
        device.attach_right(right, "a")
        delivered = []

        class _Sink:
            def on_burst(self, burst, channel):
                delivered.append(burst)

        tx = left.attach_a(_Sink())
        right.attach_b(_Sink())
        burst = Burst(b"\x01\x02\x0c", b"\x01\x01\x00")
        tx.send(burst)
        sim.run()
        assert len(delivered) == 1 and delivered[0] is burst
        assert device.statistics("R").stats.frames == 1

    def test_pipeline_latency_matches_paper_ballpark(self, sim):
        """Paper footnote 5: ~250 ns of pipeline at 12.5 ns characters."""
        device, _network = make_testbed(sim)
        latency = device.pipeline_latency_ps
        assert 200_000 <= latency <= 350_000  # 250ns pipeline + 2 PHYs

    def test_directions_independent(self, sim):
        """Paper §3.3: different and independent commands per direction."""
        device, network = make_testbed(sim)
        device.configure("R", replace_bytes(b"ping", b"PING",
                                            match_mode=MatchMode.ON,
                                            crc_fixup=True))
        device.configure("L", replace_bytes(b"pong", b"PONG",
                                            match_mode=MatchMode.ON,
                                            crc_fixup=True))
        assert deliver(sim, network, b"ping pong") == [b"PING pong"]
        assert deliver(sim, network, b"ping pong", src="sparc1",
                       dst="pc") == [b"ping PONG"]

    def test_corruption_without_fixup_dropped_at_crc(self, sim):
        device, network = make_testbed(sim)
        device.configure("R", replace_bytes(b"data", b"DATA",
                                            match_mode=MatchMode.ONCE))
        assert deliver(sim, network, b"some data here") == []
        assert network.host("sparc1").interface.crc_errors == 1

    def test_once_mode_second_packet_unscathed(self, sim):
        device, network = make_testbed(sim)
        device.configure("R", replace_bytes(b"aaa", b"bbb",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=True))
        received = []
        sparc1 = network.host("sparc1").interface
        sparc1.set_data_handler(lambda s, p: received.append(p))
        pc = network.host("pc").interface
        pc.send_to(sparc1.mac, b"aaa first")
        pc.send_to(sparc1.mac, b"aaa second")
        sim.run_for(2 * MS)
        assert received == [b"bbb first", b"aaa second"]

    def test_statistics_gathering(self, sim):
        device, network = make_testbed(sim)
        deliver(sim, network, b"counted")
        stats = device.statistics("R").stats
        assert stats.frames >= 1
        pc = network.host("pc").interface
        sparc1 = network.host("sparc1").interface
        assert stats.pair_count(pc.mac, sparc1.mac) >= 1

    def test_monitor_captures_injection_environment(self, sim):
        device, network = make_testbed(
            sim, monitor_config=MonitorConfig(enabled=True, pre_symbols=8,
                                              post_symbols=8),
        )
        device.configure("R", replace_bytes(b"mark", b"MARK",
                                            match_mode=MatchMode.ONCE,
                                            crc_fixup=True))
        deliver(sim, network, b"....mark....")
        captures = device.monitor("R").captures()
        assert len(captures) == 1
        assert captures[0].event.lanes_rewritten >= 1

    def test_device_reset_clears_configuration(self, sim):
        device, network = make_testbed(sim)
        device.configure("R", replace_bytes(b"x", b"y",
                                            match_mode=MatchMode.ON))
        device.device_reset()
        assert not device.injector("R").armed
        assert deliver(sim, network, b"xxx") == [b"xxx"]

    def test_unknown_direction_rejected(self, sim):
        device = FaultInjectorDevice(sim)
        with pytest.raises(ConfigurationError):
            device.injector("Q")

    def test_attachment_guards(self, sim):
        device, _network = make_testbed(sim)
        from repro.myrinet.link import Link
        with pytest.raises(ConfigurationError):
            device.attach_left(Link(sim, "x"), "a")
        assert device.attached


class TestInjectorSession:
    def test_identify_roundtrip_over_serial(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        responses = []
        session.identify(responses.append)
        sim.run_for(10 * MS)
        assert responses == ["OK DSN2002-FI 1.0"]
        assert session.idle

    def test_configure_uploads_full_register_file(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        config = InjectorConfig(
            match_mode=MatchMode.ONCE,
            compare_data=0x1818, compare_mask=0xFFFF,
            corrupt_mode=CorruptMode.REPLACE,
            corrupt_data=0x1918, corrupt_mask=0xFFFF,
            crc_fixup=True,
        )
        done = []
        session.configure("R", config, done.append)
        sim.run_for(60 * MS)
        assert done and done[0].startswith("OK")
        assert session.errors_seen == 0
        applied = device.injector("R").config
        assert applied.compare_data == 0x1818
        assert applied.corrupt_data == 0x1918
        assert applied.match_mode is MatchMode.ONCE
        assert applied.crc_fixup

    def test_configuration_upload_takes_real_serial_time(self, sim):
        """12 commands with responses at 115200 baud: tens of ms."""
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        done = []
        session.configure("R", InjectorConfig(), lambda line: done.append(sim.now))
        sim.run_for(100 * MS)
        assert done
        assert done[0] > 20 * MS

    def test_match_mode_is_set_last(self):
        commands = config_commands("R", InjectorConfig(
            match_mode=MatchMode.ON))
        assert commands[0] == "MM R OFF"
        assert commands[-1] == "MM R ON"

    def test_read_stats_parses_counters(self, sim):
        device, network = make_testbed(sim)
        session = InjectorSession(sim, device)
        deliver(sim, network, b"traffic")
        parsed = []
        session.read_stats("R", parsed.append)
        sim.run_for(10 * MS)
        assert parsed
        assert parsed[0]["sym"] >= 0
        assert "inj" in parsed[0]

    def test_error_responses_counted(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        session.send("BOGUS COMMAND")
        sim.run_for(10 * MS)
        assert session.errors_seen == 1
        assert session.last_response().startswith("ER")

    def test_commands_serialized_one_in_flight(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        order = []
        session.send("ID", lambda line: order.append("first"))
        session.send("ID", lambda line: order.append("second"))
        assert not session.idle
        sim.run_for(20 * MS)
        assert order == ["first", "second"]
        assert session.idle

    def test_multiline_command_rejected(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        with pytest.raises(SessionError):
            session.send("ID\nRS")

    def test_inject_now_over_serial(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        session.inject_now("L")
        sim.run_for(10 * MS)
        assert device.injector("L")._inject_now

    def test_arm_and_disarm(self, sim):
        device, _network = make_testbed(sim)
        session = InjectorSession(sim, device)
        session.arm("R", MatchMode.ON)
        sim.run_for(10 * MS)
        assert device.injector("R").config.match_mode is MatchMode.ON
        session.disarm("R")
        sim.run_for(10 * MS)
        assert device.injector("R").config.match_mode is MatchMode.OFF

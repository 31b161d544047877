"""Tests for the power-on self-test and the switch's subtle internals
(waiter fairness, draining-claim release, backpressure counters)."""

from repro.hw.selftest import SelfTestReport, run_selftest
from repro.myrinet.crc8 import crc8
from repro.myrinet.link import Link
from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA
from repro.myrinet.switch import MyrinetSwitch
from repro.myrinet.symbols import GAP, Burst, data_symbols

CHAR = 12_500


class TestSelfTest:
    def test_passes_on_healthy_hardware(self):
        report = run_selftest()
        assert report.passed
        assert set(report.results) == {"ram", "fifo", "cmp", "inj"}
        assert "ram=pass" in report.summary()

    def test_report_flags_failures(self):
        report = SelfTestReport()
        report.record("ram", True)
        report.record("fifo", False, "stuck-at bit")
        assert not report.passed
        assert "fifo=FAIL" in report.summary()
        assert any("stuck-at" in d for d in report.details)

    def test_empty_report_is_not_a_pass(self):
        assert not SelfTestReport().passed

    def test_pt_command_over_decoder(self):
        from repro.hw.decoder import CommandDecoder
        from repro.hw.injector import FifoInjector

        class _Target:
            def injector(self, direction):
                return FifoInjector(direction)

            def device_reset(self):
                pass

            def monitor_summary(self, direction):
                return ""

        responses = []
        decoder = CommandDecoder(_Target(), responses.append)
        for char in "PT\n":
            decoder.on_char(ord(char))
        assert responses[-1].startswith("OK ram=pass")


class _Endpoint:
    def __init__(self):
        self.frames = []
        self._current = []
        self.tx = None

    def on_burst(self, burst, channel):
        for symbol in burst.symbols():
            if symbol.is_data:
                self._current.append(symbol.value)
            elif symbol == GAP and self._current:
                self.frames.append(bytes(self._current))
                self._current = []

    def send_packet(self, packet, with_gap=True):
        burst = data_symbols(packet.to_bytes())
        if with_gap:
            burst.append(GAP)
        self.tx.send(Burst.from_symbols(burst))


def build_switch(sim, ports=4, **kwargs):
    switch = MyrinetSwitch(sim, num_ports=8, **kwargs)
    endpoints = []
    for port in range(ports):
        endpoint = _Endpoint()
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        endpoint.tx = link.attach_a(endpoint)
        switch.attach_link(port, link, "b", flow_transport="symbols")
        endpoints.append(endpoint)
    return switch, endpoints


class TestSwitchInternals:
    def test_waiters_are_served_in_fifo_order(self, sim):
        """Three inputs racing for one output: grant order follows
        arrival order (head-of-line fairness)."""
        switch, eps = build_switch(sim)
        # A long packet from input 0 claims output 3; while it drains,
        # two more inputs queue up in arrival order.  (Chunk transport
        # delivers a burst at its end of serialization, so competitors
        # are sent only after the holder has fully arrived.)
        eps[0].send_packet(MyrinetPacket.for_route(
            [3], PACKET_TYPE_DATA, b"\x00" * 400))
        sim.run_until(sim.now + 450 * CHAR)   # holder delivered, draining
        eps[1].send_packet(MyrinetPacket.for_route(
            [3], PACKET_TYPE_DATA, b"from-one"))
        sim.run_until(sim.now + 20 * CHAR)
        eps[2].send_packet(MyrinetPacket.for_route(
            [3], PACKET_TYPE_DATA, b"from-two"))
        sim.run()
        payloads = [MyrinetPacket.from_bytes(f).payload
                    for f in eps[3].frames]
        assert payloads[0] == b"\x00" * 400
        assert payloads[1] == b"from-one"
        assert payloads[2] == b"from-two"

    def test_claim_released_only_after_drain(self, sim):
        """The wormhole invariant: the next frame for an output never
        interleaves with the previous frame's still-draining tail."""
        switch, eps = build_switch(sim)
        # Stay inside the slack bounds: the raw test endpoints ignore
        # STOP symbols, so a compliant-load level is used.
        for index in range(4):
            eps[0].send_packet(MyrinetPacket.for_route(
                [1], PACKET_TYPE_DATA, bytes([index]) * 200))
            eps[2].send_packet(MyrinetPacket.for_route(
                [1], PACKET_TYPE_DATA, bytes([0x80 + index]) * 200))
        sim.run()
        frames = eps[1].frames
        assert len(frames) == 8
        for frame in frames:
            assert crc8(frame) == 0
            payload = MyrinetPacket.from_bytes(frame).payload
            assert len(set(payload)) == 1  # never interleaved

    def test_drop_counters_attribute_causes(self, sim):
        switch, eps = build_switch(sim)
        # A headless frame (no GAP) followed by silence: long timeout on
        # a scaled-down switch would tear it down; with the default the
        # symbols just sit in the claim.  Use a bad route to exercise
        # the discard counter instead.
        eps[0].send_packet(MyrinetPacket.for_route(
            [7], PACKET_TYPE_DATA, b"doomed"))
        sim.run()
        stats = switch.port_stats(0)
        assert stats["routing_errors"] == 1
        assert stats["discard_drops"] > 0
        assert stats["outbox_drops"] == 0
        assert stats["waitbuf_drops"] == 0

    def test_idle_gaps_between_packets_are_free(self, sim):
        switch, eps = build_switch(sim)
        eps[0].tx.send(Burst.from_symbols([GAP, GAP, GAP]))
        eps[0].send_packet(MyrinetPacket.for_route(
            [1], PACKET_TYPE_DATA, b"after idle gaps"))
        sim.run()
        assert len(eps[1].frames) == 1
        assert switch.stats["symbols_dropped"] == 0

"""Unit tests for the cut-through Myrinet switch."""

import pytest

from repro.errors import ConfigurationError
from repro.myrinet.crc8 import crc8
from repro.myrinet.link import Link
from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA, route_byte
from repro.myrinet.switch import FLUSH_QUANTUM, MyrinetSwitch
from repro.myrinet.symbols import (
    GAP, GO, STOP, Burst, data_symbols, symbol_bytes,
)

CHAR = 12_500


class _Endpoint:
    """A raw endpoint collecting symbols."""

    def __init__(self):
        self.symbols = []
        self.tx = None

    def on_burst(self, burst, channel):
        self.symbols.extend(burst.symbols())

    def frames(self):
        """Split collected symbols into frames on GAPs."""
        frames, current = [], []
        for symbol in self.symbols:
            if symbol.is_data:
                current.append(symbol.value)
            elif symbol == GAP and current:
                frames.append(bytes(current))
                current = []
        return frames

    def send_packet(self, packet):
        burst = data_symbols(packet.to_bytes())
        burst.append(GAP)
        self.tx.send(Burst.from_symbols(burst))

    def send_symbols(self, symbols):
        self.tx.send(Burst.from_symbols(symbols))


def build_switch(sim, ports=3, **kwargs):
    switch = MyrinetSwitch(sim, num_ports=8, **kwargs)
    endpoints = []
    for port in range(ports):
        endpoint = _Endpoint()
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        endpoint.tx = link.attach_a(endpoint)
        switch.attach_link(port, link, "b", flow_transport="symbols")
        endpoints.append(endpoint)
    return switch, endpoints


def test_forwards_and_strips_route_byte(sim):
    switch, eps = build_switch(sim)
    packet = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"hello")
    eps[0].send_packet(packet)
    sim.run()
    frames = eps[1].frames()
    assert len(frames) == 1
    parsed = MyrinetPacket.from_bytes(frames[0])
    assert parsed.payload == b"hello"
    assert parsed.route == []
    assert crc8(frames[0]) == 0
    assert switch.stats["frames_forwarded"] == 1


def test_multi_hop_crc_recomputed_each_strip(sim):
    """Paper §4.1: the trailing CRC-8 is recomputed after each byte is
    removed."""
    switch, eps = build_switch(sim)
    packet = MyrinetPacket.for_route([2], PACKET_TYPE_DATA, b"payload")
    eps[1].send_packet(packet)
    sim.run()
    frames = eps[2].frames()
    assert len(frames) == 1
    assert crc8(frames[0]) == 0


def test_corruption_syndrome_survives_the_hop(sim):
    """A corrupted packet must NOT arrive with a valid CRC: the per-hop
    update may not launder upstream corruption (§4.3.3 depends on it)."""
    switch, eps = build_switch(sim)
    packet = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"corrupt me")
    raw = bytearray(packet.to_bytes())
    raw[5] ^= 0x20  # flip a bit mid-packet, CRC now stale
    burst = data_symbols(bytes(raw))
    burst.append(GAP)
    eps[0].send_symbols(burst)
    sim.run()
    frames = eps[1].frames()
    assert len(frames) == 1
    assert crc8(frames[0]) != 0  # still detectably corrupt


def test_bad_route_byte_discards_frame(sim):
    switch, eps = build_switch(sim)
    packet = MyrinetPacket.for_route([7], PACKET_TYPE_DATA, b"dead end")
    eps[0].send_packet(packet)
    sim.run()
    assert switch.stats["routing_errors"] == 1
    assert eps[1].frames() == []
    assert eps[2].frames() == []


def test_route_back_to_ingress_rejected(sim):
    switch, eps = build_switch(sim)
    packet = MyrinetPacket.for_route([0], PACKET_TYPE_DATA, b"loop")
    eps[0].send_packet(packet)
    sim.run()
    assert switch.stats["routing_errors"] == 1


def test_contention_serializes_frames(sim):
    """Two inputs racing for one output: both frames arrive intact."""
    switch, eps = build_switch(sim)
    a = MyrinetPacket.for_route([2], PACKET_TYPE_DATA, b"from-zero" * 10)
    b = MyrinetPacket.for_route([2], PACKET_TYPE_DATA, b"from-one" * 10)
    eps[0].send_packet(a)
    eps[1].send_packet(b)
    sim.run()
    frames = eps[2].frames()
    assert len(frames) == 2
    payloads = {MyrinetPacket.from_bytes(f).payload for f in frames}
    assert payloads == {a.payload, b.payload}
    assert switch.stats["symbols_dropped"] == 0


def test_many_packets_all_delivered_in_order(sim):
    switch, eps = build_switch(sim)
    for index in range(30):
        eps[0].send_packet(
            MyrinetPacket.for_route([1], PACKET_TYPE_DATA,
                                    bytes([index]) * 20)
        )
    sim.run()
    frames = eps[1].frames()
    assert len(frames) == 30
    for index, frame in enumerate(frames):
        assert MyrinetPacket.from_bytes(frame).payload == bytes([index]) * 20


def test_lost_gap_merges_frames_into_one(sim):
    """Paper §4.3.1: a lost packet-terminating GAP merges packets.  The
    merged frame reaches the destination as ONE packet whose payload has
    the second packet appended — the "misinterpretation of packet tails
    and headers" that loses both messages at the upper layers.  (Because
    CRC-8 with a zero init has residue zero over a concatenation of two
    valid packets, the merge is NOT caught by the link CRC.)"""
    switch, eps = build_switch(sim)
    p1 = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"first")
    p2 = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"second")
    burst = data_symbols(p1.to_bytes())       # no GAP: the "lost" delimiter
    eps[0].send_symbols(burst)
    eps[0].send_packet(p2)
    sim.run()
    frames = eps[1].frames()
    assert len(frames) == 1                   # merged
    parsed = MyrinetPacket.from_bytes(frames[0])
    assert parsed.payload.startswith(b"first")
    assert b"second" in parsed.payload        # tail swallowed as payload
    assert parsed.payload != p1.payload


def test_long_timeout_frees_occupied_path(sim):
    """A frame whose GAP never arrives holds its output port until the
    long-period timeout tears the path down (paper §4.3.1)."""
    switch, eps = build_switch(sim, long_timeout_periods=8_000)  # 100 us
    headless = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"no tail")
    eps[0].send_symbols(data_symbols(headless.to_bytes()))  # no GAP, then quiet
    sim.run_for(20_000 * CHAR)
    blocked = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"queued")
    eps[2].send_packet(blocked)
    sim.run()
    assert switch.stats["long_timeouts"] == 1
    payloads = [
        MyrinetPacket.from_bytes(f).payload
        for f in eps[1].frames() if crc8(f) == 0
    ]
    assert b"queued" in payloads


def test_backpressure_via_stop_pauses_output(sim):
    """A STOP from the downstream receiver halts the output port; the
    symbols wait in the outbox until the state decays."""
    switch, eps = build_switch(sim)
    eps[1].send_symbols([STOP])  # endpoint 1 asserts backpressure
    packet = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"held")
    eps[0].send_packet(packet)
    sim.run()
    # After the decay the frame is released and delivered.
    assert len(eps[1].frames()) == 1
    assert switch.port_flow(1).tx_state.stops_received == 1


def test_flush_quantum_bounds_burst_size(sim):
    switch, eps = build_switch(sim)
    big = MyrinetPacket.for_route([1], PACKET_TYPE_DATA,
                                  bytes(3 * FLUSH_QUANTUM))
    eps[0].send_packet(big)
    sim.run()
    frames = eps[1].frames()
    assert len(frames) == 1
    assert MyrinetPacket.from_bytes(frames[0]).payload == big.payload


def test_port_validation(sim):
    switch = MyrinetSwitch(sim)
    link = Link(sim, "l")
    endpoint = _Endpoint()
    endpoint.tx = link.attach_a(endpoint)
    switch.attach_link(3, link, "b")
    with pytest.raises(ConfigurationError):
        switch.attach_link(3, Link(sim, "l2"), "b")
    with pytest.raises(ConfigurationError):
        switch.attach_link(4, Link(sim, "l3"), "z")
    with pytest.raises(ConfigurationError):
        MyrinetSwitch(sim, num_ports=1)
    with pytest.raises(ConfigurationError):
        MyrinetSwitch(sim, num_ports=100)


def test_port_stats_are_per_port(sim):
    switch, eps = build_switch(sim)
    eps[0].send_packet(MyrinetPacket.for_route([1], PACKET_TYPE_DATA, b"x"))
    sim.run()
    assert switch.port_stats(0)["frames_forwarded"] == 1
    assert switch.port_stats(1)["frames_forwarded"] == 0


def test_control_symbols_not_forwarded(sim):
    """STOP/GO are link-local: the switch consumes them."""
    switch, eps = build_switch(sim)
    eps[0].send_symbols([STOP, GO, STOP])
    sim.run()
    assert eps[1].symbols == []
    assert eps[2].symbols == []
    assert switch.port_flow(0).tx_state.stops_received == 2


def test_crc_zero_pow_rows_match_per_byte_construction():
    """Every row of the zero-byte power table is the per-byte fold of
    the row before it through the CRC-8 table."""
    from repro.myrinet.crc8 import _TABLE
    from repro.myrinet.switch import _CRC_ZERO_POW

    row = bytes(range(256))
    assert len(_CRC_ZERO_POW) == 127
    for n, built in enumerate(_CRC_ZERO_POW):
        assert built == row, n
        row = bytes(_TABLE[c] for c in row)
    assert row == bytes(range(256))  # the permutation has order 127


def test_watermarks_are_validated_against_the_slack(sim):
    """Inverted marks would flap STOP/GO on every update, and a high
    mark above the slack lets a waiting input overflow before STOP can
    assert; both are configuration errors."""
    with pytest.raises(ConfigurationError):
        MyrinetSwitch(sim, high_water=100, low_water=300)
    with pytest.raises(ConfigurationError):
        MyrinetSwitch(sim, slack_capacity=64)  # default marks 512/192
    # A low mark of zero is valid: GO once the input has fully drained.
    MyrinetSwitch(sim, slack_capacity=3, high_water=2, low_water=0)


def test_waiting_input_backpressure_follows_its_slack_buffer(sim):
    """Figure 9 inside the switch: a waiting input parks past high water
    and its flow control asserts STOP; once granted, the replayed frame
    drains through the outbox and GO follows below low water."""
    switch, eps = build_switch(sim, slack_capacity=512, high_water=256,
                               low_water=64)
    buffer = switch._ports[0].buffer
    flow = switch.port_flow(0)
    # Input 2's long frame claims output 1 and drains for ~1000 chars.
    eps[2].send_packet(MyrinetPacket.for_route(
        [1], PACKET_TYPE_DATA, bytes(1000)))
    sim.run_for(1010 * CHAR)
    eps[0].send_packet(MyrinetPacket.for_route(
        [1], PACKET_TYPE_DATA, bytes([0x5A]) * 300))
    sim.run_for(310 * CHAR)
    assert switch._ports[0].mode == "waiting"
    assert buffer.occupancy >= buffer.high_water
    assert (buffer.stop_crossings, buffer.go_crossings) == (1, 0)
    assert buffer.pressured and flow.backpressure_active
    assert flow.refresher.active
    sim.run()
    assert (buffer.stop_crossings, buffer.go_crossings) == (1, 1)
    assert not buffer.pressured and not flow.backpressure_active
    assert flow.refresher.gos_sent == 1
    assert GO in eps[0].symbols and STOP in eps[0].symbols
    assert switch.port_stats(0)["waitbuf_drops"] == buffer.symbols_dropped == 0
    payloads = [MyrinetPacket.from_bytes(f).payload for f in eps[1].frames()]
    assert payloads == [bytes(1000), bytes([0x5A]) * 300]

"""Unit tests for the Myrinet host interface."""

import pytest

from repro.errors import ConfigurationError
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.interface import HostInterface
from repro.myrinet.link import Link
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    PACKET_TYPE_MAPPING,
    MyrinetPacket,
    route_byte,
)
from repro.myrinet.symbols import GAP, Burst, data_symbols

CHAR = 12_500


def make_pair(sim, **kwargs):
    """Two interfaces wired back to back (no switch)."""
    a = HostInterface(sim, "a", MacAddress(0x0A), McpAddress(1), **kwargs)
    b = HostInterface(sim, "b", MacAddress(0x0B), McpAddress(2), **kwargs)
    link = Link(sim, "ab", char_period_ps=CHAR, propagation_ps=0)
    a.attach_link(link, "a")
    b.attach_link(link, "b")
    a.routing_table[b.mac] = []
    b.routing_table[a.mac] = []
    return a, b


def test_send_to_delivers_payload(sim):
    a, b = make_pair(sim)
    received = []
    b.set_data_handler(lambda src, payload: received.append((src, payload)))
    assert a.send_to(b.mac, b"data") is True
    sim.run()
    assert received == [(a.mac, b"data")]
    assert a.packets_sent == 1
    assert b.packets_received == 1


def test_no_route_counted(sim):
    a, b = make_pair(sim)
    assert a.send_to(MacAddress(0xDEAD), b"x") is False
    assert a.no_route_drops == 1


def test_misaddressed_packet_dropped(sim):
    """Paper §4.3.3: "the node drops incoming packets that are
    misaddressed"."""
    a, b = make_pair(sim)
    received = []
    b.set_data_handler(lambda src, payload: received.append(payload))
    wrong = MacAddress(0xBEEF)
    packet = MyrinetPacket(
        route=[], packet_type=PACKET_TYPE_DATA,
        payload=wrong.to_bytes() + a.mac.to_bytes() + b"hi",
    )
    a.send_packet(packet)
    sim.run()
    assert received == []
    assert b.misaddressed_drops == 1


def test_broadcast_accepted(sim):
    a, b = make_pair(sim)
    received = []
    b.set_data_handler(lambda src, payload: received.append(payload))
    packet = MyrinetPacket(
        route=[], packet_type=PACKET_TYPE_DATA,
        payload=MacAddress.broadcast().to_bytes() + a.mac.to_bytes() + b"all",
    )
    a.send_packet(packet)
    sim.run()
    assert received == [b"all"]


def test_msb_route_byte_consumed_as_error(sim):
    """Paper §4.3.2: a leading byte with MSB=1 at the destination is
    consumed and handled as an error."""
    a, b = make_pair(sim)
    received = []
    b.set_data_handler(lambda src, payload: received.append(payload))
    packet = MyrinetPacket.for_route([5], PACKET_TYPE_DATA,
                                     b.mac.to_bytes() + a.mac.to_bytes())
    a.send_packet(packet)  # route byte not consumed: no switch in between
    sim.run()
    assert received == []
    assert b.consume_errors == 1


def test_crc_error_dropped_and_counted(sim):
    a, b = make_pair(sim)
    raw = bytearray(
        MyrinetPacket(
            route=[], packet_type=PACKET_TYPE_DATA,
            payload=b.mac.to_bytes() + a.mac.to_bytes() + b"zap",
        ).to_bytes()
    )
    raw[8] ^= 0x10
    burst = data_symbols(bytes(raw))
    burst.append(GAP)
    a._tx_channel.send(Burst.from_symbols(burst))
    sim.run()
    assert b.crc_errors == 1
    assert b.packets_received == 0


def test_unknown_packet_type_dropped(sim):
    """Paper §4.3.2: corrupted type -> dropped, structures unchanged."""
    a, b = make_pair(sim)
    table_before = dict(b.routing_table)
    packet = MyrinetPacket(route=[], packet_type=0x00F7, payload=b"????")
    a.send_packet(packet)
    sim.run()
    assert b.unknown_type_drops == 1
    assert b.routing_table == table_before


def test_mapping_packets_dispatch_to_handler(sim):
    a, b = make_pair(sim)
    scouts = []
    b.set_mapping_handler(scouts.append)
    a.send_mapping([], b"\x01scoutdata")
    sim.run()
    assert scouts == [b"\x01scoutdata"]


def test_tx_queue_limit(sim):
    a, b = make_pair(sim, tx_queue_depth=4)
    for _ in range(6):
        a.send_to(b.mac, b"x" * 4)
    assert a.tx_queue_rejects == 2
    assert a.tx_queue_length <= 4


def test_tx_long_timeout_drops_stale_packets(sim):
    """Paper §4.3.1: a sender blocked past the long-period timeout
    terminates the packet and consumes the remainder."""
    a, b = make_pair(sim, long_timeout_periods=1000)  # 12.5 us scaled
    a.flow.tx_state.hold()  # permanent backpressure
    a.send_to(b.mac, b"doomed")
    sim.run_for(3000 * CHAR)
    a.flow.tx_state.release()
    sim.run()
    assert a.tx_timeout_drops == 1
    assert b.packets_received == 0


def test_double_attach_rejected(sim):
    a, b = make_pair(sim)
    with pytest.raises(ConfigurationError):
        a.attach_link(Link(sim, "x"), "a")


def test_flow_property_requires_attachment(sim):
    interface = HostInterface(sim, "lone", MacAddress(1), McpAddress(1))
    with pytest.raises(ConfigurationError):
        _ = interface.flow
    assert not interface.attached


def test_stats_snapshot_keys(sim):
    a, b = make_pair(sim)
    stats = a.stats
    for key in ("packets_sent", "packets_received", "crc_errors",
                "consume_errors", "misaddressed_drops", "no_route_drops",
                "tx_timeout_drops", "oversize_frames"):
        assert key in stats


def test_truncated_data_packet_counted(sim):
    a, b = make_pair(sim)
    packet = MyrinetPacket(route=[], packet_type=PACKET_TYPE_DATA,
                           payload=b"short")  # < 12-byte address header
    a.send_packet(packet)
    sim.run()
    assert b.truncated_frames == 1

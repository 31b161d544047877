"""The header codecs against the pre-codec classes.

The host path encodes and decodes frames through one function pair per
header (:mod:`repro.myrinet.packet`, :mod:`repro.hostsim.ip`,
:mod:`repro.hostsim.udp`) and builds no header objects per packet.
``tests/fixtures/codecs_prechange.py`` holds the classes it replaced;
these properties require the send path to build byte-identical frames and
the receive path to count every corrupted frame the way a decode through
those classes does.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, CrcError, ProtocolError
from repro.hostsim.sockets import HostStack
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.crc8 import crc8
from repro.myrinet.interface import DATA_HEADER_LEN, HostInterface
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    PACKET_TYPE_MAPPING,
    decode_frame,
    encode_frame,
)
from repro.sim import Simulator
from tests.fixtures import codecs_prechange as old

SRC_MAC = MacAddress(0x0060DD000102)
DST_MAC = MacAddress(0x0060DD0A0B0C)
BOUND_PORT = 5001

#: Offsets into a host-side frame (route exhausted): type, MAC header,
#: IP-lite header, UDP header.
_TYPE = 0
_DEST_MAC = 4
_IP = 4 + DATA_HEADER_LEN
_UDP = _IP + old.IP_HEADER_LEN

_INTERFACE_COUNTERS = (
    "crc_errors",
    "truncated_frames",
    "consume_errors",
    "unknown_type_drops",
    "misaddressed_drops",
    "packets_received",
)
_STACK_COUNTERS = (
    "parse_drops",
    "checksum_drops",
    "unbound_drops",
    "udp_delivered",
)


def _host(sim: Simulator, mac: MacAddress):
    interface = HostInterface(sim, "h", mac, McpAddress(mac.value))
    stack = HostStack(sim, interface, jitter_ps=0)
    delivered = []
    stack.bind(BOUND_PORT, lambda *args: delivered.append(args))
    return interface, stack, delivered


def _old_frame(route, src_port, dst_port, payload) -> bytes:
    """The frame the pre-codec classes build for one UDP send."""
    datagram = old.UdpDatagram(src_port=src_port, dst_port=dst_port,
                               payload=payload)
    ip = old.IpLiteHeader(src=old.IpAddress.for_mac(SRC_MAC),
                          dst=old.IpAddress.for_mac(DST_MAC))
    udp_bytes = datagram.to_bytes(ip)
    ip.total_length = old.IP_HEADER_LEN + len(udp_bytes)
    packet = old.MyrinetPacket.for_route(
        route,
        PACKET_TYPE_DATA,
        DST_MAC.to_bytes() + SRC_MAC.to_bytes() + ip.to_bytes() + udp_bytes,
    )
    return packet.to_bytes()


routes = st.lists(st.integers(0, 63), max_size=4)
ports = st.integers(0, 0xFFFF)
payloads = st.binary(max_size=96)


@settings(max_examples=150, deadline=None)
@given(routes, ports, ports, payloads)
def test_send_path_frames_match_the_class_encoding(route, src_port,
                                                   dst_port, payload):
    sim = Simulator()
    interface, stack, _ = _host(sim, SRC_MAC)
    interface.routing_table[DST_MAC] = route
    stack._transmit(DST_MAC, dst_port, payload, src_port)
    frame, _enqueued = interface._tx_queue[-1]
    assert frame == _old_frame(route, src_port, dst_port, payload)
    assert stack.udp_sent == 1


@settings(max_examples=100, deadline=None)
@given(routes, st.sampled_from([PACKET_TYPE_DATA, PACKET_TYPE_MAPPING, 7]),
       payloads)
def test_frame_codec_round_trips_like_the_class(route, packet_type, payload):
    packet = old.MyrinetPacket.for_route(route, packet_type, payload)
    frame = encode_frame(bytes(packet.route), packet_type, payload)
    assert frame == packet.to_bytes()
    raw_route, decoded_type, decoded = decode_frame(frame, len(route))
    again = old.MyrinetPacket.from_bytes(frame, route_len=len(route))
    assert (list(raw_route), decoded_type, decoded) == (
        again.route, again.packet_type, again.payload
    )


def _old_receive(frame: bytes) -> dict:
    """Counter deltas of one frame received through the pre-codec classes.

    Mirrors the host path's order of checks: leading MSB, frame CRC and
    length, packet type, payload length, destination MAC, IP-lite
    header, UDP header and checksum, port binding.
    """
    counts = dict.fromkeys(_INTERFACE_COUNTERS + _STACK_COUNTERS, 0)
    if frame[0] & 0x80:
        counts["consume_errors"] += 1
        return counts
    try:
        packet = old.MyrinetPacket.from_bytes(frame, route_len=0)
    except CrcError:
        counts["crc_errors"] += 1
        return counts
    except ProtocolError:
        counts["truncated_frames"] += 1
        return counts
    if packet.packet_type == PACKET_TYPE_MAPPING:
        return counts
    if packet.packet_type != PACKET_TYPE_DATA:
        counts["unknown_type_drops"] += 1
        return counts
    if len(packet.payload) < DATA_HEADER_LEN:
        counts["truncated_frames"] += 1
        return counts
    if packet.payload[:6] not in (DST_MAC.to_bytes(),
                                  MacAddress.broadcast().to_bytes()):
        counts["misaddressed_drops"] += 1
        return counts
    counts["packets_received"] += 1
    body = packet.payload[DATA_HEADER_LEN:]
    try:
        ip = old.IpLiteHeader.from_bytes(body[:old.IP_HEADER_LEN])
    except ProtocolError:
        counts["parse_drops"] += 1
        return counts
    if ip.protocol != old.PROTO_UDP:
        counts["parse_drops"] += 1
        return counts
    try:
        datagram = old.UdpDatagram.from_bytes(body[old.IP_HEADER_LEN:], ip)
    except ChecksumError:
        counts["checksum_drops"] += 1
        return counts
    except ProtocolError:
        counts["parse_drops"] += 1
        return counts
    if datagram.dst_port != BOUND_PORT:
        counts["unbound_drops"] += 1
        return counts
    counts["udp_delivered"] += 1
    return counts


def _reseal(frame: bytes) -> bytes:
    """Recompute the trailing CRC-8 so a corruption reaches the layers
    above the frame check."""
    body = frame[:-1]
    return body + bytes((crc8(body),))


corruptions = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 200)),
    st.tuples(st.just("version"), st.integers(0, 255)),
    st.tuples(st.just("protocol"), st.integers(0, 255)),
    st.tuples(st.just("udp_length"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("checksum"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("type"), st.sampled_from(
        [PACKET_TYPE_DATA, PACKET_TYPE_MAPPING, 0, 6, 0x10004])),
    st.tuples(st.just("dest_mac"), st.sampled_from(
        [DST_MAC.value, SRC_MAC.value, (1 << 48) - 1, 0])),
    st.tuples(st.just("msb"), st.integers(0x80, 0xFF)),
    st.tuples(st.just("none"), st.just(0)),
)


#: Where each corruption writes, and how many bytes wide.
_FIELDS = {
    "version": (_IP, 1),
    "protocol": (_IP + 1, 1),
    "udp_length": (_UDP + 4, 2),
    "checksum": (_UDP + 6, 2),
    "type": (_TYPE, 4),
    "dest_mac": (_DEST_MAC, 6),
    "msb": (0, 1),
}


def _corrupt(frame: bytes, corruption) -> bytes:
    kind, value = corruption
    if kind == "truncate":
        return frame[:max(1, len(frame) - value)]
    if kind == "none":
        return frame
    offset, width = _FIELDS[kind]
    if offset + width > len(frame):
        return frame  # already truncated away
    return frame[:offset] + value.to_bytes(width, "big") + frame[offset + width:]


@settings(max_examples=300, deadline=None)
@given(ports, st.sampled_from([BOUND_PORT, BOUND_PORT + 1]), payloads,
       st.lists(corruptions, min_size=1, max_size=2), st.booleans())
def test_receive_path_counts_like_the_class_decode(src_port, dst_port,
                                                   payload, damage, reseal):
    frame = _old_frame([], src_port, dst_port, payload)
    for corruption in damage:
        frame = _corrupt(frame, corruption)
    if reseal:
        frame = _reseal(frame)
    sim = Simulator()
    interface, stack, delivered = _host(sim, DST_MAC)
    interface._on_frame(frame)
    sim.run()
    counts = {name: getattr(interface, name) for name in _INTERFACE_COUNTERS}
    counts.update({name: getattr(stack, name) for name in _STACK_COUNTERS})
    assert counts == _old_receive(frame)
    assert interface.frames_received == 1
    if delivered:
        src_mac, src_ip, got_port, data = delivered[0]
        assert src_mac == SRC_MAC
        assert str(src_ip) == str(old.IpAddress.for_mac(SRC_MAC))
        assert (got_port, data) == (src_port, payload)

"""Unit tests for addresses and Myrinet packet encode/parse."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CrcError, ProtocolError, RoutingError
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.crc8 import crc8
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    PACKET_TYPE_MAPPING,
    ROUTE_MSB,
    TYPE_FIELD_LEN,
    MyrinetPacket,
    is_route_byte,
    route_byte,
    route_port,
)


class TestAddresses:
    def test_mac_format_roundtrip(self):
        mac = MacAddress(0x02_00_5E_00_00_01)
        assert str(mac) == "02:00:5e:00:00:01"
        assert MacAddress.parse(str(mac)) == mac
        assert MacAddress.from_bytes(mac.to_bytes()) == mac

    @given(raw=st.binary(min_size=6, max_size=6))
    def test_mac_text_is_the_hex_of_its_bytes(self, raw):
        """The statistics gatherer keys packet pairs with ``hex(":")`` of
        the header bytes; it must equal the address's own text form."""
        assert raw.hex(":") == str(MacAddress.from_bytes(raw))

    def test_mcp_is_64_bit(self):
        mcp = McpAddress(0x1234_5678_9ABC_DEF0)
        assert len(mcp.to_bytes()) == 8
        assert McpAddress.from_bytes(mcp.to_bytes()) == mcp

    def test_range_checks(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)
        with pytest.raises(ValueError):
            McpAddress(-1)

    def test_ordering(self):
        assert McpAddress(2) > McpAddress(1)
        assert McpAddress(1) >= McpAddress(1)
        assert MacAddress(1) < MacAddress(2)

    def test_broadcast(self):
        assert MacAddress.broadcast().value == (1 << 48) - 1

    def test_wrong_byte_count_rejected(self):
        with pytest.raises(ValueError):
            MacAddress.from_bytes(b"\x00" * 5)

    def test_hash_distinguishes_types(self):
        assert hash(MacAddress(5)) != hash(McpAddress(5))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            MacAddress(1).value = 2  # type: ignore[misc]


class TestRouteBytes:
    def test_route_byte_has_msb(self):
        assert route_byte(3) == 0x83
        assert is_route_byte(route_byte(0))

    def test_route_port_extraction(self):
        assert route_port(route_byte(7)) == 7

    def test_port_range_enforced(self):
        with pytest.raises(RoutingError):
            route_byte(64)

    def test_type_field_first_byte_not_route(self):
        raw = PACKET_TYPE_DATA.to_bytes(TYPE_FIELD_LEN, "big")
        assert not is_route_byte(raw[0])


class TestMyrinetPacket:
    def test_wire_layout(self):
        """Paper Fig. 6: route | 4-byte type | payload | CRC-8."""
        packet = MyrinetPacket.for_route([1, 2], PACKET_TYPE_DATA, b"hi")
        raw = packet.to_bytes()
        assert raw[0] == route_byte(1)
        assert raw[1] == route_byte(2)
        assert raw[2:6] == (0x0004).to_bytes(4, "big")
        assert raw[6:8] == b"hi"
        assert crc8(raw) == 0
        assert len(raw) == packet.wire_length

    def test_parse_roundtrip_at_host(self):
        packet = MyrinetPacket(route=[], packet_type=PACKET_TYPE_MAPPING,
                               payload=b"scout data")
        parsed = MyrinetPacket.from_bytes(packet.to_bytes())
        assert parsed.packet_type == PACKET_TYPE_MAPPING
        assert parsed.payload == b"scout data"
        assert parsed.route == []

    def test_parse_with_remaining_route(self):
        packet = MyrinetPacket.for_route([5], PACKET_TYPE_DATA, b"x")
        parsed = MyrinetPacket.from_bytes(packet.to_bytes(), route_len=1)
        assert parsed.route == [route_byte(5)]

    def test_crc_error_raised(self):
        raw = bytearray(MyrinetPacket(payload=b"abc").to_bytes())
        raw[-2] ^= 0x40
        with pytest.raises(CrcError):
            MyrinetPacket.from_bytes(bytes(raw))

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError):
            MyrinetPacket.from_bytes(b"\x00\x00")

    def test_strip_hop_consumes_route(self):
        packet = MyrinetPacket.for_route([3, 1], PACKET_TYPE_DATA, b"")
        assert packet.strip_hop() == 3
        assert packet.strip_hop() == 1
        with pytest.raises(RoutingError):
            packet.strip_hop()

    def test_reserialization_after_strip_recomputes_crc(self):
        packet = MyrinetPacket.for_route([3], PACKET_TYPE_DATA, b"payload")
        packet.strip_hop()
        raw = packet.to_bytes()
        assert crc8(raw) == 0
        assert raw[0:TYPE_FIELD_LEN] == (0x0004).to_bytes(4, "big")

    def test_bad_type_rejected(self):
        with pytest.raises(ProtocolError):
            MyrinetPacket(packet_type=1 << 40)

    @given(
        st.lists(st.integers(min_value=0, max_value=63), max_size=4),
        st.sampled_from([PACKET_TYPE_DATA, PACKET_TYPE_MAPPING, 0x0007]),
        st.binary(max_size=200),
    )
    def test_roundtrip_property(self, ports, packet_type, payload):
        packet = MyrinetPacket.for_route(ports, packet_type, payload)
        parsed = MyrinetPacket.from_bytes(packet.to_bytes(),
                                          route_len=len(ports))
        assert parsed.packet_type == packet_type
        assert parsed.payload == payload
        assert [route_port(b) for b in parsed.route] == ports

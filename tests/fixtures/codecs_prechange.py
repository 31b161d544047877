"""Vendored pre-codec snapshot of the packet, IP-lite and UDP classes.

These are ``MyrinetPacket``, ``IpAddress``, ``IpLiteHeader`` and
``UdpDatagram`` as they stood before each header got one encode/decode
function pair over bytes and the host path stopped building objects per
packet.  They are kept verbatim (only this paragraph and the imports
added, and the IP header length renamed ``IP_HEADER_LEN`` beside UDP's
``HEADER_LEN``) as the oracle for ``tests/test_header_codecs.py``, which requires
the shipped send path to build byte-identical frames and the shipped
receive path to count every corrupted frame exactly as a decode through
these classes does.  Do not modify them to track the shipped code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ChecksumError, CrcError, ProtocolError, RoutingError
from repro.hostsim.checksum import internet_checksum, verify_checksum
from repro.myrinet.addresses import MacAddress
from repro.myrinet.crc8 import crc8
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    TYPE_FIELD_LEN,
    route_byte,
    route_port,
)

#: Serialized IP-lite header length in bytes.
IP_HEADER_LEN = 12
#: UDP header length.
HEADER_LEN = 8
PROTO_UDP = 17


@dataclass
class MyrinetPacket:
    """A parsed (or to-be-sent) Myrinet packet.

    ``route`` holds the *remaining* route as raw route bytes; it shrinks
    as the packet crosses switches.
    """

    route: List[int] = field(default_factory=list)
    packet_type: int = PACKET_TYPE_DATA
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.packet_type < (1 << (8 * TYPE_FIELD_LEN)):
            raise ProtocolError(f"packet type {self.packet_type:#x} too wide")
        for byte in self.route:
            if not 0 <= byte <= 0xFF:
                raise ProtocolError(f"route byte {byte!r} out of range")

    @classmethod
    def for_route(
        cls,
        ports: Sequence[int],
        packet_type: int,
        payload: bytes,
    ) -> "MyrinetPacket":
        """Build a packet whose route visits switch output ``ports`` in order."""
        return cls(
            route=[route_byte(p) for p in ports],
            packet_type=packet_type,
            payload=bytes(payload),
        )

    def header_bytes(self) -> bytes:
        """Route bytes followed by the 4-byte type field."""
        return bytes(self.route) + self.packet_type.to_bytes(TYPE_FIELD_LEN, "big")

    def to_bytes(self) -> bytes:
        """Wire encoding: header, payload, and the trailing CRC-8."""
        body = self.header_bytes() + self.payload
        return body + bytes([crc8(body)])

    @classmethod
    def from_bytes(cls, raw: Sequence[int], route_len: int = 0) -> "MyrinetPacket":
        """Parse a frame as seen on a link.

        ``route_len`` says how many route bytes remain at the head of the
        frame (a host parses with 0; test code inspecting mid-network
        frames passes the remaining hop count).  Raises :class:`CrcError`
        if the trailing CRC-8 does not verify, :class:`ProtocolError` on
        truncated frames.
        """
        data = bytes(raw)
        minimum = route_len + TYPE_FIELD_LEN + 1
        if len(data) < minimum:
            raise ProtocolError(
                f"frame of {len(data)} bytes shorter than minimum {minimum}"
            )
        if crc8(data) != 0:
            raise CrcError(
                f"CRC-8 mismatch on {len(data)}-byte frame "
                f"(residue {crc8(data):#04x})"
            )
        route = list(data[:route_len])
        type_end = route_len + TYPE_FIELD_LEN
        packet_type = int.from_bytes(data[route_len:type_end], "big")
        payload = data[type_end:-1]
        return cls(route=route, packet_type=packet_type, payload=payload)

    def strip_hop(self) -> int:
        """Consume the leading route byte, returning the output port.

        Models a switch hop; the caller re-serializes (which recomputes
        the CRC over the shortened packet).
        """
        if not self.route:
            raise RoutingError("no route bytes left to strip")
        return route_port(self.route.pop(0))

    @property
    def wire_length(self) -> int:
        """Total length on the wire including CRC byte."""
        return len(self.route) + TYPE_FIELD_LEN + len(self.payload) + 1

    def __repr__(self) -> str:
        route = ",".join(f"{b:#04x}" for b in self.route)
        return (
            f"MyrinetPacket(route=[{route}], type={self.packet_type:#06x}, "
            f"payload={len(self.payload)}B)"
        )


@dataclass(frozen=True)
class IpAddress:
    """A 32-bit IP-lite address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 32):
            raise ProtocolError(f"IP address {self.value:#x} out of range")

    @classmethod
    def for_mac(cls, mac: MacAddress) -> "IpAddress":
        """The conventional 10.0.x.y address of a host."""
        low = mac.value & 0xFFFF
        return cls((10 << 24) | (0 << 16) | low)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IpAddress":
        if len(raw) != 4:
            raise ProtocolError(f"IP address needs 4 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24 & 0xFF}.{v >> 16 & 0xFF}.{v >> 8 & 0xFF}.{v & 0xFF}"


@dataclass
class IpLiteHeader:
    """The IP-lite header preceding a UDP datagram."""

    src: IpAddress
    dst: IpAddress
    protocol: int = PROTO_UDP
    total_length: int = 0

    def to_bytes(self) -> bytes:
        return (
            bytes([0x45, self.protocol])
            + self.total_length.to_bytes(2, "big")
            + self.src.to_bytes()
            + self.dst.to_bytes()
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IpLiteHeader":
        if len(raw) < IP_HEADER_LEN:
            raise ProtocolError("truncated IP-lite header")
        if raw[0] != 0x45:
            raise ProtocolError(f"bad IP-lite version byte {raw[0]:#04x}")
        return cls(
            src=IpAddress.from_bytes(raw[4:8]),
            dst=IpAddress.from_bytes(raw[8:12]),
            protocol=raw[1],
            total_length=int.from_bytes(raw[2:4], "big"),
        )

    def pseudo_header(self, udp_length: int) -> bytes:
        """The UDP checksum pseudo-header."""
        return (
            self.src.to_bytes()
            + self.dst.to_bytes()
            + bytes([0, self.protocol])
            + udp_length.to_bytes(2, "big")
        )


@dataclass
class UdpDatagram:
    """One UDP datagram."""

    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ProtocolError(f"UDP port {port} out of range")

    @property
    def length(self) -> int:
        return HEADER_LEN + len(self.payload)

    def to_bytes(self, ip: IpLiteHeader) -> bytes:
        """Serialize with the checksum computed over the pseudo-header,
        the UDP header, and the payload."""
        header_no_sum = (
            self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.length.to_bytes(2, "big")
        )
        checksum = internet_checksum(
            ip.pseudo_header(self.length) + header_no_sum + b"\x00\x00"
            + self.payload
        )
        return header_no_sum + checksum.to_bytes(2, "big") + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes, ip: IpLiteHeader) -> "UdpDatagram":
        """Parse and verify; raises :class:`ChecksumError` when the
        checksum does not validate (the datagram must be dropped)."""
        if len(raw) < HEADER_LEN:
            raise ProtocolError("truncated UDP header")
        length = int.from_bytes(raw[4:6], "big")
        if length != len(raw):
            raise ProtocolError(
                f"UDP length field {length} != datagram size {len(raw)}"
            )
        if not verify_checksum(ip.pseudo_header(length) + raw):
            raise ChecksumError("UDP checksum mismatch")
        return cls(
            src_port=int.from_bytes(raw[0:2], "big"),
            dst_port=int.from_bytes(raw[2:4], "big"),
            payload=raw[HEADER_LEN:],
        )

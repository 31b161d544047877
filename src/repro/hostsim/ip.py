"""Minimal IP layer ("IP-lite") carried inside Myrinet data packets.

Just enough of IP to give UDP a pseudo-header and the stack an address
space: a version/protocol byte pair, a 16-bit total length, and 4-byte
source/destination addresses.  Addresses are derived from the host
interface's 48-bit physical address (10.0.x.y from the low two bytes),
matching how the test-bed assigned per-node IPs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ProtocolError
from repro.myrinet.addresses import MacAddress

#: Protocol number for UDP, as in real IP.
PROTO_UDP = 17

#: Serialized header length in bytes.
HEADER_LEN = 12

#: The version byte every IP-lite header starts with.
VERSION_BYTE = 0x45

#: version, protocol, total length, source, destination.
_HEADER = struct.Struct(">BBH4s4s")
#: source, destination, zero, protocol, UDP length.
_PSEUDO = struct.Struct(">4s4sxBH")
#: High bytes of every host address: the 10.0.0.0/16 test-bed net.
_NET_PREFIX = bytes((10, 0))


def address_for_mac(mac: MacAddress) -> bytes:
    """The 4-byte conventional 10.0.x.y address of a host: its low two
    physical-address bytes under the test-bed prefix."""
    return _NET_PREFIX + (mac.value & 0xFFFF).to_bytes(2, "big")


# ---------------------------------------------------------------------------
# the header codec: one encode/decode pair over bytes, no per-packet objects
# ---------------------------------------------------------------------------


def encode_ip(src: bytes, dst: bytes, protocol: int, total_length: int) -> bytes:
    """The 12-byte header for 4-byte ``src``/``dst`` addresses."""
    return _HEADER.pack(VERSION_BYTE, protocol, total_length, src, dst)


def decode_ip(raw: bytes) -> Tuple[bytes, bytes, int, int]:
    """``(src, dst, protocol, total_length)`` of the header at the head
    of ``raw``; raises :class:`ProtocolError` when it is truncated or its
    version byte is wrong."""
    if len(raw) < HEADER_LEN:
        raise ProtocolError("truncated IP-lite header")
    version, protocol, total_length, src, dst = _HEADER.unpack_from(raw)
    if version != VERSION_BYTE:
        raise ProtocolError(f"bad IP-lite version byte {version:#04x}")
    return src, dst, protocol, total_length


def pseudo_header(src: bytes, dst: bytes, protocol: int, udp_length: int) -> bytes:
    """The UDP checksum pseudo-header."""
    return _PSEUDO.pack(src, dst, protocol, udp_length)


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
        return cls(int.from_bytes(address_for_mac(mac), "big"))

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
        return encode_ip(
            self.src.to_bytes(), self.dst.to_bytes(), self.protocol,
            self.total_length,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IpLiteHeader":
        src, dst, protocol, total_length = decode_ip(raw)
        return cls(
            src=IpAddress.from_bytes(src),
            dst=IpAddress.from_bytes(dst),
            protocol=protocol,
            total_length=total_length,
        )

    def pseudo_header(self, udp_length: int) -> bytes:
        """The UDP checksum pseudo-header."""
        return pseudo_header(
            self.src.to_bytes(), self.dst.to_bytes(), self.protocol, udp_length
        )

"""Myrinet packet structure (paper Figure 6).

A Myrinet packet consists of::

    | arbitrarily long source route | 4-byte type | payload | CRC-8 |

* Every **route byte** has its most-significant bit set (MSB=1 marks "this
  hop is a switch"); a switch consumes the leading byte and uses the low
  bits to select an output port, then recomputes the trailing CRC-8.
  When a packet reaches a host interface the route must be exhausted, so
  the first byte the host sees (the first type byte, 0x00) has MSB=0.
  A host receiving a leading byte with MSB=1 consumes the packet and
  handles it as an error (paper §4.3.2, "source route corruption").
* The **type field** is 4 bytes; its two significant bytes carry the
  values the paper's experiments corrupt: 0x0004 (data) and 0x0005
  (mapping).
* **CRC-8** covers everything from the current head of the packet to the
  end of the payload and is recomputed at every hop as route bytes are
  stripped (paper §4.1).

.. note::
   Real Myrinet route bytes are *relative* port deltas; we use absolute
   output-port numbers (documented substitution in DESIGN.md).  The MSB
   semantics the experiments depend on are identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import CrcError, ProtocolError, RoutingError
from repro.myrinet.crc8 import crc8

#: Width of the packet type field on the wire.
TYPE_FIELD_LEN = 4

_TYPE_FIELD = struct.Struct(">I")

#: Packet type carried by ordinary data packets (paper §4.3.2).
PACKET_TYPE_DATA = 0x0004
#: Packet type carried by hardware-generated mapping packets (paper §4.3.2).
PACKET_TYPE_MAPPING = 0x0005

#: Mask/flag for the MSB of a route byte.
ROUTE_MSB = 0x80
#: Low bits of a route byte carry the absolute output port (up to 64 ports).
ROUTE_PORT_MASK = 0x3F


def route_byte(port: int) -> int:
    """Encode an output-port selection as a route byte (MSB set)."""
    if not 0 <= port <= ROUTE_PORT_MASK:
        raise RoutingError(f"switch port {port} outside route-byte range")
    return ROUTE_MSB | port


def route_port(byte: int) -> int:
    """Decode the output port from a route byte."""
    return byte & ROUTE_PORT_MASK


def is_route_byte(byte: int) -> bool:
    """True if a leading packet byte is a (remaining) route byte."""
    return bool(byte & ROUTE_MSB)


def encode_route(ports: Sequence[int]) -> bytes:
    """Route bytes visiting switch output ``ports`` in order."""
    return bytes([route_byte(port) for port in ports])


# ---------------------------------------------------------------------------
# the frame codec: one encode/decode pair over bytes, no per-packet objects
# ---------------------------------------------------------------------------


def encode_frame(route: bytes, packet_type: int, payload: bytes) -> bytes:
    """Wire encoding: route bytes, the 4-byte type, payload, CRC-8."""
    body = route + _TYPE_FIELD.pack(packet_type) + payload
    return body + bytes((crc8(body),))


def decode_frame(frame: bytes, route_len: int = 0) -> Tuple[bytes, int, bytes]:
    """Split a frame as seen on a link into ``(route, type, payload)``.

    ``route_len`` says how many route bytes remain at the head of the
    frame (a host decodes with 0).  Raises :class:`ProtocolError` on
    frames too short to hold the header and CRC, :class:`CrcError` when
    the trailing CRC-8 does not verify.
    """
    minimum = route_len + TYPE_FIELD_LEN + 1
    if len(frame) < minimum:
        raise ProtocolError(
            f"frame of {len(frame)} bytes shorter than minimum {minimum}"
        )
    residue = crc8(frame)
    if residue:
        raise CrcError(
            f"CRC-8 mismatch on {len(frame)}-byte frame "
            f"(residue {residue:#04x})"
        )
    return (
        frame[:route_len],
        _TYPE_FIELD.unpack_from(frame, route_len)[0],
        frame[route_len + TYPE_FIELD_LEN:-1],
    )


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
            route=list(encode_route(ports)),
            packet_type=packet_type,
            payload=bytes(payload),
        )

    def header_bytes(self) -> bytes:
        """Route bytes followed by the 4-byte type field."""
        return bytes(self.route) + self.packet_type.to_bytes(TYPE_FIELD_LEN, "big")

    def to_bytes(self) -> bytes:
        """Wire encoding (see :func:`encode_frame`)."""
        return encode_frame(bytes(self.route), self.packet_type, self.payload)

    @classmethod
    def from_bytes(cls, raw: Sequence[int], route_len: int = 0) -> "MyrinetPacket":
        """Parse a frame as seen on a link (see :func:`decode_frame`).

        Test code inspecting mid-network frames passes the remaining hop
        count as ``route_len``.
        """
        route, packet_type, payload = decode_frame(bytes(raw), route_len)
        return cls(route=list(route), packet_type=packet_type, payload=payload)

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

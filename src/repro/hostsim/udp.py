"""UDP datagrams with the real one's-complement checksum.

"Since UDP uses a 16-bit one's complement checksum, corrupt packets
should be detected and dropped by the UDP layer.  However, if the fault
is manifested in a way that also satisfies the checksum, the incorrect
packet should be passed through." (paper §4.3.4)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ChecksumError, ProtocolError
from repro.hostsim.checksum import internet_checksum, verify_checksum
from repro.hostsim.ip import PROTO_UDP, IpLiteHeader, pseudo_header

#: UDP header length.
HEADER_LEN = 8

#: source port, destination port, length (the checksum follows).
_PORTS_AND_LENGTH = struct.Struct(">HHH")


def _check_port(port: int) -> None:
    if not 0 <= port <= 0xFFFF:
        raise ProtocolError(f"UDP port {port} out of range")


# ---------------------------------------------------------------------------
# the datagram codec: one encode/decode pair over bytes, no per-packet objects
# ---------------------------------------------------------------------------


def encode_udp(
    src_port: int,
    dst_port: int,
    payload: bytes,
    src_ip: bytes,
    dst_ip: bytes,
    protocol: int = PROTO_UDP,
) -> bytes:
    """Serialize with the checksum computed over the pseudo-header (of
    the 4-byte ``src_ip``/``dst_ip``), the UDP header, and the payload.
    Raises :class:`ProtocolError` for a port outside 16 bits."""
    _check_port(src_port)
    _check_port(dst_port)
    length = HEADER_LEN + len(payload)
    header_no_sum = _PORTS_AND_LENGTH.pack(src_port, dst_port, length)
    checksum = internet_checksum(
        pseudo_header(src_ip, dst_ip, protocol, length) + header_no_sum
        + b"\x00\x00" + payload
    )
    return header_no_sum + checksum.to_bytes(2, "big") + payload


def decode_udp(
    raw: bytes,
    src_ip: bytes,
    dst_ip: bytes,
    protocol: int = PROTO_UDP,
) -> Tuple[int, int, bytes]:
    """Parse and verify ``raw`` into ``(src_port, dst_port, payload)``.

    Raises :class:`ProtocolError` when the header is truncated or its
    length field disagrees with the datagram size, and
    :class:`ChecksumError` when the checksum does not validate (the
    datagram must be dropped).
    """
    if len(raw) < HEADER_LEN:
        raise ProtocolError("truncated UDP header")
    src_port, dst_port, length = _PORTS_AND_LENGTH.unpack_from(raw)
    if length != len(raw):
        raise ProtocolError(
            f"UDP length field {length} != datagram size {len(raw)}"
        )
    if not verify_checksum(pseudo_header(src_ip, dst_ip, protocol, length) + raw):
        raise ChecksumError("UDP checksum mismatch")
    return src_port, dst_port, raw[HEADER_LEN:]


@dataclass
class UdpDatagram:
    """One UDP datagram."""

    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        _check_port(self.src_port)
        _check_port(self.dst_port)

    @property
    def length(self) -> int:
        return HEADER_LEN + len(self.payload)

    def to_bytes(self, ip: IpLiteHeader) -> bytes:
        """Serialize (see :func:`encode_udp`) under ``ip``'s addresses."""
        return encode_udp(
            self.src_port, self.dst_port, self.payload,
            ip.src.to_bytes(), ip.dst.to_bytes(), ip.protocol,
        )

    @classmethod
    def from_bytes(cls, raw: bytes, ip: IpLiteHeader) -> "UdpDatagram":
        """Parse and verify (see :func:`decode_udp`)."""
        src_port, dst_port, payload = decode_udp(
            raw, ip.src.to_bytes(), ip.dst.to_bytes(), ip.protocol
        )
        return cls(src_port=src_port, dst_port=dst_port, payload=payload)

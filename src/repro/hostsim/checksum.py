"""The Internet one's-complement checksum (RFC 1071), as UDP uses it.

The paper's §4.3.4 experiment hinges on a structural blind spot of this
checksum: it is a *commutative* sum of 16-bit words, so exchanging two
aligned 16-bit words — "swapping bits that are 16 bits apart" — leaves
the checksum unchanged.  That is how "Have a lot of fun" became
"veHa a lot of fun" and still passed.
"""

from __future__ import annotations


def ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum of ``data`` (odd length zero-padded).

    Closed form of the RFC 1071 end-around-carry loop: read as one
    big-endian integer, the data is the sum of its 16-bit words times
    powers of 2**16, and 2**16 == 1 (mod 0xFFFF), so the folded sum is
    that integer's residue mod 0xFFFF, taken in 1..0xFFFF unless every
    word is zero.
    """
    if len(data) % 2:
        data = data + b"\x00"
    n = int.from_bytes(data, "big")
    return 0 if n == 0 else (n - 1) % 0xFFFF + 1


def internet_checksum(data: bytes) -> int:
    """The transmitted checksum: one's complement of the sum.

    As in real UDP, a computed value of 0x0000 is transmitted as 0xFFFF
    (0x0000 on the wire means "no checksum").
    """
    value = (~ones_complement_sum(data)) & 0xFFFF
    return 0xFFFF if value == 0 else value


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (which embeds its checksum field) verifies.

    A correct checksum makes the one's-complement sum of the whole
    message 0xFFFF.
    """
    return ones_complement_sum(data) == 0xFFFF

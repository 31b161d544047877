"""Myrinet addressing.

Two address spaces appear in the paper:

* 48-bit Ethernet-style **physical addresses** identify Myrinet host
  ports and appear in data-packet headers (paper §4.3.3);
* 64-bit **MCP addresses** identify Myrinet Control Program instances;
  the MCP with the highest address maps the network (paper §4.1).
"""

from __future__ import annotations

from typing import Iterable


class _IntAddress:
    """An immutable fixed-width integer address."""

    __slots__ = ("value",)

    BITS = 0
    SEPARATOR = ":"

    def __init__(self, value: int) -> None:
        limit = 1 << self.BITS
        if not 0 <= value < limit:
            raise ValueError(
                f"{type(self).__name__} value {value:#x} outside "
                f"{self.BITS}-bit range"
            )
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "_IntAddress") -> bool:
        if isinstance(other, type(self)):
            return self.value < other.value
        return NotImplemented

    def __le__(self, other: "_IntAddress") -> bool:
        if isinstance(other, type(self)):
            return self.value <= other.value
        return NotImplemented

    def __gt__(self, other: "_IntAddress") -> bool:
        if isinstance(other, type(self)):
            return self.value > other.value
        return NotImplemented

    def __ge__(self, other: "_IntAddress") -> bool:
        if isinstance(other, type(self)):
            return self.value >= other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.value))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __str__(self) -> str:
        return self.to_bytes().hex(self.SEPARATOR)

    def to_bytes(self) -> bytes:
        """Big-endian wire encoding."""
        return self.value.to_bytes(self.BITS // 8, "big")

    @classmethod
    def from_bytes(cls, raw: Iterable[int]) -> "_IntAddress":
        """Decode from big-endian bytes (must be exactly BITS/8 long)."""
        data = bytes(raw)
        if len(data) != cls.BITS // 8:
            raise ValueError(
                f"{cls.__name__} needs {cls.BITS // 8} bytes, got {len(data)}"
            )
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def parse(cls, text: str) -> "_IntAddress":
        """Parse the colon-separated hex form produced by ``str()``."""
        parts = text.split(cls.SEPARATOR)
        if len(parts) != cls.BITS // 8:
            raise ValueError(f"bad {cls.__name__} text: {text!r}")
        return cls(int("".join(parts), 16))


class MacAddress(_IntAddress):
    """48-bit Ethernet-style physical address of a Myrinet port."""

    BITS = 48

    @classmethod
    def broadcast(cls) -> "MacAddress":
        """The all-ones broadcast address."""
        return cls((1 << 48) - 1)


class McpAddress(_IntAddress):
    """64-bit address of a Myrinet Control Program instance."""

    BITS = 64

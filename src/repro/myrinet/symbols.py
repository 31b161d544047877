"""Myrinet symbols.

A Myrinet channel carries 9-bit symbols: a data/control (D/C) bit plus
eight bits of payload.  The D/C bit is 1 for data and 0 for control
symbols (paper §4.1).  Control symbols perform link "maintenance": GAP
separates packets, STOP/GO implement slack-buffer flow control, and IDLE
fills an otherwise silent channel.

The encodings keep a pairwise Hamming distance of at least two
(STOP=0x0F, GO=0x03, GAP=0x0C — paper §4.3.1); we add IDLE=0x00, which
preserves the property.  Symbols suffering a single 1→0 fault decode to
their unique parent control symbol; see :func:`_decode_control_rule` for
the paper-erratum discussion.

On the wire symbols travel in a :class:`Burst`: a value lane and a D/C
flag lane, two ``bytes`` of equal length.  :class:`Symbol` remains the
unit wherever the model works one symbol at a time — the injector's
FIFO and compare registers, monitor captures, flow control.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

#: Control symbol encodings (8-bit value carried with D/C = 0).
STOP_VALUE = 0x0F
GO_VALUE = 0x03
GAP_VALUE = 0x0C
IDLE_VALUE = 0x00

_CONTROL_NAMES: Dict[int, str] = {
    STOP_VALUE: "STOP",
    GO_VALUE: "GO",
    GAP_VALUE: "GAP",
    IDLE_VALUE: "IDLE",
}


class Symbol:
    """One 9-bit Myrinet symbol: a D/C bit plus an 8-bit value.

    Instances are immutable and interned: the 256 data symbols and every
    control symbol are created once and shared, which keeps the symbol
    streams of long campaigns allocation-free.
    """

    __slots__ = ("is_data", "value", "pair", "name")

    _data_cache: List["Symbol"] = []
    _control_cache: Dict[int, "Symbol"] = {}

    def __init__(self, is_data: bool, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"symbol value {value!r} out of byte range")
        object.__setattr__(self, "is_data", is_data)
        object.__setattr__(self, "value", value)
        # Precomputed (D/C flag, value) byte pair: joining these gives a
        # symbol list's wire image in one C-level pass.
        object.__setattr__(self, "pair", bytes((1 if is_data else 0, value)))
        # Symbolic name for control symbols, hex for everything else.
        object.__setattr__(self, "name", (
            _CONTROL_NAMES[value]
            if not is_data and value in _CONTROL_NAMES
            else f"{value:#04x}"
        ))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Symbol instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.is_data == other.is_data and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.is_data, self.value))

    def __repr__(self) -> str:
        if self.is_data:
            return f"D({self.value:#04x})"
        return f"C({self.name})"


def data_symbol(value: int) -> Symbol:
    """The interned data symbol carrying ``value``."""
    return Symbol._data_cache[value]


def control_symbol(value: int) -> Symbol:
    """The interned control symbol carrying ``value``."""
    cached = Symbol._control_cache.get(value)
    if cached is None:
        cached = Symbol(False, value)
        Symbol._control_cache[value] = cached
    return cached


Symbol._data_cache = [Symbol(True, v) for v in range(256)]

#: The four interned control symbols.
STOP = control_symbol(STOP_VALUE)
GO = control_symbol(GO_VALUE)
GAP = control_symbol(GAP_VALUE)
IDLE = control_symbol(IDLE_VALUE)


#: Each byte value's control-symbol name (``Symbol.name`` of the control
#: symbol carrying it), for counting controls straight off a flag lane.
CONTROL_NAMES: Tuple[str, ...] = tuple(
    control_symbol(value).name for value in range(256)
)


class Burst:
    """A run of symbols on the wire, held as two byte lanes.

    ``values`` carries each symbol's eight payload bits and ``flags`` its
    D/C bit (1 = data, 0 = control) at the same index — the ninth lane
    the FPGA carries beside its data path (paper §3.3).  Data runs are
    plain ``bytes`` slices, and a consumer finds the next control symbol
    with ``flags.find(0, i)`` instead of inspecting symbol objects.
    Instances are immutable.
    """

    __slots__ = ("values", "flags")

    # ``len(burst)`` stays in C: ``len()`` reads this property, which
    # returns the value lane's bound ``__len__``, and calls that.  A
    # Python ``__len__`` would add a function call to every length read.
    __len__ = property(attrgetter("values.__len__"))

    def __init__(self, values: bytes, flags: bytes) -> None:
        if len(values) != len(flags):
            raise ValueError(
                f"burst lanes differ in length: {len(values)} values, "
                f"{len(flags)} flags"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "flags", flags)

    @classmethod
    def from_symbols(cls, symbols: Iterable[Symbol]) -> "Burst":
        """The burst carrying ``symbols`` in order."""
        symbols = list(symbols)
        return cls(bytes([s.value for s in symbols]),
                   bytes([s.is_data for s in symbols]))

    def symbols(self) -> List[Symbol]:
        """The interned symbols of this burst, in order."""
        data = Symbol._data_cache
        return [
            data[value] if flag else control_symbol(value)
            for value, flag in zip(self.values, self.flags)
        ]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Burst instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Burst):
            return NotImplemented
        return self.values == other.values and self.flags == other.flags

    def __hash__(self) -> int:
        return hash((self.values, self.flags))

    def __repr__(self) -> str:
        return f"Burst({self.symbols()!r})"


def is_data(symbol: Symbol) -> bool:
    """True if ``symbol`` carries packet data (D/C bit set)."""
    return symbol.is_data


def is_control(symbol: Symbol) -> bool:
    """True if ``symbol`` is a control symbol (D/C bit clear)."""
    return not symbol.is_data


def data_symbols(payload: Iterable[int]) -> List[Symbol]:
    """Interned data symbols for a byte sequence."""
    cache = Symbol._data_cache
    return [cache[b] for b in payload]


def symbol_bytes(symbols: Iterable[Symbol]) -> bytes:
    """Extract the byte values of the *data* symbols in a stream."""
    return bytes(s.value for s in symbols if s.is_data)


def decode_control(value: int) -> Optional[Symbol]:
    """Decode a received control-symbol value, tolerating 1→0 bit faults.

    One lookup in a 256-entry table built by :func:`_decode_control_rule`;
    values outside the byte range are undecodable (``None``).
    """
    return _DECODED_CONTROL[value] if 0 <= value <= 0xFF else None


def _decode_control_rule(value: int) -> Optional[Symbol]:
    """The decoding rule behind :func:`decode_control`.

    Exact encodings decode directly.  A value that can be produced from
    exactly one control symbol by a single 1→0 bit fault decodes to that
    symbol (paper §4.3.1: "symbols that suffer single 1 to 0 faults will
    still be detected correctly").  Anything else — including values
    reachable from more than one parent — is undecodable and returns
    ``None`` (the receiver discards it).

    .. note::
       The paper gives "0x08 will still be recognized as STOP" as an
       example, but 0x08 is a single 1→0 fault of GAP (0x0C → 0x08), and
       is three bit-flips away from STOP (0x0F).  We treat the example as
       an erratum and implement the principled rule: 0x08 decodes to GAP,
       0x02 decodes to GO (matching the paper's second example).
    """
    exact = _CONTROL_NAMES.get(value)
    if exact is not None:
        return control_symbol(value)
    parents = _SINGLE_FAULT_PARENTS.get(value)
    if parents is not None and len(parents) == 1:
        return control_symbol(parents[0])
    return None


def _build_single_fault_table() -> Dict[int, Tuple[int, ...]]:
    """Map each single-1→0-faulted value to its possible parent symbols."""
    table: Dict[int, List[int]] = {}
    for parent in _CONTROL_NAMES:
        for bit in range(8):
            if parent & (1 << bit):
                faulted = parent & ~(1 << bit)
                if faulted in _CONTROL_NAMES:
                    continue
                table.setdefault(faulted, []).append(parent)
    return {value: tuple(parents) for value, parents in table.items()}


_SINGLE_FAULT_PARENTS = _build_single_fault_table()

_DECODED_CONTROL: Tuple[Optional[Symbol], ...] = tuple(
    _decode_control_rule(value) for value in range(256)
)


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two byte values."""
    return bin((a ^ b) & 0xFF).count("1")


def min_control_distance() -> int:
    """Minimum pairwise Hamming distance among the control encodings."""
    values = list(_CONTROL_NAMES)
    return min(
        hamming_distance(a, b)
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    )

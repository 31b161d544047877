"""Fibre Channel ordered sets.

FC primitive signals and delimiters are four-character transmission
words beginning with K28.5.  The set used here covers what the link
model needs: IDLE fill words, the R_RDY credit primitive, two
start-of-frame delimiters (connectionless class 3, initiate and normal)
and two end-of-frame delimiters (terminate and normal).

The second-character choices follow FC-PH's structure (D21.x selectors
followed by a repeated qualifier character); FC-PH additionally varies
some delimiters by current running disparity, a refinement this model
omits (documented substitution, DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: K28.5 as an (value, is_k) character: x=28, y=5.
K28_5 = (0xBC, True)


def _d(x: int, y: int) -> Tuple[int, bool]:
    """The (value, is_k) pair for data character D.x.y."""
    return ((y << 5) | x, False)


@dataclass(frozen=True)
class OrderedSet:
    """A four-character FC transmission word."""

    name: str
    characters: Tuple[Tuple[int, bool], ...]

    def __post_init__(self) -> None:
        assert len(self.characters) == 4
        assert self.characters[0] == K28_5


def _ordered_set(name: str, second: Tuple[int, bool],
                 qualifier: Tuple[int, bool]) -> OrderedSet:
    return OrderedSet(name, (K28_5, second, qualifier, qualifier))


#: Fill word transmitted between frames.
IDLE = _ordered_set("IDLE", _d(21, 4), _d(21, 5))
#: Receiver-ready: returns one buffer-to-buffer credit.
R_RDY = _ordered_set("R_RDY", _d(21, 4), _d(10, 2))
#: Start of frame, class 3, initiate sequence.
SOF_I3 = _ordered_set("SOFi3", _d(21, 5), _d(23, 2))
#: Start of frame, class 3, normal.
SOF_N3 = _ordered_set("SOFn3", _d(21, 5), _d(22, 2))
#: End of frame, terminate.
EOF_T = _ordered_set("EOFt", _d(21, 4), _d(21, 3))
#: End of frame, normal.
EOF_N = _ordered_set("EOFn", _d(21, 4), _d(21, 6))

#: Every defined ordered set, by name.
ALL_ORDERED_SETS: Dict[str, OrderedSet] = {
    os.name: os for os in (IDLE, R_RDY, SOF_I3, SOF_N3, EOF_T, EOF_N)
}

#: Lookup from the three characters following K28.5.
_BY_TAIL: Dict[Tuple[Tuple[int, bool], ...], OrderedSet] = {
    os.characters[1:]: os for os in ALL_ORDERED_SETS.values()
}

#: Start-of-frame delimiters.
SOF_SETS = (SOF_I3, SOF_N3)
#: End-of-frame delimiters.
EOF_SETS = (EOF_T, EOF_N)


def classify_word(characters: Tuple[Tuple[int, bool], ...]) -> Optional[OrderedSet]:
    """Identify a four-character word as an ordered set, or None.

    A word whose tail matches no defined set — e.g. one corrupted by the
    injector — is unclassifiable and the receiver discards it.
    """
    if len(characters) != 4 or characters[0] != K28_5:
        return None
    return _BY_TAIL.get(tuple(characters[1:]))


def is_sof(ordered_set: OrderedSet) -> bool:
    """True if the set is a start-of-frame delimiter."""
    return ordered_set in SOF_SETS


def is_eof(ordered_set: OrderedSet) -> bool:
    """True if the set is an end-of-frame delimiter."""
    return ordered_set in EOF_SETS

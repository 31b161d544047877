"""Streaming CRC-8 recalculation (paper §3.2, "Real-time triggering").

"The FPGA uses a local state-based trigger to look for a particular
pattern in the header of a packet and inject a random fault in the
payload while recalculating the correct CRC value to transmit
immediately before the end-of-frame (EOF) character."

A Myrinet frame's CRC is its last data symbol before the terminating
GAP, so the stage holds back exactly one data symbol: when the next
symbol turns out to be the GAP, the held symbol *was* the CRC and — if
an injection dirtied the frame — is replaced with the CRC recomputed
over the (possibly corrupted) bytes actually forwarded.  Clean frames
pass through byte-identical, so upstream corruption syndromes are never
laundered accidentally.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.myrinet.crc8 import crc8_update
from repro.myrinet.symbols import GAP, Symbol, data_symbol, decode_control


class CrcFixupStage:
    """One direction's CRC fix-up pipeline stage."""

    def __init__(self) -> None:
        self._held: Optional[Symbol] = None
        self._crc = 0
        self._frame_dirty = False
        self.frames_fixed = 0
        self.frames_passed = 0

    @property
    def idle(self) -> bool:
        """True when no frame is in flight (safe to bypass the stage)."""
        return self._held is None and not self._frame_dirty

    def feed(self, symbols: List[Symbol], enabled: bool,
             dirty: Union[bool, Sequence[int]] = False) -> List[Symbol]:
        """Run a burst through the stage.

        ``enabled`` is the injector's crc_fixup register.  ``dirty``
        localises the injection damage:

        * a sequence of burst-relative positions (the injector's
          ``last_burst_rewrites``) marks *exactly the frames containing
          those positions* dirty — a clean frame sharing a burst with a
          corrupted one passes through byte-identical, and every
          corrupted frame in the burst is fixed, not just the first;
        * ``True`` keeps the legacy burst-scoped behaviour (the whole
          current frame is considered dirty) for direct callers.

        With the stage disabled and idle (and no positions to latch)
        the burst passes through untouched.
        """
        positions: Sequence[int] = ()
        if dirty is True:
            self._frame_dirty = True
        elif dirty:
            positions = dirty if isinstance(dirty, (set, frozenset)) \
                else frozenset(dirty)
        if not enabled and self.idle and not positions:
            return symbols
        out: List[Symbol] = []
        idx = 0
        for symbol in symbols:
            if idx in positions:
                # The injector rewrote this position: whatever frame it
                # belongs to carries the damage.
                self._frame_dirty = True
            idx += 1
            if symbol.is_data:
                if self._held is not None:
                    out.append(self._held)
                    self._crc = crc8_update(self._crc, self._held.value)
                self._held = symbol
                continue
            if decode_control(symbol.value) is GAP:
                self._close_frame(out, enabled)
                out.append(symbol)
            else:
                # STOP/GO/IDLE pass through without disturbing the frame.
                out.append(symbol)
        return out

    def _close_frame(self, out: List[Symbol], enabled: bool) -> None:
        if self._held is not None:
            if enabled and self._frame_dirty:
                out.append(data_symbol(self._crc))
                self.frames_fixed += 1
            else:
                out.append(self._held)
                self.frames_passed += 1
        self._held = None
        self._crc = 0
        self._frame_dirty = False

    def flush(self) -> List[Symbol]:
        """Emit any held symbol unchanged (device reset)."""
        out: List[Symbol] = []
        if self._held is not None:
            out.append(self._held)
        self._held = None
        self._crc = 0
        self._frame_dirty = False
        return out

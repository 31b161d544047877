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

from typing import Optional, Sequence

from repro.myrinet.crc8 import crc8, crc8_update
from repro.myrinet.symbols import _DECODED_CONTROL, GAP, Burst


class CrcFixupStage:
    """One direction's CRC fix-up pipeline stage."""

    def __init__(self) -> None:
        self._held: Optional[int] = None
        self._crc = 0
        self._frame_dirty = False
        self.frames_fixed = 0
        self.frames_passed = 0

    @property
    def idle(self) -> bool:
        """True when no frame is in flight (safe to bypass the stage)."""
        return self._held is None and not self._frame_dirty

    def feed(self, burst: Burst, enabled: bool,
             rewrites: Sequence[int] = ()) -> Burst:
        """Run a burst through the stage.

        ``enabled`` is the injector's crc_fixup register.  ``rewrites``
        are the burst-relative positions the injector rewrote (its
        ``last_burst_rewrites``); they mark *exactly the frames
        containing them* dirty — a clean frame sharing a burst with a
        corrupted one passes through byte-identical, and every
        corrupted frame in the burst is fixed, not just the first.

        With the stage disabled and idle (and no positions to latch)
        the burst passes through untouched.
        """
        if not enabled and self.idle and not rewrites:
            return burst
        values = burst.values
        flags = burst.flags
        length = len(values)
        positions = sorted({p for p in rewrites if 0 <= p < length})
        out_values = bytearray()
        out_flags = bytearray()
        next_position = 0
        index = 0
        while index < length:
            # One data run, then the control symbol that ends it.
            end = flags.find(0, index)
            if end < 0:
                end = length
            # The injector rewrote a position in this stretch: the frame
            # it belongs to carries the damage.
            while (next_position < len(positions)
                   and positions[next_position] <= end):
                self._frame_dirty = True
                next_position += 1
            if end > index:
                if self._held is not None:
                    out_values.append(self._held)
                    out_flags.append(1)
                    self._crc = crc8_update(self._crc, self._held)
                out_values += values[index:end - 1]
                out_flags += flags[index:end - 1]
                self._crc = crc8(values[index:end - 1], self._crc)
                self._held = values[end - 1]
            if end < length:
                value = values[end]
                if _DECODED_CONTROL[value] is GAP:
                    self._close_frame(out_values, out_flags, enabled)
                # STOP/GO/IDLE pass through without disturbing the frame.
                out_values.append(value)
                out_flags.append(0)
            index = end + 1
        return Burst(bytes(out_values), bytes(out_flags))

    def _close_frame(self, out_values: bytearray, out_flags: bytearray,
                     enabled: bool) -> None:
        if self._held is not None:
            if enabled and self._frame_dirty:
                out_values.append(self._crc)
                self.frames_fixed += 1
            else:
                out_values.append(self._held)
                self.frames_passed += 1
            out_flags.append(1)
        self._held = None
        self._crc = 0
        self._frame_dirty = False

    def flush(self) -> Burst:
        """Emit any held symbol unchanged (device reset)."""
        held = b"" if self._held is None else bytes((self._held,))
        self._held = None
        self._crc = 0
        self._frame_dirty = False
        return Burst(held, b"\x01" * len(held))

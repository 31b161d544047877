"""Symbol-stream framing.

A :class:`FrameAssembler` splits an incoming symbol stream into frames on
GAP boundaries (paper Figure 8): data symbols accumulate into the current
frame, GAP closes it, STOP/GO are passed to a control-symbol handler
*without* breaking the frame (control symbols are interleaved with data on
a Myrinet channel), IDLE is discarded, and undecodable control values are
dropped and counted.

Frames that exceed ``max_frame`` — e.g. the unbounded merge created when a
packet-terminating GAP is corrupted — are discarded as errors, mirroring a
real interface's maximum-packet guard.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.myrinet.symbols import (
    _DECODED_CONTROL,
    GAP,
    IDLE,
    Burst,
    Symbol,
)

#: Default maximum frame size in bytes (route + type + payload + CRC).
DEFAULT_MAX_FRAME = 4096


class FrameAssembler:
    """Reassembles frames from a symbol stream."""

    def __init__(
        self,
        on_frame: Callable[[bytes], None],
        on_control: Optional[Callable[[Symbol], None]] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._on_frame = on_frame
        self._on_control = on_control
        self._max_frame = max_frame
        self._current = bytearray()
        self._overflowed = False
        self.frames_emitted = 0
        self.oversize_frames = 0
        self.undecodable_controls = 0

    def push_burst(self, burst: Burst) -> None:
        """Feed a burst, one maximal data run at a time.

        Each data run extends the open frame with one slice of the value
        lane, and each control symbol is decoded singly.  ``max_frame``
        overflow is exact: a run is accepted up to the limit and
        overflow fires on the *next* data byte, as a symbol-at-a-time
        assembler would.
        """
        values = burst.values
        flags = burst.flags
        length = len(values)
        current = self._current
        index = 0
        while index < length:
            end = flags.find(0, index)
            if end < 0:
                end = length
            if end > index and not self._overflowed:
                space = self._max_frame - len(current)
                if end - index <= space:
                    current += values[index:end]
                else:
                    # Past the limit: the byte after the limit trips
                    # the overflow guard and the frame is discarded.
                    self._overflowed = True
                    self.oversize_frames += 1
                    current.clear()
            if end < length:
                self._push_control(_DECODED_CONTROL[values[end]])
            index = end + 1

    def _push_control(self, decoded: Optional[Symbol]) -> None:
        if decoded is None:
            self.undecodable_controls += 1
        elif decoded is GAP:
            self._close_frame()
        elif decoded is not IDLE and self._on_control is not None:
            self._on_control(decoded)

    def _close_frame(self) -> None:
        if self._overflowed:
            self._overflowed = False
            return
        if self._current:
            frame = bytes(self._current)
            self._current.clear()
            self.frames_emitted += 1
            self._on_frame(frame)

    @property
    def partial_length(self) -> int:
        """Bytes accumulated in the currently open frame."""
        return len(self._current)

    def reset(self) -> None:
        """Drop any partial frame (e.g. on link reinitialization)."""
        self._current.clear()
        self._overflowed = False

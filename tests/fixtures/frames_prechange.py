"""Vendored per-symbol ``FrameAssembler.push``.

This is the symbol-at-a-time entry point of
``repro.myrinet.frames.FrameAssembler`` as it stood before the
run-batched ``push_burst`` became the only one.  The method is kept
verbatim (only this docstring, the imports and the subclass around it
added) as the oracle for ``tests/test_slack_frames.py``, which requires
``push_burst`` over arbitrarily chopped bursts to emit the same frames,
controls and counters as per-symbol pushes.  Do not modify it to track
the shipped code.
"""

from __future__ import annotations

from repro.myrinet.frames import FrameAssembler
from repro.myrinet.symbols import Symbol, decode_control


class PerSymbolFrameAssembler(FrameAssembler):
    """The shipped assembler plus the pre-change per-symbol ``push``."""

    def push(self, symbol: Symbol) -> None:
        """Feed one symbol into the assembler."""
        if symbol.is_data:
            if self._overflowed:
                return
            if len(self._current) >= self._max_frame:
                self._overflowed = True
                self.oversize_frames += 1
                self._current.clear()
                return
            self._current.append(symbol.value)
            return
        self._push_control(decode_control(symbol.value))

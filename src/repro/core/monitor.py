"""Data monitoring (paper §3.2).

"The FPGA can be programmed to keep the bytes surrounding the fault
injection event, thus giving the user sufficient dynamic state
information about the environment in which the fault injection was
performed."

:class:`InjectionMonitor` keeps a rolling window of the most recent
symbols per direction; when the injector fires, it snapshots the
``pre_symbols`` preceding symbols and collects the next ``post_symbols``
into a :class:`CaptureRecord`, which is stored in the device's SDRAM
buffer (with the SDRAM's capacity/bandwidth accounting applied).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.capture import instrument as _capture
from repro.capture.state import CAPTURE as _CAPTURE
from repro.hw.injector import InjectionEvent
from repro.hw.sdram import SdramBuffer
from repro.myrinet.symbols import Burst, Symbol


@dataclass
class MonitorConfig:
    """Capture configuration for one direction."""

    enabled: bool = False
    pre_symbols: int = 32
    post_symbols: int = 32


@dataclass
class CaptureRecord:
    """One captured injection environment."""

    time_ps: int
    direction: str
    event: InjectionEvent
    before: List[Symbol] = field(default_factory=list)
    after: List[Symbol] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """Approximate SDRAM footprint (2 bytes per 9-bit symbol)."""
        return 2 * (len(self.before) + len(self.after)) + 16

    def data_bytes(self) -> bytes:
        """The data-symbol bytes surrounding the injection."""
        return bytes(
            s.value for s in self.before + self.after if s.is_data
        )


class InjectionMonitor:
    """Rolling-window capture for one traffic direction."""

    def __init__(
        self,
        direction: str,
        sdram: SdramBuffer,
        config: Optional[MonitorConfig] = None,
    ) -> None:
        self.direction = direction
        self._sdram = sdram
        self.config = config or MonitorConfig()
        self._window: Deque[Symbol] = deque(maxlen=max(1, self.config.pre_symbols))
        self._open: List[CaptureRecord] = []
        self.captures_taken = 0

    def configure(self, config: MonitorConfig) -> None:
        """Replace the capture configuration."""
        self.config = config
        self._window = deque(self._window, maxlen=max(1, config.pre_symbols))

    def observe(self, burst: Burst) -> None:
        """Feed the post-injection output stream past the monitor.

        Each open capture takes the symbols it still lacks (at least
        one) from the head of the burst; captures complete in the order
        they were opened, as symbol-by-symbol collection would.
        """
        if not self.config.enabled:
            return
        symbols = burst.symbols()
        if not symbols:
            return
        if self._open:
            post = self.config.post_symbols
            still_open = []
            for record in self._open:
                record.after.extend(
                    symbols[:max(1, post - len(record.after))]
                )
                if len(record.after) >= post:
                    self._finish(record)
                else:
                    still_open.append(record)
            self._open = still_open
        self._window.extend(symbols)

    def on_injection(self, time_ps: int, event: InjectionEvent) -> None:
        """Injector callback: open a capture around this event."""
        if not self.config.enabled:
            return
        record = CaptureRecord(
            time_ps=time_ps,
            direction=self.direction,
            event=event,
            before=list(self._window),
        )
        self._open.append(record)

    def flush(self) -> None:
        """Close any still-open captures (end of campaign)."""
        for record in self._open:
            self._finish(record)
        self._open = []

    def _finish(self, record: CaptureRecord) -> None:
        stored = self._sdram.store(record.time_ps, record, record.size_bytes)
        if stored:
            self.captures_taken += 1
        if _CAPTURE.active:
            _capture.capture_window(record, stored)

    def captures(self) -> List[CaptureRecord]:
        """All completed captures for this direction."""
        return [
            record
            for _time, record in self._sdram.records
            if isinstance(record, CaptureRecord)
            and record.direction == self.direction
        ]

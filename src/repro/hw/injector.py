"""The FIFO injector entity (paper §3.3, Figures 2 and 3).

This is the heart of the device: the symbol stream passes through a
RAM-backed FIFO while a sliding compare window watches it.  The two-phase
contract is modelled explicitly:

* odd cycle — the incoming symbol is pushed onto the FIFO, the oldest
  symbol (once the pipeline is full) is popped toward the output
  circuitry, and the symbol is shifted into the compare registers;
* even cycle — the compare result is evaluated; on a trigger (pattern
  match in ``on``/``once`` mode, or an ``inject now`` pulse) the matched
  segment is rewritten *inside the FIFO* according to the corrupt mode.

Corruption applies to the FIFO entries corresponding to the compare
window — the four most recently pushed symbols.  If part of the window
has already left the FIFO (a match straddling the start of a traffic
burst) only the still-queued lanes are rewritten; the event records how
many lanes were out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.hw.clock import ClockPhase, TwoPhaseClock
from repro.hw.compare import CompareUnit
from repro.hw.fifo import RamFifo
from repro.hw.registers import (
    SEGMENT_LANES,
    CorruptMode,
    InjectorConfig,
    MatchMode,
)
from repro.myrinet.symbols import Burst, Symbol, control_symbol, data_symbol
from repro.telemetry import instrument as _telemetry
from repro.telemetry.state import STATE as _STATE

#: Default pipeline depth in symbols: a 3-cycle inject pipeline plus "a
#: few more 32-bit segments in the FIFO" — about 250 ns at the paper's
#: 12.5 ns character period (footnote 5).
DEFAULT_PIPELINE_DEPTH = 20

_MASK32 = 0xFFFF_FFFF


@dataclass
class InjectionEvent:
    """Record of one trigger firing."""

    segment_index: int
    window_before: int
    ctl_before: int
    window_after: int
    ctl_after: int
    lanes_rewritten: int
    lanes_unreachable: int
    forced: bool

    @property
    def changed(self) -> bool:
        """True if the corruption actually altered the stream."""
        return (
            self.window_before != self.window_after
            or self.ctl_before != self.ctl_after
        )


class FifoInjector:
    """One direction's injector pipeline."""

    def __init__(
        self,
        name: str = "fifo_inject",
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> None:
        if pipeline_depth < SEGMENT_LANES:
            raise ValueError(
                f"pipeline depth must be >= {SEGMENT_LANES} so a matched "
                f"window is still queued"
            )
        self.name = name
        self.pipeline_depth = pipeline_depth
        self.clock = TwoPhaseClock()
        self.fifo = RamFifo(pipeline_depth + 1)
        self.compare = CompareUnit()
        self.config = InjectorConfig()
        self._inject_now = False
        self._once_fired = False
        self._segment_index = 0
        self._on_injection: Optional[Callable[[InjectionEvent], None]] = None

        # counters -------------------------------------------------------
        self.symbols_processed = 0
        self.injections = 0
        self.forced_injections = 0
        self.events: List[InjectionEvent] = []
        self.events_limit = 4096
        #: Output-stream positions rewritten during the most recent
        #: :meth:`process_burst` call (burst-relative, including any
        #: leftover FIFO contents flushed ahead of the burst).  The CRC
        #: fix-up stage uses these to mark exactly the frames an
        #: injection touched — not merely "some frame in this burst".
        #: Only meaningful immediately after ``process_burst``.
        self.last_burst_rewrites: List[int] = []
        self._rewrite_origin = 0

    # ------------------------------------------------------------------
    # configuration interface (driven by the command decoder)
    # ------------------------------------------------------------------

    def configure(self, config: InjectorConfig) -> None:
        """Load a full register file; re-arms ``once`` mode."""
        self.config = config
        self._once_fired = False

    def set_match_mode(self, mode: MatchMode) -> None:
        """Change the match mode; (re-)arms ``once`` mode."""
        self.config = self.config.copy(match_mode=mode)
        self._once_fired = False

    def inject_now(self) -> None:
        """Force an injection on the next even cycle (paper: Inject now)."""
        self._inject_now = True

    def on_injection(self, callback: Callable[[InjectionEvent], None]) -> None:
        """Register the monitoring callback."""
        self._on_injection = callback

    @property
    def inject_pending(self) -> bool:
        """True while an ``inject now`` pulse awaits its even cycle."""
        return self._inject_now

    @property
    def armed(self) -> bool:
        """True if the trigger can still fire."""
        if self._inject_now:
            return True
        if self.config.match_mode is MatchMode.OFF:
            return False
        if self.config.match_mode is MatchMode.ONCE and self._once_fired:
            return False
        return True

    def reset(self) -> None:
        """Device reset: clears state and configuration."""
        self.fifo.drain()
        self.compare.reset()
        self.config = InjectorConfig()
        self._inject_now = False
        self._once_fired = False

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def step(self, symbol: Symbol) -> Optional[Symbol]:
        """Run one full odd/even cycle pair for one incoming symbol.

        Returns the symbol leaving the pipeline, or None while the
        pipeline is filling.
        """
        output = self._odd_cycle(symbol)
        self._even_cycle()
        return output

    def _odd_cycle(self, symbol: Symbol) -> Optional[Symbol]:
        self.clock.tick()
        self.clock.expect(ClockPhase.ODD)
        self.fifo.push(symbol)
        self.compare.shift(symbol)
        self.symbols_processed += 1
        self._segment_index += 1
        if self.fifo.occupancy > self.pipeline_depth:
            return self.fifo.pop()
        return None

    def _even_cycle(self) -> None:
        self.clock.tick()
        self.clock.expect(ClockPhase.EVEN)
        forced = self._inject_now
        if forced:
            self._inject_now = False
        triggered = forced
        if not triggered and self.config.match_mode is not MatchMode.OFF:
            if self.config.match_mode is MatchMode.ONCE and self._once_fired:
                triggered = False
            else:
                # The hardware compares whatever the registers hold —
                # including the reset-state zeros before four symbols
                # have shifted in; don't-care masks make this safe.
                triggered = self.compare.evaluate(self.config)
        if not triggered:
            return
        if self.config.match_mode is MatchMode.ONCE and not forced:
            self._once_fired = True
        self._apply_corruption(forced)

    def _apply_corruption(self, forced: bool) -> None:
        window_before, ctl_before = self.compare.snapshot()
        config = self.config
        if config.corrupt_mode is CorruptMode.TOGGLE:
            window_after = window_before ^ config.corrupt_data
        else:
            window_after = (
                (window_before & ~config.corrupt_mask)
                | (config.corrupt_data & config.corrupt_mask)
            ) & _MASK32
        ctl_after = (
            (ctl_before & ~config.corrupt_ctl_mask)
            | (config.corrupt_ctl & config.corrupt_ctl_mask)
        ) & 0xF

        lanes_rewritten = 0
        lanes_unreachable = 0
        for lane in range(SEGMENT_LANES):
            old_byte = (window_before >> (8 * lane)) & 0xFF
            new_byte = (window_after >> (8 * lane)) & 0xFF
            old_ctl = (ctl_before >> lane) & 1
            new_ctl = (ctl_after >> lane) & 1
            if old_byte == new_byte and old_ctl == new_ctl:
                continue
            if lane >= self.fifo.occupancy:
                # Already left the FIFO (match straddled a burst start).
                lanes_unreachable += 1
                continue
            replacement = (
                data_symbol(new_byte) if new_ctl else control_symbol(new_byte)
            )
            self.fifo.rewrite_from_tail(lane, replacement)
            lanes_rewritten += 1
            # Burst-relative output position of the rewritten symbol:
            # _segment_index counts pushes, so subtracting the origin
            # (pushes at burst start minus the pre-burst occupancy)
            # yields the index in the burst's flushed output stream.
            self.last_burst_rewrites.append(
                self._segment_index - 1 - lane - self._rewrite_origin
            )

        self.injections += 1
        if forced:
            self.forced_injections += 1
        event = InjectionEvent(
            segment_index=self._segment_index,
            window_before=window_before,
            ctl_before=ctl_before,
            window_after=window_after,
            ctl_after=ctl_after,
            lanes_rewritten=lanes_rewritten,
            lanes_unreachable=lanes_unreachable,
            forced=forced,
        )
        if len(self.events) < self.events_limit:
            self.events.append(event)
        if _STATE.registry is not None:
            _telemetry.injection(self.name, event)
        if self._on_injection is not None:
            self._on_injection(event)

    def process_burst(self, burst: Burst) -> Burst:
        """Run a whole traffic burst through the pipeline and flush it.

        The pipeline drains at the end of each burst — in hardware the
        inter-burst IDLE stream clocks the queued symbols out; the
        device model accounts for the fixed transit latency in time
        instead (see :mod:`repro.core.device`).

        Because the FIFO is empty at every burst boundary, the burst is
        processed with a fused equivalent of :meth:`step`: one tight
        loop over the value and flag lanes, whose output is the input
        with the rewritten positions patched.  The per-phase semantics
        are identical and are cross-checked against the explicit
        two-phase path by the unit tests.
        """
        self.last_burst_rewrites = []
        self._rewrite_origin = self._segment_index - self.fifo.occupancy
        if not self.armed and self.fifo.empty:
            # A disarmed injector is a transparent pipe.
            count = len(burst.values)
            self.symbols_processed += count
            self._segment_index += count
            return burst
        if not self.fifo.empty:
            # step() was used directly before this burst; stay on the
            # exact cycle-accurate path to preserve FIFO contents.
            output: List[Symbol] = []
            for symbol in burst.symbols():
                out = self.step(symbol)
                if out is not None:
                    output.append(out)
            output.extend(self.fifo.drain())
            return Burst.from_symbols(output)
        return self._process_burst_fused(burst)

    def _process_burst_fused(self, burst: Burst) -> Burst:
        config = self.config
        window, ctl = self.compare.snapshot()
        filled = self.compare._filled
        mode_on = config.match_mode is MatchMode.ON
        mode_once = config.match_mode is MatchMode.ONCE
        cd = config.compare_data
        cm = config.compare_mask
        cc = config.compare_ctl
        ccm = config.compare_ctl_mask
        depth = self.pipeline_depth
        segment = self._segment_index
        matches = 0
        evaluations = 0
        # The drained pipeline's contents, patched in place by any
        # corruption; created on the first trigger.
        patched: Optional[Tuple[bytearray, bytearray]] = None

        for index, (value, flag) in enumerate(zip(burst.values, burst.flags)):
            # --- odd cycle: push, pop, shift -----------------------------
            window = ((window << 8) | value) & 0xFFFF_FFFF
            ctl = ((ctl << 1) | flag) & 0xF
            if filled < SEGMENT_LANES:
                filled += 1
            segment += 1
            # --- even cycle: compare, maybe inject -----------------------
            forced = self._inject_now
            if forced:
                self._inject_now = False
                triggered = True
            elif mode_on or (mode_once and not self._once_fired):
                evaluations += 1
                if ((window ^ cd) & cm) == 0 and ((ctl ^ cc) & ccm) == 0:
                    matches += 1
                    triggered = True
                else:
                    triggered = False
            else:
                triggered = False
            if not triggered:
                continue
            if mode_once and not forced:
                self._once_fired = True
            if patched is None:
                patched = (bytearray(burst.values), bytearray(burst.flags))
            # Corruption rewrites the queued FIFO entries (the last
            # ``depth`` symbols pushed); the compare registers keep
            # holding the as-received stream, exactly as in the
            # per-step path.
            self._corrupt_pipeline_tail(
                patched, index, min(index + 1, depth), window, ctl,
                forced, segment,
            )

        # bulk-update the bookkeeping the per-step path maintains
        count = len(burst.values)
        self.symbols_processed += count
        self._segment_index = segment
        self.clock._cycles += 2 * count
        self.compare._window = window
        self.compare._ctl = ctl
        self.compare._filled = filled
        self.compare.shifts += count
        self.compare.evaluations += evaluations
        self.compare.matches += matches
        self.fifo.ram.writes += count
        self.fifo.ram.reads += count
        # The per-step path pushes before popping, so its occupancy
        # transiently reaches depth + 1 (the FIFO holds depth + 1 words);
        # mirror that in the watermark, not the post-pop steady state.
        self.fifo.note_occupancy(min(count, depth + 1))
        if patched is None:
            return burst
        return Burst(bytes(patched[0]), bytes(patched[1]))

    def _corrupt_pipeline_tail(
        self,
        patched: Tuple[bytearray, bytearray],
        newest: int,
        occupancy: int,
        window: int,
        ctl: int,
        forced: bool,
        segment: int,
    ) -> None:
        """Corrupt the window's lanes inside the fused-path pipeline.

        ``newest`` is the burst index of the symbol just pushed and
        ``occupancy`` the number of symbols the FIFO still holds, the
        newest included.
        """
        config = self.config
        if config.corrupt_mode is CorruptMode.TOGGLE:
            window_after = window ^ config.corrupt_data
        else:
            window_after = (
                (window & ~config.corrupt_mask)
                | (config.corrupt_data & config.corrupt_mask)
            ) & _MASK32
        ctl_after = (
            (ctl & ~config.corrupt_ctl_mask)
            | (config.corrupt_ctl & config.corrupt_ctl_mask)
        ) & 0xF
        values, flags = patched
        lanes_rewritten = 0
        lanes_unreachable = 0
        for lane in range(SEGMENT_LANES):
            old_byte = (window >> (8 * lane)) & 0xFF
            new_byte = (window_after >> (8 * lane)) & 0xFF
            old_ctl = (ctl >> lane) & 1
            new_ctl = (ctl_after >> lane) & 1
            if old_byte == new_byte and old_ctl == new_ctl:
                continue
            if lane >= occupancy:
                lanes_unreachable += 1
                continue
            values[newest - lane] = new_byte
            flags[newest - lane] = new_ctl
            lanes_rewritten += 1
            self.fifo.in_place_rewrites += 1
            self.last_burst_rewrites.append(
                segment - 1 - lane - self._rewrite_origin
            )
        self.injections += 1
        if forced:
            self.forced_injections += 1
        event = InjectionEvent(
            segment_index=segment,
            window_before=window,
            ctl_before=ctl,
            window_after=window_after,
            ctl_after=ctl_after,
            lanes_rewritten=lanes_rewritten,
            lanes_unreachable=lanes_unreachable,
            forced=forced,
        )
        if len(self.events) < self.events_limit:
            self.events.append(event)
        if _STATE.registry is not None:
            _telemetry.injection(self.name, event)
        if self._on_injection is not None:
            self._on_injection(event)

    @property
    def stats(self) -> dict:
        """Counter snapshot for the ST command and campaign reports."""
        return {
            "symbols_processed": self.symbols_processed,
            "compare_matches": self.compare.matches,
            "injections": self.injections,
            "forced_injections": self.forced_injections,
            "cycles": self.clock.cycles,
            "fifo_rewrites": self.fifo.in_place_rewrites,
            "fifo_high_watermark": self.fifo.high_watermark,
        }

"""Regression pins for two injector data-path bugs.

Both were found by differential testing and fixed in the injector and
the CRC stage; each is pinned here against its exact failure mode:

1. **FIFO watermark off-by-one (fused vs per-step).**  The per-step path
   pushes before popping, so occupancy transiently reaches ``depth + 1``
   (the FIFO holds ``depth + 1`` words).  The fused burst path
   originally reported ``min(count, depth)`` — one less than the
   hardware-accurate transient — so the ``fifo_high_watermark`` stat
   depended on *which loop* processed the burst.

2. **CRC fix-up dirty-flag mis-attribution (burst-scoped vs positional).**
   With a burst-scoped boolean dirty flag, the *first* frame closed in a
   burst consumed the flag: a clean frame sharing a burst with a later
   corrupted frame got its CRC "fixed" (a laundered no-op) while the
   actually-corrupted frame shipped with a stale, wrong CRC.  The fix
   threads the injector's ``last_burst_rewrites`` positions through to
   the stage so exactly the frames containing rewrites are marked dirty;
   the stage no longer accepts a boolean flag at all.
"""

from __future__ import annotations

from typing import List

from repro.core.crcfix import CrcFixupStage
from repro.core.faults import replace_bytes
from repro.hw.injector import FifoInjector
from repro.hw.registers import MatchMode
from repro.myrinet.crc8 import crc8, verify
from repro.myrinet.symbols import GAP, Burst, Symbol, data_symbol

PIPELINE_DEPTH = 8

#: An armed register file whose 4-byte pattern never occurs in the
#: all-0x11 workloads below — the injector does full per-symbol work
#: (clock, compare, RAM) without ever triggering.
NEVER_MATCHING = replace_bytes(
    b"\xde\xad\xbe\xef", b"\x00\x00\x00\x00", match_mode=MatchMode.ON
)


def _frame(payload: bytes) -> List[Symbol]:
    """A valid Myrinet frame: payload, CRC-8, terminating GAP."""
    return (
        [data_symbol(byte) for byte in payload]
        + [data_symbol(crc8(payload))]
        + [GAP]
    )


def _frame_ok(symbols: List[Symbol]) -> bool:
    """True if ``symbols`` = data payload + CRC + GAP with a valid CRC."""
    assert symbols[-1].pair == GAP.pair
    return verify([s.value for s in symbols[:-1]])


# ----------------------------------------------------------------------
# 1. FIFO watermark: per-step and fused paths must agree
# ----------------------------------------------------------------------


def test_watermark_fused_matches_per_step() -> None:
    """The fused burst loop reports the same transient peak occupancy
    (depth + 1, push-before-pop) that the explicit two-phase path hits.

    Regression: the fused path used ``min(count, depth)`` and came up
    one short, so ``fifo_high_watermark`` depended on which loop ran.
    """
    burst = [data_symbol(0x11) for _ in range(40)]

    stepped = FifoInjector(name="step", pipeline_depth=PIPELINE_DEPTH)
    stepped.configure(NEVER_MATCHING)
    out_stepped: List[Symbol] = []
    for symbol in burst:
        emitted = stepped.step(symbol)
        if emitted is not None:
            out_stepped.append(emitted)
    out_stepped.extend(stepped.fifo.drain())

    fused = FifoInjector(name="fused", pipeline_depth=PIPELINE_DEPTH)
    fused.configure(NEVER_MATCHING)
    out_fused = fused.process_burst(Burst.from_symbols(burst)).symbols()

    assert [s.pair for s in out_stepped] == [s.pair for s in out_fused]
    assert stepped.stats == fused.stats
    # The exact transient: the FIFO holds depth + 1 words and the odd
    # cycle pushes before popping.
    assert fused.stats["fifo_high_watermark"] == PIPELINE_DEPTH + 1


def test_watermark_short_burst_stays_below_transient() -> None:
    """Bursts shorter than the pipeline never reach the full transient:
    both loops report occupancy == burst length, not depth + 1."""
    burst = [data_symbol(0x11) for _ in range(5)]
    for use_fused in (False, True):
        injector = FifoInjector(name="short", pipeline_depth=PIPELINE_DEPTH)
        injector.configure(NEVER_MATCHING)
        if use_fused:
            injector.process_burst(Burst.from_symbols(burst))
        else:
            for symbol in burst:
                injector.step(symbol)
            injector.fifo.drain()
        assert injector.stats["fifo_high_watermark"] == len(burst), use_fused


# ----------------------------------------------------------------------
# 2. CRC fix-up: positional dirty attribution across frames in a burst
# ----------------------------------------------------------------------

#: Frame 1 is clean; frame 2's payload contains the 0x18 match byte.
CLEAN_PAYLOAD = bytes([0x01, 0x02, 0x03, 0x04])
HIT_PAYLOAD = bytes([0x21, 0x18, 0x22, 0x23])


def _two_frame_run() -> tuple:
    """Inject into frame 2 of a two-frame burst; return the pieces."""
    # Preconditions that make the scenario unambiguous: the match byte
    # appears exactly once, in frame 2's payload, and in neither CRC.
    assert 0x18 not in CLEAN_PAYLOAD
    assert crc8(CLEAN_PAYLOAD) != 0x18
    assert crc8(HIT_PAYLOAD) != 0x18

    frame1 = _frame(CLEAN_PAYLOAD)
    frame2 = _frame(HIT_PAYLOAD)
    burst = frame1 + frame2

    injector = FifoInjector(name="crc", pipeline_depth=PIPELINE_DEPTH)
    injector.configure(
        replace_bytes(b"\x18", b"\x19", match_mode=MatchMode.ON)
    )
    output = injector.process_burst(Burst.from_symbols(burst)).symbols()
    assert injector.injections == 1
    return burst, output, injector, len(frame1)


def test_rewrite_positions_name_the_rewritten_symbols() -> None:
    """``last_burst_rewrites`` holds exactly the burst-relative output
    positions whose symbols differ from the input — the contract the
    CRC stage's positional attribution depends on."""
    burst, output, injector, _ = _two_frame_run()
    differing = [
        index
        for index, (before, after) in enumerate(zip(burst, output))
        if before.pair != after.pair
    ]
    assert sorted(injector.last_burst_rewrites) == differing
    assert differing == [len(burst) - len(_frame(HIT_PAYLOAD)) + 1]


def test_crc_fixup_positional_dirty_fixes_the_right_frame() -> None:
    """Positional dirty: the clean frame passes byte-identical and the
    corrupted frame ships with a *recomputed, valid* CRC."""
    burst, output, injector, split = _two_frame_run()

    stage = CrcFixupStage()
    delivered = stage.feed(Burst.from_symbols(output), True,
                           injector.last_burst_rewrites).symbols()

    frame1, frame2 = delivered[:split], delivered[split:]
    # Frame 1 is byte-identical to what entered the injector.
    assert [s.pair for s in frame1] == [s.pair for s in burst[:split]]
    # Frame 2 carries the corruption (0x18 -> 0x19) *and* a CRC
    # recomputed over the corrupted payload, so it still verifies.
    assert frame2[1].value == 0x19
    assert _frame_ok(frame2)
    assert stage.frames_passed == 1
    assert stage.frames_fixed == 1


def test_crc_fixup_both_frames_dirty_both_fixed() -> None:
    """Positional attribution fixes *every* corrupted frame in a burst,
    not just the first (the other half of the burst-scoped failure)."""
    frame_a = _frame(bytes([0x18, 0x31, 0x32]))
    frame_b = _frame(bytes([0x41, 0x42, 0x18]))
    assert crc8(bytes([0x18, 0x31, 0x32])) != 0x18
    assert crc8(bytes([0x41, 0x42, 0x18])) != 0x18
    burst = frame_a + frame_b

    injector = FifoInjector(name="crc2", pipeline_depth=PIPELINE_DEPTH)
    injector.configure(
        replace_bytes(b"\x18", b"\x19", match_mode=MatchMode.ON)
    )
    output = injector.process_burst(Burst.from_symbols(burst)).symbols()
    assert injector.injections == 2

    stage = CrcFixupStage()
    delivered = stage.feed(Burst.from_symbols(output), True,
                           injector.last_burst_rewrites).symbols()
    first, second = delivered[: len(frame_a)], delivered[len(frame_a):]
    assert _frame_ok(first)
    assert _frame_ok(second)
    assert stage.frames_fixed == 2
    assert stage.frames_passed == 0

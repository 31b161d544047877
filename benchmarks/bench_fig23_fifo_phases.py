"""Figures 2 and 3 — the two-phase FIFO injector operation.

Demonstrates the odd/even clock contract (push/pull on odd cycles,
inject on even cycles) and measures the injector's symbol throughput on
both the cycle-accurate and the fused paths.
"""

from benchmarks.conftest import record_result
from repro.core.faults import replace_bytes
from repro.hw.clock import ClockPhase
from repro.hw.injector import FifoInjector
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import Burst, data_symbols

STREAM = data_symbols(bytes(range(256)) * 16)  # 4096 symbols
BURST = Burst.from_symbols(STREAM)


def test_fig2_odd_cycle_push_and_pull(benchmark):
    """Figure 2: on the odd cycle data is pushed onto the FIFO and the
    processed symbol is read toward the network."""

    def run():
        injector = FifoInjector(pipeline_depth=8)
        outputs = 0
        for symbol in STREAM:
            out = injector._odd_cycle(symbol)
            injector.clock.expect(ClockPhase.ODD)
            if out is not None:
                outputs += 1
            injector._even_cycle()
            injector.clock.expect(ClockPhase.EVEN)
        return injector, outputs

    injector, outputs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert injector.clock.cycles == 2 * len(STREAM)
    assert outputs == len(STREAM) - 8  # pipeline depth still queued
    record_result(
        "fig23_fifo_phases",
        f"Figures 2/3 two-phase operation: {len(STREAM)} symbols, "
        f"{injector.clock.cycles} cycles "
        f"({injector.clock.segments} odd/even pairs), "
        f"{injector.fifo.ram.writes} RAM writes / "
        f"{injector.fifo.ram.reads} RAM reads",
    )


def test_fig3_even_cycle_injects_in_fifo(benchmark):
    """Figure 3: the compare result corrupts data *inside* the FIFO."""

    def run():
        injector = FifoInjector()
        injector.configure(replace_bytes(b"\x18\x18", b"\x19\x18",
                                         match_mode=MatchMode.ON))
        out = injector.process_burst(
            Burst.from_symbols(data_symbols(b"\x00\x18\x18\x00" * 64))
        )
        return injector, out

    injector, out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert injector.fifo.in_place_rewrites == 64
    assert out.values.count(b"\x19\x18") == 64


def test_throughput_cycle_accurate(benchmark):
    injector = FifoInjector()
    injector.configure(replace_bytes(b"\xde\xad", b"\xbe\xef",
                                     match_mode=MatchMode.ON))

    def run():
        for symbol in STREAM:
            injector.step(symbol)
        injector.fifo.drain()

    benchmark(run)


def test_throughput_fused_path(benchmark):
    injector = FifoInjector()
    injector.configure(replace_bytes(b"\xde\xad", b"\xbe\xef",
                                     match_mode=MatchMode.ON))
    benchmark(lambda: injector.process_burst(BURST))


def test_throughput_disarmed_fast_path(benchmark):
    injector = FifoInjector()
    benchmark(lambda: injector.process_burst(BURST))

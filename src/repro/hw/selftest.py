"""Power-on self-test (paper §3.5).

"After verifying the ability of the injector to communicate (i.e.,
accept commands) via a serial interface with the external system, the
performance impact of the fault injector in pass-through mode was
evaluated."  Before that verification can mean anything, the board has
to trust its own logic; :func:`run_selftest` is that power-on check:

* a walking-ones/zeros test over the dual-port RAM;
* FIFO ordering and in-place rewrite;
* compare-unit match/mask behaviour;
* a full injector micro-pipeline check (replace + toggle).

The command decoder exposes it as the ``PT`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hw.compare import CompareUnit
from repro.hw.fifo import DualPortRam, RamFifo
from repro.hw.injector import FifoInjector
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.symbols import Burst, data_symbol


@dataclass
class SelfTestReport:
    """Outcome of one power-on self-test."""

    results: Dict[str, bool] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(self.results.values())

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results[name] = ok
        if detail:
            self.details.append(f"{name}: {detail}")

    def summary(self) -> str:
        """The one-line form the PT command responds with."""
        parts = [
            f"{name}={'pass' if ok else 'FAIL'}"
            for name, ok in self.results.items()
        ]
        return " ".join(parts)


def _test_ram(report: SelfTestReport, words: int = 64) -> None:
    ram = DualPortRam(words)
    ok = True
    for pattern in (0x00, 0xFF, 0x55, 0xAA):
        for address in range(words):
            ram.write(address, data_symbol((pattern + address) & 0xFF))
        for address in range(words):
            if ram.read(address).value != (pattern + address) & 0xFF:
                ok = False
    # Walking ones across one word.
    for bit in range(8):
        ram.write(0, data_symbol(1 << bit))
        if ram.read(0).value != 1 << bit:
            ok = False
    report.record("ram", ok, f"{words} words, 4 patterns + walking ones")


def _test_fifo(report: SelfTestReport, depth: int = 16) -> None:
    fifo = RamFifo(depth)
    ok = True
    for value in range(depth):
        fifo.push(data_symbol(value))
    fifo.rewrite_from_tail(0, data_symbol(0xEE))
    drained = [s.value for s in fifo.drain()]
    if drained != list(range(depth - 1)) + [0xEE]:
        ok = False
    report.record("fifo", ok, f"depth {depth}, order + rewrite")


def _test_compare(report: SelfTestReport) -> None:
    unit = CompareUnit()
    for byte in b"\x12\x34\x56\x78":
        unit.shift(data_symbol(byte))
    exact = unit.evaluate(InjectorConfig(compare_data=0x12345678,
                                         compare_mask=0xFFFFFFFF))
    masked = unit.evaluate(InjectorConfig(compare_data=0x00005678,
                                          compare_mask=0x0000FFFF))
    mismatch = unit.evaluate(InjectorConfig(compare_data=0x12345679,
                                            compare_mask=0xFFFFFFFF))
    report.record("cmp", exact and masked and not mismatch,
                  "exact + don't-care + mismatch")


def _test_inject(report: SelfTestReport) -> None:
    replace = FifoInjector(pipeline_depth=8)
    replace.configure(InjectorConfig(
        match_mode=MatchMode.ON, compare_data=0x18, compare_mask=0xFF,
        corrupt_mode=CorruptMode.REPLACE, corrupt_data=0x19,
        corrupt_mask=0xFF,
    ))
    stream = Burst(b"\x18\x20", b"\x01\x01")
    replaced = replace.process_burst(stream).values
    toggle = FifoInjector(pipeline_depth=8)
    toggle.configure(InjectorConfig(
        match_mode=MatchMode.ON, compare_data=0x18, compare_mask=0xFF,
        corrupt_mode=CorruptMode.TOGGLE, corrupt_data=0x01,
    ))
    toggled = toggle.process_burst(stream).values
    report.record("inj",
                  replaced == b"\x19\x20" and toggled == b"\x19\x20",
                  "replace + toggle micro-pipeline")


def run_selftest() -> SelfTestReport:
    """Run the complete power-on self-test."""
    report = SelfTestReport()
    _test_ram(report)
    _test_fifo(report)
    _test_compare(report)
    _test_inject(report)
    return report

"""Reference-vs-fused conformance of the pinned scenarios.

The injector runs each burst through a fused loop that stands in for
one explicit odd/even :meth:`FifoInjector.step` per symbol.  Every
scenario of :mod:`repro.golden` is re-run here with the fused loop
replaced by that per-step reference; its digests must equal the ones
the golden corpus pins for the shipped data path, component by
component.
"""

from __future__ import annotations

from pathlib import Path
import pytest

from repro.golden import compute_digests, read_digest_file
from repro.hw.injector import FifoInjector
from repro.myrinet.symbols import Burst

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

DEVICE_SCENARIOS = ("fuzz_soup_1", "fuzz_soup_2", "fuzz_soup_3",
                    "back_to_back", "mid_burst_reconfig")
PAPER_SCENARIOS = ("sec431", "sec432", "sec433", "sec434")


def _step_burst(self: FifoInjector, burst: Burst) -> Burst:
    """The reference data path: one explicit two-phase step per symbol."""
    output = [out for out in map(self.step, burst.symbols())
              if out is not None]
    output.extend(self.fifo.drain())
    return Burst.from_symbols(output)


@pytest.fixture
def per_step_injector(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(FifoInjector, "_process_burst_fused", _step_burst)


def _assert_conformant(name: str) -> None:
    expected = read_digest_file(GOLDEN_DIR / f"{name}.digest")
    actual = compute_digests(name)
    moved = [
        f"  {component}: per-step {actual[component]} "
        f"!= pinned {expected.get(component)}"
        for component in ("streams", "stats", "tables", "telemetry", "rcap")
        if actual[component] != expected.get(component)
    ]
    assert not moved, "per-step and fused data paths diverged:\n" + (
        "\n".join(moved)
    )


@pytest.mark.parametrize("name", DEVICE_SCENARIOS)
def test_device_scenarios_conform(name: str, per_step_injector) -> None:
    _assert_conformant(name)


@pytest.mark.parametrize("name", PAPER_SCENARIOS)
def test_paper_campaigns_conform(name: str, per_step_injector) -> None:
    """The §4.3.1–§4.3.4 nftape campaigns, end to end."""
    _assert_conformant(name)

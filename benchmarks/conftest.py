"""Shared plumbing for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
writes its rendered output to ``benchmarks/results/``.  Durations scale
with the ``REPRO_BENCH_SCALE`` environment variable (default 1.0); the
reported quantities are normalized rates and fractions, so the
comparison against the paper is scale-free.
"""

from __future__ import annotations

import os
import pathlib

import pytest

#: Directory where each benchmark drops its rendered table.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    """Duration multiplier from the environment."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled_ps(base_ps: int) -> int:
    """Scale a base duration by the bench scale."""
    return int(base_ps * bench_scale())


def record_result(name: str, text: str) -> None:
    """Print a rendered table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def results():
    """The record_result helper as a fixture."""
    return record_result

"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.sim import DeterministicRng, Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> DeterministicRng:
    """A deterministic random source with a fixed seed."""
    return DeterministicRng(1234)

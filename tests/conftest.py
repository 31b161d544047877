"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.sim import DeterministicRng, Simulator
from repro.telemetry.state import STATE


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> DeterministicRng:
    """A deterministic random source with a fixed seed."""
    return DeterministicRng(1234)


@pytest.fixture
def observation_off():
    """Every observation switchboard slot empty before and after."""
    off = dict.fromkeys(STATE.__slots__)
    STATE.swap(**off)
    yield
    STATE.swap(**off)

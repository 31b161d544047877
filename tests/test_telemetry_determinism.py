"""Telemetry must not perturb the simulation — golden-digest proof.

The determinism sanitizer's probe digests the kernel's entire fired-event
stream.  The golden digests below were captured on the tree *before* the
telemetry subsystem existed, so these tests prove two things at once:

* the disabled fast path is a true no-op — same seed, same digest as the
  pre-telemetry code;
* an *enabled* observation session only observes: metrics and spans are
  recorded, yet the event stream is still bit-identical.

CI runs this file as its telemetry digest gate.
"""

import pytest

from repro.analysis.sanitize import run_probe
from repro.sim.timebase import MS
from repro.telemetry import ObservationSession

#: Kernel event-stream digests captured before the telemetry subsystem
#: was introduced (probe duration 2 ms, default probe campaign).
GOLDEN_DIGESTS = {
    7: "9be2c11d056cd6d0a230152dc7659e17",
    0: "675fc3dcb6c8a1f96a0324e7f0c5ada8",
}

DURATION_PS = 2 * MS


pytestmark = pytest.mark.usefixtures("observation_off")


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_disabled_telemetry_reproduces_pre_telemetry_digest(seed):
    """With telemetry off, the event stream matches the pre-PR tree."""
    result = run_probe(seed=seed, duration_ps=DURATION_PS)
    assert result.digest == GOLDEN_DIGESTS[seed], (
        "the kernel event stream diverged from the pre-telemetry golden "
        f"digest for seed={seed}: {result.summary()}"
    )


def test_enabled_telemetry_is_observation_only():
    """With telemetry *on*, the digest is still the pre-telemetry one."""
    with ObservationSession() as session:
        result = run_probe(seed=7, duration_ps=DURATION_PS)
    assert result.digest == GOLDEN_DIGESTS[7], (
        "an active observation session perturbed the event stream: "
        f"{result.summary()}"
    )
    # ... while actually having observed the run.
    assert session.registry.value("sim.events_fired") > 0
    assert result.events_fired >= session.registry.value("sim.events_fired")


def test_enabled_and_disabled_events_fired_agree():
    """Kernel batch accounting matches the kernel's own event counter."""
    with ObservationSession() as session:
        result = run_probe(seed=0, duration_ps=DURATION_PS)
    fired = session.registry.value("sim.events_fired")
    # The session wraps the whole probe, so every run()/run_until() batch
    # is accounted and the registry total matches the kernel's counter.
    assert fired == result.events_fired

"""Capture must not perturb the simulation — golden-digest proof.

Same discipline as :mod:`tests.test_telemetry_determinism`, whose golden
digests predate both observability subsystems: with capture *off* the
hot paths must be a true no-op (same digest as the pre-capture tree),
and with an observation session *active* the flight recorder must only
observe — events are recorded, correlation ids assigned, yet the kernel
event stream stays bit-identical.

CI runs this file as its capture digest gate.
"""

import pytest

from repro.analysis.sanitize import run_probe
from repro.telemetry import ObservationSession
from repro.telemetry.state import STATE

from tests.test_telemetry_determinism import DURATION_PS, GOLDEN_DIGESTS

pytestmark = pytest.mark.usefixtures("observation_off")


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_disabled_capture_reproduces_golden_digest(seed):
    """With capture off, the event stream matches the pre-capture tree."""
    result = run_probe(seed=seed, duration_ps=DURATION_PS)
    assert result.digest == GOLDEN_DIGESTS[seed], (
        "the kernel event stream diverged from the golden digest with "
        f"capture disabled, seed={seed}: {result.summary()}"
    )


def test_enabled_capture_is_observation_only():
    """With a live flight recorder, the digest is still the golden one."""
    with ObservationSession() as session:
        result = run_probe(seed=7, duration_ps=DURATION_PS)
    assert result.digest == GOLDEN_DIGESTS[7], (
        "an active observation session perturbed the event stream: "
        f"{result.summary()}"
    )
    # ... while actually having observed the run.
    recorder = session.recorder
    assert len(recorder.events) > 0
    assert recorder.corr_ids_assigned > 0
    counts = recorder.stage_counts()
    assert counts.get("host_send", 0) > 0
    assert counts.get("deliver", 0) > 0


def test_enabled_capture_with_telemetry_is_observation_only():
    """Metrics, spans and the recorder at once: still bit-identical."""
    with ObservationSession() as session:
        result = run_probe(seed=0, duration_ps=DURATION_PS)
    assert result.digest == GOLDEN_DIGESTS[0], (
        "telemetry+capture together perturbed the event stream: "
        f"{result.summary()}"
    )
    assert len(session.recorder.events) > 0
    assert session.registry.value("sim.events_fired") > 0


def test_session_restores_previous_state():
    outer = ObservationSession()
    with outer:
        assert STATE.recorder is outer.recorder
        inner = ObservationSession()
        with inner:
            assert STATE.recorder is inner.recorder
        # Nested exit restores the outer recorder, not "off".
        assert STATE.recorder is outer.recorder
    assert STATE.recorder is None

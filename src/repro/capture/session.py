"""Capture session lifecycle and the ``.rcap`` run artifact.

A :class:`CaptureSession` mirrors
:class:`repro.telemetry.session.TelemetrySession`: it owns one
:class:`~repro.capture.provenance.FlightRecorder`, flips the global
:data:`~repro.capture.state.CAPTURE` switch for its duration, and — when
given an output directory — drops one binary artifact on exit:

* ``capture.rcap`` — experiment markers, SDRAM capture windows, and the
  lifecycle event log, in the versioned format of
  :mod:`repro.capture.format`.

When the campaign also runs under a telemetry session pointed at the
same directory, the capture file lands beside ``metrics.json`` /
``spans.jsonl`` and every experiment marker carries the span id of its
``experiment`` span — the join key the decode pipeline uses.

Sessions nest safely (previous state restored on exit) and are
exception-safe (the artifact is still written when the wrapped campaign
raises).  Unlike the telemetry session this module never reads a wall
clock: simlint's SIM001 applies in full here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from repro.capture.format import CaptureWriter
from repro.capture.provenance import (
    DEFAULT_KEY_LIMIT,
    DEFAULT_MAX_EVENTS,
    ExperimentCapture,
    FlightRecorder,
)
from repro.capture.state import CAPTURE
from repro.telemetry.spans import current_span_id

__all__ = ["CaptureSession", "capture_experiment", "CAPTURE_FILE_NAME"]

#: File name dropped into ``--artifacts-dir``'s ``capture/``.
CAPTURE_FILE_NAME = "capture.rcap"


class CaptureSession:
    """Enable packet provenance capture for a ``with`` block.

    ::

        with CaptureSession(out_dir="out", label="table4") as session:
            campaign.run()
        # out/capture.rcap now exists
    """

    def __init__(
        self,
        out_dir: Optional[Union[str, Path]] = None,
        label: str = "repro",
        max_events: int = DEFAULT_MAX_EVENTS,
        key_limit: int = DEFAULT_KEY_LIMIT,
    ) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.label = label
        self.recorder = FlightRecorder(
            max_events=max_events, key_limit=key_limit
        )
        self.path: Optional[Path] = None
        self._previous: Optional[tuple] = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "CaptureSession":
        self._previous = (CAPTURE.active, CAPTURE.recorder)
        CAPTURE.activate(self.recorder)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is not None:
            active, recorder = self._previous
            if active and recorder is not None:
                CAPTURE.activate(recorder)
            else:
                CAPTURE.deactivate()
            self._previous = None
        else:  # pragma: no cover - defensive
            CAPTURE.deactivate()
        if self.out_dir is not None:
            self.path = self.write(self.out_dir)
        return False

    # ------------------------------------------------------------------

    def meta(self) -> dict:
        """The capture-file header metadata."""
        recorder = self.recorder
        return {
            "label": self.label,
            "sim_epoch_ps": 0,
            "config": {
                "max_events": recorder.max_events,
            },
            "experiments": len(recorder.experiments),
            "events_retained": len(recorder.events),
            "events_dropped": recorder.events_dropped,
            "corr_ids_assigned": recorder.corr_ids_assigned,
        }

    def write(self, out_dir: Union[str, Path]) -> Path:
        """Serialize the recorder into ``<out_dir>/capture.rcap``."""
        target = Path(out_dir) / CAPTURE_FILE_NAME
        recorder = self.recorder
        with CaptureWriter(target, meta=self.meta()) as writer:
            for capture in recorder.experiments:
                writer.write_experiment(capture.meta())
                for record in capture.records:
                    writer.write_capture(capture.index, record)
            for event in recorder.events:
                writer.write_event(event)
        return target


def capture_experiment(
    testbed: Any,
    result: Any,
    seed: Optional[int] = None,
) -> Optional[ExperimentCapture]:
    """Close the current experiment scope on the active flight recorder.

    Called by :meth:`repro.nftape.experiment.Experiment.run` (after
    result collection, inside the ``experiment`` telemetry span) when
    :data:`~repro.capture.state.CAPTURE` is active.  Flushes the
    device's monitors, collects the SDRAM capture windows, classifies
    the result per §4.4, and records the telemetry span id so the
    offline decoder can join all three.
    """
    recorder = CAPTURE.recorder
    if recorder is None:  # pragma: no cover - defensive
        return None
    # Local import: nftape.experiment imports this module at load time,
    # and classify pulls in nftape.results — resolving it lazily keeps
    # the package import graph acyclic.
    from repro.nftape.classify import classify_result

    classification = classify_result(result)
    capture = ExperimentCapture(
        index=recorder.current_experiment_index,
        name=result.name,
        seed=seed,
        fault_class=classification.fault_class.value,
        evidence=list(classification.evidence),
        span_id=current_span_id(),
        injections=result.injections,
    )
    device = getattr(testbed, "device", None)
    if device is not None:
        for direction in ("R", "L"):
            device.monitor(direction).flush()
        capture.records = [record for _time, record in device.sdram.records]
        capture.sdram = dict(device.sdram.stats)
    recorder.finish_experiment(capture)
    return capture

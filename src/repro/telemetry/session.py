"""The observation session and its run artifacts.

An :class:`ObservationSession` owns one :class:`MetricsRegistry`, one
:class:`SpanTracker` and one capture
:class:`~repro.capture.provenance.FlightRecorder`, installs them on the
:data:`~repro.telemetry.state.STATE` switchboard for its duration, and —
when given an output directory — drops the run artifacts on exit::

    out_dir/
      telemetry/metrics.json   every metric series plus session metadata
      telemetry/spans.jsonl    one JSON object per completed span
      telemetry/trace.json     Chrome trace-event JSON (open in Perfetto)
      capture/capture.rcap     experiment markers, SDRAM capture windows
                               and the lifecycle event log

Every experiment marker in ``capture.rcap`` carries the span id of its
``experiment`` span — the join key the decode pipeline uses.

Sessions nest safely (the outer sinks are restored on exit), and the
whole construct is exception-safe: artifacts are still written when the
wrapped campaign raises.

Wall-clock reads live here and in :mod:`repro.telemetry.spans` only —
the SIM001 telemetry allowance — and never feed back into sim
scheduling.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.capture.format import CAPTURE_FILE_NAME, CaptureWriter
from repro.capture.provenance import FlightRecorder
from repro.telemetry.exporters import spans_to_jsonl, to_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracker
from repro.telemetry.state import STATE

__all__ = [
    "ObservationSession",
    "ARTIFACT_NAMES",
    "CAPTURE_SUBDIR",
    "METRICS_FILE_NAME",
    "TELEMETRY_SUBDIR",
]

#: Telemetry sub-directory of an artifacts root (and of each shard).
TELEMETRY_SUBDIR = "telemetry"
#: Capture sub-directory of an artifacts root (and of each shard).
CAPTURE_SUBDIR = "capture"
#: The metrics artifact under ``telemetry/``.
METRICS_FILE_NAME = "metrics.json"
#: File names dropped into ``telemetry/``.
ARTIFACT_NAMES = (METRICS_FILE_NAME, "spans.jsonl", "trace.json")


class ObservationSession:
    """Observe a ``with`` block; optionally write its artifacts.

    ::

        with ObservationSession(out_dir="out", label="table4") as session:
            campaign.run()
        # out/telemetry/{metrics.json,spans.jsonl,trace.json} and
        # out/capture/capture.rcap now exist
    """

    def __init__(
        self,
        out_dir: Optional[Union[str, Path]] = None,
        label: str = "repro",
    ) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.label = label
        self.registry = MetricsRegistry()
        self.spans = SpanTracker()
        self.recorder = FlightRecorder()
        self.wall_s: Optional[float] = None
        self._t0 = 0
        self._outer: Dict[str, Any] = {}

    # ------------------------------------------------------------------

    def __enter__(self) -> "ObservationSession":
        self._outer = STATE.swap(
            registry=self.registry, spans=self.spans, recorder=self.recorder
        )
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = (time.perf_counter_ns() - self._t0) / 1e9
        self._finalize_derived()
        STATE.swap(**self._outer)
        if self.out_dir is not None:
            self.write(self.out_dir)
        return False

    def _finalize_derived(self) -> None:
        """Derived session metrics: events/sec over the session wall time."""
        fired = self.registry.value("sim.events_fired")
        if self.wall_s and self.wall_s > 0:
            self.registry.gauge("sim.events_per_s").set(fired / self.wall_s)
        self.registry.gauge("session.wall_s").set(self.wall_s or 0.0)

    # ------------------------------------------------------------------

    def metrics_document(self) -> Dict[str, Any]:
        """The ``metrics.json`` payload."""
        return {
            "generated_by": "repro.telemetry",
            "version": 1,
            "label": self.label,
            "wall_s": self.wall_s,
            "metrics": self.registry.to_dict(),
        }

    def capture_meta(self) -> Dict[str, Any]:
        """The ``capture.rcap`` header metadata."""
        recorder = self.recorder
        return {
            "label": self.label,
            "sim_epoch_ps": 0,
            "config": {
                "max_events": recorder.max_events,
            },
            "experiments": len(recorder.experiments),
            "events_retained": len(recorder.frames),
            "events_dropped": recorder.events_dropped,
            "corr_ids_assigned": recorder.corr_ids_assigned,
        }

    def write(self, out_dir: Union[str, Path]) -> Path:
        """Write every artifact under ``out_dir``; returns its path."""
        root = Path(out_dir)
        telemetry = root / TELEMETRY_SUBDIR
        telemetry.mkdir(parents=True, exist_ok=True)
        (telemetry / METRICS_FILE_NAME).write_text(
            json.dumps(self.metrics_document(), indent=2, sort_keys=True)
            + "\n"
        )
        (telemetry / "spans.jsonl").write_text(
            spans_to_jsonl(self.spans.records)
        )
        (telemetry / "trace.json").write_text(
            json.dumps(to_chrome_trace(self.spans.records, label=self.label))
            + "\n"
        )
        with CaptureWriter(root / CAPTURE_SUBDIR / CAPTURE_FILE_NAME,
                           meta=self.capture_meta()) as writer:
            for experiment in self.recorder.experiments:
                writer.write_experiment(experiment.meta())
                for record in experiment.records:
                    writer.write_capture(experiment.index, record)
            frames = self.recorder.frames
            writer.write_framed(b"".join(frames), len(frames))
        return root

"""Telemetry session lifecycle and run artifacts.

A :class:`TelemetrySession` owns one :class:`MetricsRegistry` and one
:class:`SpanTracker`, flips the global :data:`~repro.telemetry.state.STATE`
switch for its duration, and — when given an output directory — drops
three machine-readable artifacts on exit:

* ``metrics.json``  — every metric series plus session metadata;
* ``spans.jsonl``   — one JSON object per completed span;
* ``trace.json``    — Chrome trace-event JSON (open in Perfetto).

Sessions nest safely (the previous state is restored on exit), and the
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

from repro.telemetry.exporters import spans_to_jsonl, to_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracker
from repro.telemetry.state import STATE

__all__ = ["TelemetrySession", "ARTIFACT_NAMES"]

#: File names dropped into ``--artifacts-dir``'s ``telemetry/``.
ARTIFACT_NAMES = ("metrics.json", "spans.jsonl", "trace.json")


class TelemetrySession:
    """Enable telemetry for a ``with`` block; optionally write artifacts.

    ::

        with TelemetrySession(out_dir="out", label="table4") as session:
            campaign.run()
        # out/metrics.json, out/spans.jsonl, out/trace.json now exist
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
        self.wall_s: Optional[float] = None
        self._t0: Optional[int] = None
        self._previous: Optional[tuple] = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "TelemetrySession":
        self._previous = (STATE.active, STATE.registry, STATE.spans)
        STATE.activate(self.registry, self.spans)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = (
            (time.perf_counter_ns() - self._t0) / 1e9
            if self._t0 is not None
            else 0.0
        )
        self._finalize_derived()
        if self._previous is not None:
            active, registry, spans = self._previous
            if active and registry is not None and spans is not None:
                STATE.activate(registry, spans)
            else:
                STATE.deactivate()
            self._previous = None
        else:  # pragma: no cover - defensive
            STATE.deactivate()
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

    def write(self, out_dir: Union[str, Path]) -> Path:
        """Write all three artifacts; returns the directory path."""
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "metrics.json").write_text(
            json.dumps(self.metrics_document(), indent=2, sort_keys=True)
            + "\n"
        )
        (target / "spans.jsonl").write_text(
            spans_to_jsonl(self.spans.records)
        )
        (target / "trace.json").write_text(
            json.dumps(to_chrome_trace(self.spans.records, label=self.label))
            + "\n"
        )
        return target

"""repro.telemetry — self-observation for the reproduction.

The paper's device exists to observe a network it cannot slow down
(§3.2's statistics gatherer and monitor); this package gives the
reproduction the same property about *itself*: a metrics registry cheap
enough to leave enabled, span-based wall/sim-time tracing, and
machine-readable exporters (JSONL, Prometheus text, Chrome trace JSON).

Quickstart::

    from repro.telemetry import ObservationSession, span

    with ObservationSession(out_dir="out", label="my-campaign") as session:
        with span("campaign", name="demo"):
            campaign.run()
    # out/telemetry/{metrics.json,spans.jsonl,trace.json}
    # and out/capture/capture.rcap

The same session turns on the capture flight recorder
(:mod:`repro.capture`): one switchboard,
:data:`~repro.telemetry.state.STATE`, carries every observation sink.

Design contract (enforced by tests):

* **disabled == free** — every hot-path hook is guarded by one slot
  load and an ``is not None`` test; with no session active the
  simulation runs the exact event sequence it ran before this package
  existed (identical kernel digests);
* **enabled == invisible** — telemetry only observes; it never reads
  wall-clock time inside sim logic, schedules events, or perturbs RNG
  streams, so identical-seed digests also match with telemetry *on*;
* **wall clock is quarantined here** — simlint's SIM001 rule bans
  wall-clock reads everywhere in ``repro`` except this package.
"""

from repro.telemetry.exporters import (
    PROMETHEUS_CONTENT_TYPE,
    parse_spans_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
    to_prometheus,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import SpanRecord, SpanTracker, span
from repro.telemetry.state import STATE

#: Names resolved lazily from :mod:`repro.telemetry.session`.  The
#: session owns the capture recorder and writer, whose package imports
#: the hot modules that import *us* — deferring it keeps the graph
#: acyclic.
_SESSION_EXPORTS = ("ARTIFACT_NAMES", "ObservationSession")


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.telemetry import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ARTIFACT_NAMES",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservationSession",
    "SpanRecord",
    "SpanTracker",
    "STATE",
    "parse_spans_jsonl",
    "span",
    "spans_to_jsonl",
    "to_chrome_trace",
    "to_prometheus",
]

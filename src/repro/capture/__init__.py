"""Flight recorder, packet provenance, and failure-analysis decode.

The observability layer the paper's §3.2/§3.4 monitoring story implies:

* :mod:`repro.capture.provenance` — correlation ids, the lifecycle
  flight recorder, and route-invariant packet fingerprints;
* :mod:`repro.capture.instrument` — the duck-typed hooks instrumented
  code calls after checking the ``recorder`` slot of the observation
  switchboard (:data:`repro.telemetry.state.STATE`), and
  :func:`capture_experiment`, which closes one experiment's scope;
* :mod:`repro.capture.format` — the versioned ``.rcap`` binary capture
  file (writer + lossless reader);
* :mod:`repro.capture.decode` — the offline analyzer that reassembles
  packets, marks injected symbols, and joins §4.4 verdicts.

:class:`repro.telemetry.session.ObservationSession` owns the recorder
and writes ``capture/capture.rcap`` beside the telemetry artifacts.
"""

from repro.capture.format import (
    CAPTURE_FILE_NAME,
    CaptureFileData,
    CaptureWriter,
    read_capture,
)
from repro.capture.instrument import capture_experiment
from repro.capture.provenance import (
    ExperimentCapture,
    FlightRecorder,
    LifecycleEvent,
    Stage,
    packet_key,
)

#: Names resolved lazily from :mod:`repro.capture.decode`.  The decode
#: pipeline imports hostsim/nftape, which transitively import the hot
#: modules that import *us* — deferring it keeps the graph acyclic.
_DECODE_EXPORTS = ("CaptureAnalysis", "analyze_capture")


def __getattr__(name: str):
    if name in _DECODE_EXPORTS:
        from repro.capture import decode

        return getattr(decode, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CAPTURE_FILE_NAME",
    "CaptureAnalysis",
    "CaptureFileData",
    "CaptureWriter",
    "ExperimentCapture",
    "FlightRecorder",
    "LifecycleEvent",
    "Stage",
    "analyze_capture",
    "capture_experiment",
    "packet_key",
    "read_capture",
]

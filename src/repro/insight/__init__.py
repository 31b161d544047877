"""repro.insight — offline incident correlation and failure analysis.

The observability capstone of the reproduction (ROADMAP item 5, the
paper's "failure analysis" endgame): where :mod:`repro.telemetry` and
:mod:`repro.capture` *record* what happened, this package *explains*
it.  Given one campaign's artifact directory, the engine

* joins decoded ``.rcap`` capture windows to telemetry spans via the
  correlation ids the observation session stamped at run time;
* reconstructs a per-incident sim-time timeline (phases, injections,
  capture windows, drops);
* computes the **blast radius** over the Figure 10 route graph — which
  host pairs crossed the corrupted segment in the affected direction;
* ranks symptom->cause hypotheses with a deterministic lexicographic
  scorer (injection marks > CRC verdicts > UDP anomalies > drop/shed
  deltas);
* persists the versioned, byte-stable :class:`IncidentReport` into a
  sqlite :class:`InsightStore` that answers "which past campaign looked
  like this one" by feature-vector cosine distance.

Entry points: :func:`analyze_artifacts` (the engine),
:class:`InsightStore` (the archive), and ``repro.cli insight
analyze|report|similar`` (the command line).  See docs/insight.md.
"""

from repro.insight.correlate import (
    CampaignArtifacts,
    analyze_artifacts,
    load_artifacts,
)
from repro.insight.model import (
    FEATURES,
    REPORT_FORMAT,
    REPORT_VERSION,
    BlastRadius,
    Hypothesis,
    Incident,
    IncidentReport,
    TimelineEntry,
    canonical_json,
)
from repro.insight.rank import TIER_ORDER, build_hypotheses
from repro.insight.store import InsightStore, cosine_distance
from repro.insight.store_ingest import crosscheck_report

__all__ = [
    "analyze_artifacts",
    "load_artifacts",
    "CampaignArtifacts",
    "IncidentReport",
    "Incident",
    "Hypothesis",
    "BlastRadius",
    "TimelineEntry",
    "InsightStore",
    "build_hypotheses",
    "cosine_distance",
    "crosscheck_report",
    "canonical_json",
    "FEATURES",
    "TIER_ORDER",
    "REPORT_FORMAT",
    "REPORT_VERSION",
]

"""Artifact ingestion and the capture<->telemetry<->topology join.

This is the engine behind ``repro.cli insight analyze``: it loads one
campaign's artifact directory, joins the three observation planes, and
emits the byte-stable :class:`~repro.insight.model.IncidentReport`.

**Layout.**  One artifact layout is read, the *engine* layout the
campaign executors write: ``root/telemetry/metrics.json`` +
``spans.jsonl``, ``root/capture/capture.rcap``, and ``root/spec.json``
(the campaign's spec codec document, decoded back into a
:class:`~repro.runtime.spec.CampaignSpec`).

**The join.**  Each experiment marker in the capture file carries the
``span_id`` of the telemetry ``experiment`` span it ran under.  Span ids
restart per shard, so the join key is ``(shard, span_id)`` where
``shard`` is the campaign-global experiment index stamped by the
artifact merge.  Phase intervals (settle/injection/workload/drain)
come from the span's children — *sim time only*; wall-clock fields
never enter the report, which is what keeps it byte-stable across
worker counts and machines.

**Degradation.**  Missing or torn inputs never crash the analysis:
every gap is recorded in ``report.degradations``, counted on the
``insight.degraded`` telemetry counter when a session is active, and
the report stays partial-but-valid.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.capture.decode import CaptureAnalysis, analyze_capture
from repro.capture.format import (
    CAPTURE_FILE_NAME,
    CaptureFileData,
    read_capture,
)
from repro.capture.provenance import Stage
from repro.errors import ConfigurationError
from repro.insight.model import (
    BlastRadius,
    Incident,
    IncidentReport,
    TimelineEntry,
)
from repro.insight.rank import build_hypotheses
from repro.myrinet.mapping import TopologyOracle, paper_oracle
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.runtime.spec_codec import spec_from_json
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import (
    CAPTURE_SUBDIR,
    METRICS_FILE_NAME,
    TELEMETRY_SUBDIR,
)
from repro.telemetry.state import STATE

__all__ = ["CampaignArtifacts", "load_artifacts", "analyze_artifacts"]

#: Hard cap on per-incident timeline entries; the overflow count is
#: reported so truncation is never silent.
MAX_TIMELINE_ENTRIES = 160

#: Timeline kinds derived from lifecycle event stages.
_EVENT_KINDS = {
    Stage.INJECT: "inject",
    Stage.DROP: "drop",
    Stage.CAPTURE_SHED: "shed",
    Stage.UDP_CHECKSUM_DROP: "udp_checksum_drop",
}


class CampaignArtifacts:
    """One campaign's loaded artifacts plus every load-time degradation."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.capture: Optional[CaptureFileData] = None
        self.spans_rows: List[Dict[str, Any]] = []
        self.metrics_doc: Optional[Dict[str, Any]] = None
        self.spec: Optional[CampaignSpec] = None
        self.degradations: List[str] = []


def _load_spans(artifacts: CampaignArtifacts, path: Path) -> None:
    """Parse ``spans.jsonl`` tolerantly: torn/garbled lines degrade."""
    try:
        text = path.read_text()
    except OSError as exc:
        artifacts.degradations.append(f"spans.jsonl unreadable: {exc}")
        return
    lines = [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip()
    ]
    for position, (number, line) in enumerate(lines):
        try:
            row = json.loads(line)
        except ValueError:
            where = (
                "torn final line" if position == len(lines) - 1
                else f"line {number}"
            )
            artifacts.degradations.append(
                f"spans.jsonl: {where} is not valid JSON; skipped"
            )
            continue
        if isinstance(row, dict):
            artifacts.spans_rows.append(row)
        else:
            artifacts.degradations.append(
                f"spans.jsonl: line {number} is not an object; skipped"
            )


def load_artifacts(root: Union[str, Path]) -> CampaignArtifacts:
    """Load a campaign artifact directory, tolerantly."""
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"{root} is not an artifact directory")
    artifacts = CampaignArtifacts(root)
    telemetry = root / TELEMETRY_SUBDIR
    capture_path = root / CAPTURE_SUBDIR / CAPTURE_FILE_NAME

    metrics_path = telemetry / METRICS_FILE_NAME
    if metrics_path.exists():
        try:
            artifacts.metrics_doc = json.loads(metrics_path.read_text())
        except ValueError as exc:
            artifacts.degradations.append(f"metrics.json unparsable: {exc}")
    else:
        artifacts.degradations.append("metrics.json missing")

    spans_path = telemetry / "spans.jsonl"
    if spans_path.exists():
        _load_spans(artifacts, spans_path)
    else:
        artifacts.degradations.append("spans.jsonl missing")

    if capture_path.exists():
        try:
            artifacts.capture = read_capture(capture_path)
        except Exception as exc:  # noqa: BLE001 - any decode failure degrades
            artifacts.degradations.append(
                f"capture.rcap unreadable: {exc}"
            )
    else:
        artifacts.degradations.append("capture.rcap missing")

    spec_path = root / "spec.json"
    if spec_path.exists():
        try:
            artifacts.spec = spec_from_json(json.loads(spec_path.read_text()))
        except Exception as exc:  # noqa: BLE001 - any decode failure degrades
            artifacts.degradations.append(f"spec.json unparsable: {exc}")
    return artifacts


# ---------------------------------------------------------------------------
# the join
# ---------------------------------------------------------------------------


def _span_indices(
    rows: List[Dict[str, Any]],
) -> Tuple[Dict[Tuple[Optional[int], int], Dict[str, Any]],
           Dict[Tuple[Optional[int], Optional[int]], List[Dict[str, Any]]]]:
    """Index span rows: experiment spans by (shard, id), children by
    (shard, parent_id)."""
    experiments: Dict[Tuple[Optional[int], int], Dict[str, Any]] = {}
    children: Dict[Tuple[Optional[int], Optional[int]],
                   List[Dict[str, Any]]] = {}
    for row in rows:
        shard = row.get("shard")
        if row.get("name") == "experiment":
            span_id = row.get("span_id")
            if isinstance(span_id, int):
                experiments[(shard, span_id)] = row
        parent = row.get("parent_id")
        if parent is not None:
            children.setdefault((shard, parent), []).append(row)
    return experiments, children


def _join_span(
    incident: Incident,
    marker: Dict[str, Any],
    experiments: Dict[Tuple[Optional[int], int], Dict[str, Any]],
    children: Dict[Tuple[Optional[int], Optional[int]],
                   List[Dict[str, Any]]],
    sharded: bool,
    degradations: List[str],
) -> List[Dict[str, Any]]:
    """Attach the experiment span + phase intervals; returns the phases."""
    span_id = marker.get("span_id")
    if not isinstance(span_id, int):
        degradations.append(
            f"experiment {incident.index}: no span id in its capture "
            f"marker (telemetry off?); timeline has no phases"
        )
        incident.span = {
            "span_id": None, "shard": None, "phases": [], "joined": False,
        }
        return []
    shard: Optional[int] = incident.index if sharded else None
    row = experiments.get((shard, span_id))
    if row is None and sharded:
        # Serial runs that still write an engine layout keep unsharded
        # span rows; fall back before declaring the join broken.
        shard = None
        row = experiments.get((None, span_id))
    if row is None:
        degradations.append(
            f"experiment {incident.index}: span_id {span_id} not found "
            f"in spans.jsonl; phases unavailable"
        )
        incident.span = {
            "span_id": span_id, "shard": None, "phases": [],
            "joined": False,
        }
        return []
    phases = []
    for child in children.get((shard, span_id), []):
        phases.append({
            "name": child.get("name"),
            "start_sim_ps": child.get("start_sim_ps"),
            "end_sim_ps": child.get("end_sim_ps"),
        })
    phases.sort(key=lambda p: (
        p["start_sim_ps"] if p["start_sim_ps"] is not None else -1,
        str(p["name"]),
    ))
    incident.span = {
        "span_id": span_id,
        "shard": shard,
        "name": row.get("attrs", {}).get("name"),
        "phases": phases,
        "joined": True,
    }
    return phases


def _topology(
    spec: Optional[CampaignSpec],
) -> Tuple[str, str, TopologyOracle]:
    """The instrumented host, the switch it hangs off, and the oracle.

    A spec'd fabric supplies its own wiring; otherwise the campaign ran
    on the paper test bed (one switch named ``switch``).  Raises
    :class:`ConfigurationError` when the host is not in the topology.
    """
    experiments = spec.experiments if spec is not None else ()
    testbed = next(
        (e.testbed for e in experiments if e.testbed is not None), None
    )
    host = "pc" if testbed is None else testbed.instrumented_host
    fabric = None if testbed is None else testbed.topology
    if fabric is None:
        return host, "switch", paper_oracle(host)
    for linked_host, switch, _port in fabric.host_links:
        if linked_host == host:
            return host, switch, fabric.oracle()
    raise ConfigurationError(
        f"instrumented host {host!r} is not part of the fabric "
        f"{fabric.hosts}"
    )


def _blast_radius(
    direction: str,
    instrumented_host: str,
    oracle: TopologyOracle,
    switch: str = "switch",
) -> BlastRadius:
    """Host pairs whose conversations cross the instrumented segment.

    ``direction`` uses the injector's convention: ``R`` is the burst
    received on the *left* (host-facing) segment — host->switch traffic
    — and ``L`` is switch->host.  ``RL`` covers both.  ``switch`` names
    the switch the instrumented host is attached to (the paper test
    bed's one switch by default).
    """
    switch_node = ("sw", switch)
    radius = BlastRadius(segment={
        "host": instrumented_host,
        "attached_to": f"sw:{switch}",
        "directions": sorted(set(direction)),
    })
    seen = set()
    for letter in sorted(set(direction)):
        if letter == "R":
            edge = (instrumented_host, switch_node)
            rendered = f"{instrumented_host}->{switch}"
        else:
            edge = (switch_node, instrumented_host)
            rendered = f"{switch}->{instrumented_host}"
        for src, dst in oracle.pairs_crossing(edge):
            key = (src, dst, rendered)
            if key in seen:
                continue
            seen.add(key)
            radius.pairs.append({
                "src": src,
                "dst": dst,
                "direction": rendered,
                "route": oracle.route(src, dst),
            })
    radius.pairs.sort(
        key=lambda p: (p["src"], p["dst"], p["direction"])
    )
    return radius


def _window_summary(window_analysis: Any) -> Dict[str, Any]:
    """Flatten one decoded window into report-friendly verdict counts."""
    capture = window_analysis.capture
    frames = window_analysis.frames
    crc_broken = sum(1 for f in frames if f.crc_ok is False)
    udp_broken = sum(
        1 for f in frames
        if f.udp is not None and f.udp.get("checksum_ok") is False
    )
    sneaky = sum(
        1 for i in window_analysis.hit_frames
        if frames[i].udp is not None and frames[i].udp.get("checksum_ok")
    )
    return {
        "time_ps": capture.time_ps,
        "direction": capture.direction,
        "segment_index": capture.segment_index,
        "forced": capture.forced,
        "marked": window_analysis.mark.matched,
        "lanes_rewritten": capture.lanes_rewritten,
        "injected_offsets": list(window_analysis.mark.injected_offsets),
        "frames": len(frames),
        "hit_frames": len(window_analysis.hit_frames),
        "crc_broken_frames": crc_broken,
        "udp_broken_frames": udp_broken,
        "udp_valid_despite_hit": sneaky,
        "effect": window_analysis.effect,
    }


def _latency_features(
    metrics_doc: Optional[Dict[str, Any]],
    degradations: List[str],
) -> Dict[str, float]:
    """p50/p95/p99 of ``device.added_latency_ns`` from merged metrics."""
    if not metrics_doc:
        return {}
    try:
        registry = MetricsRegistry.from_dict(
            metrics_doc.get("metrics", {})
        )
    except Exception as exc:  # noqa: BLE001 - degraded, not fatal
        degradations.append(f"metrics.json not a metrics document: {exc}")
        return {}
    histogram = registry.get("device.added_latency_ns")
    if histogram is None or not hasattr(histogram, "quantiles"):
        return {}
    quantiles = histogram.quantiles()
    return {
        "latency_p50_ns": quantiles["p50"],
        "latency_p95_ns": quantiles["p95"],
        "latency_p99_ns": quantiles["p99"],
    }


def _incident_timeline(
    incident: Incident,
    phases: List[Dict[str, Any]],
    events: List[Any],
    windows: List[Dict[str, Any]],
) -> None:
    """Assemble + truncate the sim-time timeline for one incident."""
    entries: List[TimelineEntry] = []
    for phase in phases:
        entries.append(TimelineEntry(
            time_ps=phase.get("start_sim_ps"),
            kind="phase",
            label=str(phase.get("name")),
            detail={
                "start_sim_ps": phase.get("start_sim_ps"),
                "end_sim_ps": phase.get("end_sim_ps"),
            },
        ))
    for event in events:
        kind = _EVENT_KINDS.get(event.stage)
        if kind is None:
            continue
        entries.append(TimelineEntry(
            time_ps=event.time_ps,
            kind=kind,
            label=f"{event.stage}@{event.node}",
            detail={
                "node": event.node,
                "direction": event.direction,
                "corr_id": event.corr_id,
            },
        ))
    for number, window in enumerate(windows):
        entries.append(TimelineEntry(
            time_ps=window["time_ps"],
            kind="window",
            label=f"window {number}",
            detail={
                "direction": window["direction"],
                "marked": window["marked"],
                "effect": window["effect"],
            },
        ))
    entries.sort(key=lambda e: e.sort_key())
    if len(entries) > MAX_TIMELINE_ENTRIES:
        incident.timeline_truncated = len(entries) - MAX_TIMELINE_ENTRIES
        entries = entries[:MAX_TIMELINE_ENTRIES]
    incident.timeline = entries


def _fault_window(
    events: List[Any],
    windows: List[Dict[str, Any]],
    phases: List[Dict[str, Any]],
) -> Optional[List[int]]:
    """The observed fault interval: inject events, else marked windows,
    else the injection phase's sim interval."""
    inject_times = [
        e.time_ps for e in events if e.stage == Stage.INJECT
    ]
    if inject_times:
        return [min(inject_times), max(inject_times)]
    marked = [w["time_ps"] for w in windows if w["marked"]]
    if marked:
        return [min(marked), max(marked)]
    for phase in phases:
        if phase.get("name") == "injection" \
                and phase.get("start_sim_ps") is not None \
                and phase.get("end_sim_ps") is not None:
            return [phase["start_sim_ps"], phase["end_sim_ps"]]
    return None


def analyze_artifacts(
    source: Union[str, Path, CampaignArtifacts],
    label: Optional[str] = None,
) -> IncidentReport:
    """Correlate one campaign's artifacts into an :class:`IncidentReport`.

    ``source`` is an artifact directory (engine layout) or a pre-loaded
    :class:`CampaignArtifacts`.  The function never raises on missing or
    damaged inputs — it degrades, listing every gap in the report and
    bumping the ``insight.degraded`` counter when telemetry is active —
    and its output is byte-stable for byte-identical inputs.
    """
    artifacts = (
        source if isinstance(source, CampaignArtifacts)
        else load_artifacts(source)
    )
    degradations = list(artifacts.degradations)

    analysis: Optional[CaptureAnalysis] = None
    if artifacts.capture is not None:
        analysis = analyze_capture(artifacts.capture)

    spec = artifacts.spec
    spec_experiments: Dict[int, ExperimentSpec] = dict(
        enumerate(spec.experiments) if spec is not None else ()
    )
    spec_name = spec.name if spec is not None else None

    campaign_label = label or spec_name or (
        analysis.meta.get("label") if analysis is not None else None
    ) or artifacts.root.name

    experiments, children = _span_indices(artifacts.spans_rows)
    sharded = any("shard" in row for row in artifacts.spans_rows)

    report = IncidentReport(
        label=str(campaign_label),
        campaign={
            "name": str(spec_name or campaign_label),
            "base_seed": spec.base_seed if spec is not None else None,
            "source": "engine",
            "spec_present": artifacts.spec is not None,
            "capture_present": artifacts.capture is not None,
            "telemetry_present": bool(artifacts.spans_rows)
            or artifacts.metrics_doc is not None,
            "features": _latency_features(
                artifacts.metrics_doc, degradations
            ),
        },
    )

    # The incident universe: decoded capture experiments first, spec
    # entries as the fallback when the capture plane is missing.
    decoded: Dict[int, Any] = {}
    if analysis is not None:
        decoded = {e.index: e for e in analysis.experiments}
    indices = sorted(set(decoded) | set(spec_experiments)) or sorted(
        shard for (shard, _sid) in experiments if shard is not None
    )

    try:
        instrumented_host, switch, oracle = _topology(spec)
    except ConfigurationError as exc:
        oracle = None
        degradations.append(f"topology: {exc}")

    matched_span_keys = set()
    for index in indices:
        experiment = decoded.get(index)
        spec_entry = spec_experiments.get(index)
        marker = experiment.meta if experiment is not None else {}
        incident = Incident(
            index=index,
            name=str(
                marker.get("name")
                or (spec_entry.name if spec_entry is not None else None)
                or f"experiment-{index}"
            ),
            seed=marker.get(
                "seed",
                spec.seed_for(index) if spec_entry is not None else None,
            ),
            fault_class=str(marker.get("fault_class", "unknown")),
            evidence=[str(e) for e in (marker.get("evidence") or [])],
        )
        if experiment is None:
            degradations.append(
                f"experiment {index}: present in spec.json but absent "
                f"from the capture artifact"
            )

        phases = _join_span(
            incident, marker, experiments, children, sharded, degradations
        )
        if incident.span.get("joined"):
            matched_span_keys.add(
                (incident.span.get("shard"), incident.span["span_id"])
            )

        windows = []
        events: List[Any] = []
        if experiment is not None:
            windows = [_window_summary(w) for w in experiment.windows]
            incident.stage_counts = dict(experiment.stage_counts)
            if artifacts.capture is not None:
                events = artifacts.capture.events_for(index)
        incident.windows = windows
        if marker.get("span_id") is not None and not windows \
                and experiment is not None:
            degradations.append(
                f"experiment {index}: span joined but no capture "
                f"window was stored (trigger never fired?)"
            )
        incident.fault_window_ps = _fault_window(events, windows, phases)
        _incident_timeline(incident, phases, events, windows)

        sdram = marker.get("sdram") or {}
        aggregate = {
            "injections": marker.get("injections", 0),
            "captures": marker.get("captures", 0),
            "windows": len(windows),
            "marks_matched": sum(1 for w in windows if w["marked"]),
            "lanes_rewritten": sum(w["lanes_rewritten"] for w in windows),
            "crc_broken_frames": sum(
                w["crc_broken_frames"] for w in windows
            ),
            "udp_broken_frames": sum(
                w["udp_broken_frames"] for w in windows
            ),
            "udp_valid_despite_hit": sum(
                w["udp_valid_despite_hit"] for w in windows
            ),
            "frames_decoded": sum(w["frames"] for w in windows),
            "hit_frames": sum(w["hit_frames"] for w in windows),
            "sdram_dropped_capacity": sdram.get(
                "records_dropped_capacity", 0
            ),
            "sdram_dropped_bandwidth": sdram.get(
                "records_dropped_bandwidth", 0
            ),
            "stage_drops": incident.stage_counts.get(Stage.DROP, 0),
            "stage_udp_checksum_drops": incident.stage_counts.get(
                Stage.UDP_CHECKSUM_DROP, 0
            ),
            "stage_host_sends": incident.stage_counts.get(
                Stage.HOST_SEND, 0
            ),
            "stage_delivers": incident.stage_counts.get(Stage.DELIVER, 0),
            "events": len(events) or sum(
                incident.stage_counts.values()
            ),
        }
        incident.features = {
            key: float(value) for key, value in aggregate.items()
        }
        incident.features["fault_class_active"] = float(
            incident.fault_class == "active"
        )
        incident.features["fault_class_passive"] = float(
            incident.fault_class == "passive"
        )

        plan = None
        if spec_entry is not None and spec_entry.plan is not None:
            plan = {"kind": spec_entry.plan.kind,
                    "direction": spec_entry.plan.direction}
        direction = (plan or {}).get("direction")
        if direction is None:
            observed = sorted({
                w["direction"] for w in windows if w["direction"]
            })
            direction = "".join(observed)
        fault_seen = bool(
            aggregate["injections"] or aggregate["marks_matched"]
        )
        if oracle is not None and direction and fault_seen:
            incident.blast_radius = _blast_radius(
                direction, instrumented_host, oracle, switch
            )
        else:
            incident.blast_radius = BlastRadius(
                note="no fault observed; blast radius not applicable"
                if not fault_seen else
                "fault direction unknown; blast radius unavailable"
            )

        incident.hypotheses = build_hypotheses(
            aggregate, fault_label=incident.name, plan=plan
        )
        report.incidents.append(incident)

    # Experiment spans nothing claimed: telemetry saw a run the capture
    # plane has no record of.
    for (shard, span_id), row in sorted(
        experiments.items(),
        key=lambda item: (item[0][0] is not None, item[0][0] or 0,
                          item[0][1]),
    ):
        if (shard, span_id) in matched_span_keys:
            continue
        name = row.get("attrs", {}).get("name", "?")
        degradations.append(
            f"experiment span {span_id}"
            + (f" (shard {shard})" if shard is not None else "")
            + f" [{name}]: no matching capture experiment"
        )

    report.degradations = degradations
    report.counts = {
        "incidents": len(report.incidents),
        "windows": 0 if analysis is None else analysis.total_windows,
        "events": 0 if analysis is None else analysis.total_events,
        "spans": len(artifacts.spans_rows),
        "degradations": len(degradations),
    }

    if degradations and STATE.registry is not None:
        STATE.registry.counter("insight.degraded").inc(len(degradations))
    return report

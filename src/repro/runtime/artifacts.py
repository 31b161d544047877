"""Per-experiment artifact layout and the deterministic shard merge.

A sharded campaign run with ``--artifacts-dir out/`` produces::

    out/
      spec.json                           # spec codec document (insight)
      results.sqlite                      # result store (resume)
      fabric/                             # pooled lease queue
      experiments/
        exp-000-STOP-IDLE/
          telemetry/metrics.json|spans.jsonl|trace.json
          capture/capture.rcap
        exp-001-…/…
      telemetry/                          # merged views (this module)
        metrics.json  spans.jsonl  trace.json
      capture/
        capture.rcap

Each worker runs its experiment under private telemetry/capture
sessions writing into that experiment's shard directory; after the
order-merge of results the parent folds the shards into campaign-level
artifacts.  The merge is deterministic — shards are visited in
experiment-index order, never completion order — with these rules:

* ``metrics.json`` — counters and histogram buckets are **summed**
  across shards; gauges take the **maximum** (peak semantics), with
  high/low watermarks and sample counts folded accordingly.
* ``spans.jsonl`` — concatenated in experiment order; every record
  gains a ``"shard": <experiment index>`` provenance field (span ids
  restart per shard, so shard+span_id is the unique key).
* ``trace.json`` — regenerated from the concatenated span records so
  the whole campaign loads as one Perfetto timeline.
* ``capture.rcap`` — spliced: records copied as bytes, experiment
  index patched to the campaign-global one.  Only the header and the
  experiment markers are re-encoded, each marker gaining a ``"shard"``
  field naming its source directory; unknown record types are dropped.
  The splice holds one shard in memory at a time, and every shard is
  validated before the first byte of the merged file is written.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path
from typing import Any, Dict, List, Sequence, Set, Tuple, Union

from repro.capture import format as _rcap
from repro.capture.session import CAPTURE_FILE_NAME
from repro.telemetry.exporters import (
    parse_spans_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "EXPERIMENTS_SUBDIR",
    "TELEMETRY_SUBDIR",
    "CAPTURE_SUBDIR",
    "slugify",
    "shard_dir",
    "merge_artifacts",
]

#: Directory (under the artifacts root) holding one shard per experiment.
EXPERIMENTS_SUBDIR = "experiments"
#: Telemetry subdirectory name, used both per shard and for the merge.
TELEMETRY_SUBDIR = "telemetry"
#: Capture subdirectory name, used both per shard and for the merge.
CAPTURE_SUBDIR = "capture"

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")
#: The ``u32`` experiment index the capture splice patches.
_INDEX = struct.Struct("<I")


def slugify(name: str, max_length: int = 48) -> str:
    """A filesystem-safe slug of an experiment name."""
    slug = _SLUG_RE.sub("-", name).strip("-") or "experiment"
    return slug[:max_length]


def shard_dir(root: Union[str, Path], index: int, name: str) -> Path:
    """The shard directory of experiment ``index`` under ``root``."""
    return (
        Path(root) / EXPERIMENTS_SUBDIR / f"exp-{index:03d}-{slugify(name)}"
    )


# ---------------------------------------------------------------------------
# metrics merge
# ---------------------------------------------------------------------------


def _merge_metrics_docs(documents: Sequence[Dict[str, Any]],
                        label: str) -> Dict[str, Any]:
    """Fold shard ``metrics.json`` documents into one (see module doc)."""
    registry = MetricsRegistry()
    wall_s = 0.0
    for document in documents:
        wall_s += float(document.get("wall_s") or 0.0)
        for entry in document.get("metrics", {}).get("series", []):
            name = entry["name"]
            labels = entry.get("labels", {})
            kind = entry.get("kind")
            if kind == "counter":
                registry.counter(name, **labels).inc(entry["value"])
            elif kind == "gauge":
                gauge = registry.gauge(name, **labels)
                gauge.value = max(gauge.value, entry["value"]) \
                    if gauge.samples else entry["value"]
                for bound in ("high",):
                    new = entry.get(bound)
                    if new is not None:
                        old = gauge.high
                        gauge.high = new if old is None else max(old, new)
                low = entry.get("low")
                if low is not None:
                    gauge.low = low if gauge.low is None \
                        else min(gauge.low, low)
                gauge.samples += entry.get("samples", 0)
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, buckets=entry["buckets"], **labels
                )
                if len(histogram.counts) == len(entry["counts"]):
                    histogram.counts = [
                        a + b
                        for a, b in zip(histogram.counts, entry["counts"])
                    ]
                histogram.total += entry["sum"]
                histogram.count += entry["count"]
    registry.gauge("campaign.shards_merged").set(len(documents))
    return {
        "generated_by": "repro.runtime",
        "version": 1,
        "label": label,
        "wall_s": wall_s,
        "shards": len(documents),
        "metrics": registry.to_dict(),
    }


# ---------------------------------------------------------------------------
# whole-campaign merge
# ---------------------------------------------------------------------------


def merge_artifacts(
    root: Union[str, Path],
    entries: Sequence[Tuple[int, str]],
    label: str = "campaign",
) -> Dict[str, Any]:
    """Fold every shard under ``root`` into campaign-level artifacts.

    ``entries`` is the ``(index, name)`` list of the campaign's
    experiments; shards are visited in index order whatever the list
    order.  Shards that never produced an artifact (e.g. an experiment
    restored from the result store on a later run) are skipped, and the
    skip is reported in the returned summary.
    """
    root = Path(root)
    summary: Dict[str, Any] = {
        "telemetry_shards": 0, "capture_shards": 0, "missing_shards": []
    }
    metrics_docs: List[Dict[str, Any]] = []
    span_records: List[Any] = []
    capture_sources: List[Tuple[int, str, Path]] = []
    for index, name in sorted(entries):
        shard = shard_dir(root, index, name)
        telemetry = shard / TELEMETRY_SUBDIR
        metrics_path = telemetry / "metrics.json"
        if metrics_path.exists():
            summary["telemetry_shards"] += 1
            metrics_docs.append(json.loads(metrics_path.read_text()))
            spans_path = telemetry / "spans.jsonl"
            if spans_path.exists():
                for record in parse_spans_jsonl(spans_path.read_text()):
                    record.shard = index
                    span_records.append(record)
        else:
            summary["missing_shards"].append(index)
        capture_path = shard / CAPTURE_SUBDIR / CAPTURE_FILE_NAME
        if capture_path.exists():
            summary["capture_shards"] += 1
            capture_sources.append((index, name, capture_path))

    if metrics_docs:
        out = root / TELEMETRY_SUBDIR
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(
            json.dumps(_merge_metrics_docs(metrics_docs, label),
                       indent=2, sort_keys=True) + "\n"
        )
        (out / "spans.jsonl").write_text(spans_to_jsonl(span_records))
        (out / "trace.json").write_text(
            json.dumps(to_chrome_trace(span_records, label=label)) + "\n"
        )
        summary["telemetry_dir"] = str(out)

    if capture_sources:
        out = root / CAPTURE_SUBDIR
        out.mkdir(parents=True, exist_ok=True)
        path = _merge_captures(out / CAPTURE_FILE_NAME, capture_sources,
                               label)
        summary["capture_path"] = str(path)

    return summary


def _read_shard(path: Path) -> bytearray:
    """A shard file's bytes in one patchable buffer (no second copy)."""
    with open(path, "rb") as stream:
        buffer = bytearray(os.fstat(stream.fileno()).st_size)
        del buffer[stream.readinto(buffer):]
    return buffer


def _survey_shard(path: Path) -> Tuple[Dict[str, Any], Dict[int, int],
                                        Set[int]]:
    """Validate a shard; return its header meta, its window and event
    counts, and the local experiment indices of its markers."""
    buffer = _read_shard(path)
    meta, records = _rcap.scan_capture(buffer)
    counts = {_rcap.RECORD_CAPTURE: 0, _rcap.RECORD_EVENT: 0}
    local_indices: Set[int] = set()
    for record_type, start, end in records:
        if record_type in counts:
            counts[record_type] += 1
        elif record_type == _rcap.RECORD_EXPERIMENT:
            local_indices.add(json.loads(buffer[start:end]).get("index", 0))
    return meta, counts, local_indices


def _merge_captures(
    target: Path,
    sources: Sequence[Tuple[int, str, Path]],
    label: str,
) -> Path:
    """Splice shard ``.rcap`` files into one campaign capture file.

    Two passes, one shard in memory at a time.  Pass 1 scans every
    shard, keeping only its header counters, its window and event
    counts and the remap of its local experiment indices; a malformed
    shard raises before the target is opened, so it leaves no merged
    file.  Pass 2 reads each shard into a ``bytearray``, re-encodes its
    experiment markers (remapped index plus ``"shard"``), patches every
    window's and event's ``u32`` experiment index in place, and writes
    the windows, then the events, as runs of contiguous frames.  Unknown
    record types are dropped.
    """
    shards_meta: List[Dict[str, Any]] = []
    remaps: List[Dict[int, int]] = []
    events_dropped = corr_ids_assigned = 0
    for global_index, name, path in sources:
        meta, counts, local_indices = _survey_shard(path)
        # Per-shard experiment indices restart at 0; remap them to the
        # campaign-global index (one experiment per shard, but the loop
        # tolerates shards carrying several).
        remaps.append({
            local: global_index + offset
            for offset, local in enumerate(sorted(local_indices) or [0])
        })
        events_dropped += meta.get("events_dropped", 0)
        corr_ids_assigned += meta.get("corr_ids_assigned", 0)
        shards_meta.append({
            "index": global_index,
            "name": name,
            "source": str(path.parent.parent.name),
            "events": counts[_rcap.RECORD_EVENT],
            "captures": counts[_rcap.RECORD_CAPTURE],
        })
    meta = {
        "label": label,
        "sim_epoch_ps": 0,
        "merged_by": "repro.runtime",
        "shards": shards_meta,
        "experiments": len(sources),
        "events_retained": sum(entry["events"] for entry in shards_meta),
        "events_dropped": events_dropped,
        "corr_ids_assigned": corr_ids_assigned,
    }
    with _rcap.CaptureWriter(target, meta=meta) as writer:
        for (global_index, name, path), remap in zip(sources, remaps):
            _splice_shard(writer, _read_shard(path), global_index,
                          shard_dir(".", global_index, name).name, remap)
    return target


def _splice_shard(
    writer: _rcap.CaptureWriter,
    buffer: bytearray,
    global_index: int,
    shard: str,
    remap: Dict[int, int],
) -> None:
    """Write one shard's markers, then windows, then events."""
    head = _rcap.RECORD_HEAD_SIZE
    offsets = {_rcap.RECORD_CAPTURE: _rcap.CAPTURE_INDEX_OFFSET,
               _rcap.RECORD_EVENT: _rcap.EVENT_INDEX_OFFSET}
    # Per type, [first frame, end, records] of each run of adjacent
    # frames: a CaptureSession shard has one run of each.
    runs: Dict[int, List[List[int]]] = {_rcap.RECORD_CAPTURE: [],
                                        _rcap.RECORD_EVENT: []}
    _, records = _rcap.scan_capture(buffer)
    for record_type, start, end in records:
        if record_type == _rcap.RECORD_EXPERIMENT:
            marker = json.loads(buffer[start:end])
            marker["index"] = remap.get(marker.get("index", 0),
                                        global_index)
            marker["shard"] = shard
            writer.write_experiment(marker)
            continue
        offset = offsets.get(record_type)
        if offset is None:
            continue
        at = start + offset
        (local,) = _INDEX.unpack_from(buffer, at)
        _INDEX.pack_into(buffer, at, remap.get(local, global_index))
        spans = runs[record_type]
        if spans and spans[-1][1] == start - head:
            spans[-1][1] = end
            spans[-1][2] += 1
        else:
            spans.append([start - head, end, 1])
    with memoryview(buffer) as view:
        for record_type in (_rcap.RECORD_CAPTURE, _rcap.RECORD_EVENT):
            for first, end, count in runs[record_type]:
                writer.write_framed(view[first:end], count)


def telemetry_dir(shard: Union[str, Path]) -> Path:
    """A shard's telemetry output directory."""
    return Path(shard) / TELEMETRY_SUBDIR


def capture_dir(shard: Union[str, Path]) -> Path:
    """A shard's capture output directory."""
    return Path(shard) / CAPTURE_SUBDIR


def merged_metrics_path(root: Union[str, Path]) -> Path:
    """Where the merged ``metrics.json`` lands under an artifacts root."""
    return Path(root) / TELEMETRY_SUBDIR / "metrics.json"


def merged_capture_path(root: Union[str, Path]) -> Path:
    """Where the merged ``capture.rcap`` lands under an artifacts root."""
    return Path(root) / CAPTURE_SUBDIR / CAPTURE_FILE_NAME

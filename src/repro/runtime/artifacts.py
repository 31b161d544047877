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

Each worker runs its experiment under a private observation session
writing into that experiment's shard directory; the parent folds each
shard into the campaign-level artifacts (:class:`ArtifactMerge`) as
soon as the ordered prefix of results reaches it, and writes the merged
files when the campaign ends.  The merge is deterministic — shards are
visited in experiment-index order, never completion order — with these
rules:

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
  The splice holds one shard in memory at a time and spools each
  validated shard to a temporary body; at the end the header (whose
  totals are known only then) is written, the body appended, and the
  file renamed into place, so a failed merge leaves no ``capture.rcap``.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.capture import format as _rcap
from repro.capture.format import CAPTURE_FILE_NAME
from repro.errors import ConfigurationError
from repro.telemetry.exporters import (
    parse_spans_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import (
    CAPTURE_SUBDIR,
    METRICS_FILE_NAME,
    TELEMETRY_SUBDIR,
)

__all__ = [
    "EXPERIMENTS_SUBDIR",
    "TELEMETRY_SUBDIR",
    "CAPTURE_SUBDIR",
    "slugify",
    "shard_dir",
    "ArtifactMerge",
    "merge_artifacts",
]

#: Directory (under the artifacts root) holding one shard per experiment.
EXPERIMENTS_SUBDIR = "experiments"

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
# the streaming merge
# ---------------------------------------------------------------------------


class ArtifactMerge:
    """Fold shards into the campaign-level artifacts as they arrive.

    The executors call :meth:`add` for each experiment when the ordered
    prefix of results reaches it, so the merge runs alongside the
    campaign instead of after it; :meth:`finish` then writes the merged
    files.  Shards must arrive in increasing index order.  Shards that
    never produced an artifact (e.g. an experiment restored from the
    result store on a later run) are skipped, and the skip is reported
    in the summary.

    A shard that fails to fold (a malformed capture, histogram bounds
    that differ from earlier shards') raises
    :class:`~repro.errors.ConfigurationError` and aborts the merge: no
    merged ``capture.rcap`` and no temporary file is left behind.
    """

    def __init__(self, root: Union[str, Path], label: str = "campaign"
                 ) -> None:
        self.root = Path(root)
        self.label = label
        self.summary: Dict[str, Any] = {
            "telemetry_shards": 0, "capture_shards": 0, "missing_shards": []
        }
        self._registry = MetricsRegistry()
        self._wall_s = 0.0
        self._spans: List[Any] = []
        self._capture: Optional[_CaptureSplice] = None
        self._last = -1
        self._closed = False

    def add(self, index: int, name: str) -> None:
        """Fold experiment ``index``'s shard (if it left one)."""
        if self._closed:
            raise ValueError("the merge is already finished or aborted")
        if index <= self._last:
            raise ValueError(f"shard {index} arrived after shard {self._last}")
        self._last = index
        try:
            self._add(index, name)
        except BaseException:
            self.abort()
            raise

    def _add(self, index: int, name: str) -> None:
        shard = shard_dir(self.root, index, name)
        metrics_path = shard / TELEMETRY_SUBDIR / METRICS_FILE_NAME
        if metrics_path.exists():
            self.summary["telemetry_shards"] += 1
            self._fold_metrics(json.loads(metrics_path.read_text()),
                               shard.name)
            spans_path = metrics_path.with_name("spans.jsonl")
            if spans_path.exists():
                for record in parse_spans_jsonl(spans_path.read_text()):
                    record.shard = index
                    self._spans.append(record)
        else:
            self.summary["missing_shards"].append(index)
        capture_path = shard / CAPTURE_SUBDIR / CAPTURE_FILE_NAME
        if capture_path.exists():
            self.summary["capture_shards"] += 1
            if self._capture is None:
                self._capture = _CaptureSplice(
                    merged_capture_path(self.root))
            self._capture.add(index, name, capture_path)

    def _fold_metrics(self, document: Dict[str, Any], shard: str) -> None:
        """Counters and histogram buckets sum; gauges keep the peak."""
        registry = self._registry
        self._wall_s += float(document.get("wall_s") or 0.0)
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
                high = entry.get("high")
                if high is not None:
                    gauge.high = high if gauge.high is None \
                        else max(gauge.high, high)
                low = entry.get("low")
                if low is not None:
                    gauge.low = low if gauge.low is None \
                        else min(gauge.low, low)
                gauge.samples += entry.get("samples", 0)
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, buckets=entry["buckets"], **labels
                )
                bounds = tuple(sorted(float(b) for b in entry["buckets"]))
                if bounds != histogram.buckets \
                        or len(entry["counts"]) != len(histogram.counts):
                    raise ConfigurationError(
                        f"shard {shard}: histogram {name} {labels} has "
                        f"bounds {list(bounds)} and "
                        f"{len(entry['counts'])} counts; earlier shards "
                        f"have bounds {list(histogram.buckets)}"
                    )
                histogram.counts = [
                    a + b for a, b in zip(histogram.counts, entry["counts"])
                ]
                histogram.total += entry["sum"]
                histogram.count += entry["count"]

    def finish(self) -> Dict[str, Any]:
        """Write the merged artifacts; return the summary."""
        if self._closed:
            raise ValueError("the merge is already finished or aborted")
        self._closed = True
        try:
            self._write()
        except BaseException:
            if self._capture is not None:
                self._capture.discard()
            raise
        return self.summary

    def _write(self) -> None:
        shards = self.summary["telemetry_shards"]
        if shards:
            self._registry.gauge("campaign.shards_merged").set(shards)
            out = self.root / TELEMETRY_SUBDIR
            out.mkdir(parents=True, exist_ok=True)
            document = {
                "generated_by": "repro.runtime",
                "version": 1,
                "label": self.label,
                "wall_s": self._wall_s,
                "shards": shards,
                "metrics": self._registry.to_dict(),
            }
            (out / METRICS_FILE_NAME).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
            (out / "spans.jsonl").write_text(spans_to_jsonl(self._spans))
            (out / "trace.json").write_text(
                json.dumps(to_chrome_trace(self._spans, label=self.label))
                + "\n"
            )
            self.summary["telemetry_dir"] = str(out)
        if self._capture is not None:
            path = self._capture.finish(self.label)
            self.summary["capture_path"] = str(path)

    def abort(self) -> None:
        """Drop an unfinished merge's temporary files; else do nothing."""
        if self._closed:
            return
        self._closed = True
        if self._capture is not None:
            self._capture.discard()


def merge_artifacts(
    root: Union[str, Path],
    entries: Sequence[Tuple[int, str]],
    label: str = "campaign",
) -> Dict[str, Any]:
    """Fold every shard under ``root`` into campaign-level artifacts.

    ``entries`` is the ``(index, name)`` list of the campaign's
    experiments; shards are visited in index order whatever the list
    order (see :class:`ArtifactMerge`).
    """
    merge = ArtifactMerge(root, label)
    for index, name in sorted(entries):
        merge.add(index, name)
    return merge.finish()


def _read_shard(path: Path) -> bytearray:
    """A shard file's bytes in one patchable buffer (no second copy)."""
    with open(path, "rb") as stream:
        buffer = bytearray(os.fstat(stream.fileno()).st_size)
        del buffer[stream.readinto(buffer):]
    return buffer


class _CaptureSplice:
    """The merged ``capture.rcap`` under construction.

    Each shard is read once into a ``bytearray`` and scanned once; the
    scan's offsets then serve the remap, the index patches and the runs
    of frames, which are spooled to a temporary body file.  Only the
    header (whose totals are known at the end) and the experiment
    markers are re-encoded.  :meth:`finish` writes the header, appends
    the body and renames the result into place.
    """

    def __init__(self, target: Path) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        self.target = target
        self._partial = target.with_name(target.name + ".tmp")
        self._body_path = target.with_name(target.name + ".body.tmp")
        self._body = _rcap.CaptureWriter(self._body_path, header=False)
        self._shards: List[Dict[str, Any]] = []
        self._events_dropped = 0
        self._corr_ids_assigned = 0

    def add(self, global_index: int, name: str, path: Path) -> None:
        """Spool one shard: its markers, then windows, then events.

        One scan validates the whole shard and notes its markers, the
        offsets to patch and the runs of frames before any of its bytes
        reach the spool.  Unknown record types are dropped.
        """
        buffer = _read_shard(path)
        meta, records = _rcap.scan_capture(buffer)
        head = _rcap.RECORD_HEAD_SIZE
        event, window = _rcap.RECORD_EVENT, _rcap.RECORD_CAPTURE
        markers: List[Dict[str, Any]] = []
        # Where each window's and event's u32 experiment index sits, as
        # packed u64s (a list would hold an int object per record).  A
        # local import: only a merging process pays for the module.
        from array import array

        patches = array("Q")
        note = patches.append
        # Per type, (first frame, end, records) of each run of adjacent
        # frames: an ObservationSession shard has one run of each.
        runs: Dict[int, List[Tuple[int, int, int]]] = {
            _rcap.RECORD_CAPTURE: [], _rcap.RECORD_EVENT: []}
        run_type: Optional[int] = None
        first = last = count = 0
        for record_type, start, end in records:
            if record_type == event:
                note(start + _rcap.EVENT_INDEX_OFFSET)
            elif record_type == window:
                note(start + _rcap.CAPTURE_INDEX_OFFSET)
            else:
                if record_type == _rcap.RECORD_EXPERIMENT:
                    markers.append(json.loads(buffer[start:end]))
                continue
            if record_type == run_type and start - head == last:
                last = end
                count += 1
                continue
            if run_type is not None:
                runs[run_type].append((first, last, count))
            run_type, first, last, count = record_type, start - head, end, 1
        if run_type is not None:
            runs[run_type].append((first, last, count))
        # Per-shard experiment indices restart at 0; remap them to the
        # campaign-global index (one experiment per shard, but the remap
        # tolerates shards carrying several).
        local_indices = sorted({marker.get("index", 0) for marker in markers})
        remap = {local: global_index + offset
                 for offset, local in enumerate(local_indices or [0])}
        pack = _INDEX.pack_into
        if len(remap) == 1:
            # Every record, mapped or not, lands on global_index.
            for at in patches:
                pack(buffer, at, global_index)
        else:
            unpack = _INDEX.unpack_from
            for at in patches:
                pack(buffer, at,
                     remap.get(unpack(buffer, at)[0], global_index))
        shard = path.parent.parent.name
        for marker in markers:
            marker["index"] = remap.get(marker.get("index", 0),
                                        global_index)
            marker["shard"] = shard
            self._body.write_experiment(marker)
        with memoryview(buffer) as view:
            for record_type in (_rcap.RECORD_CAPTURE, _rcap.RECORD_EVENT):
                for first, end, count in runs[record_type]:
                    self._body.write_framed(view[first:end], count)
        self._events_dropped += meta.get("events_dropped", 0)
        self._corr_ids_assigned += meta.get("corr_ids_assigned", 0)
        self._shards.append({
            "index": global_index,
            "name": name,
            "source": shard,
            "events": sum(run[2] for run in runs[_rcap.RECORD_EVENT]),
            "captures": sum(run[2] for run in runs[_rcap.RECORD_CAPTURE]),
        })

    def finish(self, label: str) -> Path:
        """Header, then the spooled body, renamed into place."""
        meta = {
            "label": label,
            "sim_epoch_ps": 0,
            "merged_by": "repro.runtime",
            "shards": self._shards,
            "experiments": len(self._shards),
            "events_retained": sum(entry["events"]
                                   for entry in self._shards),
            "events_dropped": self._events_dropped,
            "corr_ids_assigned": self._corr_ids_assigned,
        }
        self._body.close()
        with open(self._body_path, "rb") as body, \
                _rcap.CaptureWriter(self._partial, meta=meta) as writer:
            writer.write_framed(body, self._body.records_written)
        os.replace(self._partial, self.target)
        os.unlink(self._body_path)
        return self.target

    def discard(self) -> None:
        """Remove the temporary files (the merged file is never touched)."""
        self._body.close()
        for path in (self._partial, self._body_path):
            if path.exists():
                path.unlink()


def merged_metrics_path(root: Union[str, Path]) -> Path:
    """Where the merged ``metrics.json`` lands under an artifacts root."""
    return Path(root) / TELEMETRY_SUBDIR / METRICS_FILE_NAME


def merged_capture_path(root: Union[str, Path]) -> Path:
    """Where the merged ``capture.rcap`` lands under an artifacts root."""
    return Path(root) / CAPTURE_SUBDIR / CAPTURE_FILE_NAME

"""The campaign capture merge splices shard records as bytes.

``merge_artifacts`` copies window and event bodies verbatim and patches
only their ``u32`` experiment index.  The oracle here is the merge it
replaced: decode every shard with ``read_capture``, remap the indices,
and re-encode everything.  Both must write the same bytes.
"""

import dataclasses
import io
import itertools
import json
import struct
import tracemalloc

import pytest

from repro.capture.format import (
    CAPTURE_FILE_NAME,
    MAGIC,
    RECORD_CAPTURE,
    VERSION,
    CaptureWriter,
    pack_symbol,
    read_capture,
)
from repro.capture.provenance import LifecycleEvent
from repro.core.monitor import CaptureRecord
from repro.errors import ConfigurationError
from repro.hw.injector import InjectionEvent
from repro.myrinet.symbols import GAP, GO, STOP, data_symbols
from repro.nftape.campaign import Campaign
from repro.runtime import SerialExecutor
from repro.runtime.artifacts import (
    CAPTURE_SUBDIR,
    METRICS_FILE_NAME,
    TELEMETRY_SUBDIR,
    ArtifactMerge,
    merge_artifacts,
    merged_capture_path,
    merged_metrics_path,
    shard_dir,
)
from repro.scenario.compile import compile_scenario
from repro.scenario.library import load_scenario
from repro.telemetry.metrics import MetricsRegistry

LABEL = "splice"


def _window(time_ps, segment, payload=b"pre"):
    return CaptureRecord(
        time_ps=time_ps, direction="R",
        event=InjectionEvent(
            segment_index=segment, window_before=0x11223344, ctl_before=0xF,
            window_after=0x11FF3344, ctl_after=0xD, lanes_rewritten=2,
            lanes_unreachable=1, forced=segment % 2 == 0,
        ),
        before=[GAP] + data_symbols(payload),
        after=data_symbols(b"post") + [STOP, GO],
    )


def _event(time_ps, experiment_index=0, corr_id=None):
    return LifecycleEvent(
        time_ps=time_ps, stage="host_send", node="pc", direction="tx",
        corr_id=corr_id, seq=time_ps % 7, experiment_index=experiment_index,
        attrs={"wire_length": 96, "packet_type": 4},
    )


def _encode_window(window):
    """Test-side type-1 encoder: the inverse of ``read_capture``."""
    symbols = window.before + window.after
    return struct.pack(
        "<IQBBBBQIIBBHH",
        window.experiment_index,
        window.time_ps,
        ord(window.direction[0]) if window.direction else 0,
        1 if window.forced else 0,
        window.lanes_rewritten,
        window.lanes_unreachable,
        window.segment_index,
        window.window_before,
        window.window_after,
        window.ctl_before,
        window.ctl_after,
        len(window.before),
        len(window.after),
    ) + struct.pack(f"<{len(symbols)}H", *map(pack_symbol, symbols))


def reference_merge(target, sources, label):
    """Decode every shard, remap its indices, re-encode it all."""
    datasets = [(index, name, read_capture(path))
                for index, name, path in sources]
    meta = {
        "label": label,
        "sim_epoch_ps": 0,
        "merged_by": "repro.runtime",
        "shards": [{
            "index": index,
            "name": name,
            "source": path.parent.parent.name,
            "events": len(data.events),
            "captures": len(data.captures),
        } for (index, name, data), (_, _, path) in zip(datasets, sources)],
        "experiments": len(datasets),
        "events_retained": sum(len(d.events) for _, _, d in datasets),
        "events_dropped": sum(
            d.meta.get("events_dropped", 0) for _, _, d in datasets),
        "corr_ids_assigned": sum(
            d.meta.get("corr_ids_assigned", 0) for _, _, d in datasets),
    }
    with CaptureWriter(target, meta=meta) as writer:
        for index, name, data in datasets:
            local = sorted({m.get("index", 0) for m in data.experiments}) \
                or [0]
            remap = {old: index + offset for offset, old in enumerate(local)}
            for marker in data.experiments:
                marker = dict(marker)
                marker["index"] = remap.get(marker.get("index", 0), index)
                marker["shard"] = shard_dir(".", index, name).name
                writer.write_experiment(marker)
            for window in data.captures:
                writer.write_record(RECORD_CAPTURE, _encode_window(
                    dataclasses.replace(window, experiment_index=remap.get(
                        window.experiment_index, index))))
            for event in data.events:
                writer.write_event(dataclasses.replace(
                    event, experiment_index=remap.get(
                        event.experiment_index, index)))
    return target


def _shard_path(root, index, name):
    path = shard_dir(root, index, name) / CAPTURE_SUBDIR / CAPTURE_FILE_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _build_shards(root):
    """Four hand-built shards; returns the ``(index, name)`` entries."""
    # Interleaved record types plus one unknown type.
    with CaptureWriter(_shard_path(root, 0, "STOP-IDLE"),
                       meta={"events_dropped": 3,
                             "corr_ids_assigned": 5}) as writer:
        writer.write_event(_event(10, corr_id=1))
        writer.write_capture(0, _window(11, 4))
        writer.write_experiment({"index": 0, "name": "STOP-IDLE", "seed": 1})
        writer.write_record(250, b"future record type")
        writer.write_event(_event(12))
        writer.write_capture(0, _window(13, 5, payload=b""))
    # Two experiments in one shard: local indices 3 and 7 remap to the
    # shard's global index and the one after it.
    with CaptureWriter(_shard_path(root, 1, "GAP/GO"),
                       meta={"events_dropped": 1}) as writer:
        writer.write_experiment({"index": 7, "name": "b", "seed": 2})
        writer.write_capture(7, _window(20, 6))
        writer.write_event(_event(21, experiment_index=3, corr_id=9))
        writer.write_experiment({"index": 3, "name": "a", "seed": 3})
        writer.write_capture(3, _window(22, 7))
        writer.write_event(_event(23, experiment_index=7))
        writer.write_event(_event(24, experiment_index=42))  # unmapped
    # Header only.
    CaptureWriter(_shard_path(root, 3, "empty"), meta={}).close()
    # A shard without a marker still lands on its global index.
    with CaptureWriter(_shard_path(root, 4, "bare"), meta={}) as writer:
        writer.write_capture(0, _window(40, 8))
        writer.write_event(_event(41))
    return [(4, "bare"), (0, "STOP-IDLE"), (3, "empty"), (1, "GAP/GO")]


def test_splice_matches_the_decode_and_reencode_reference(tmp_path):
    entries = _build_shards(tmp_path)
    summary = merge_artifacts(tmp_path, entries, label=LABEL)
    assert summary["capture_shards"] == 4

    sources = [(index, name,
                shard_dir(tmp_path, index, name) / CAPTURE_SUBDIR
                / CAPTURE_FILE_NAME)
               for index, name in sorted(entries)]
    expected = reference_merge(tmp_path / "reference.rcap", sources, LABEL)
    spliced = merged_capture_path(tmp_path)
    assert spliced.read_bytes() == expected.read_bytes()

    merged = read_capture(spliced)
    assert merged.unknown_records_skipped == 0
    assert [m["index"] for m in merged.experiments] == [0, 2, 1]
    assert [w.experiment_index for w in merged.captures] == [0, 0, 2, 1, 4]
    assert [e.experiment_index for e in merged.events] == [0, 0, 1, 2, 1, 4]
    assert merged.meta["events_dropped"] == 4
    assert merged.meta["corr_ids_assigned"] == 5


def _header(version=VERSION, meta=b"{}"):
    return MAGIC + struct.pack("<HI", version, len(meta)) + meta


MALFORMED = [
    pytest.param(b"NOTACAPTURE" + bytes(16), id="bad-magic"),
    pytest.param(_header(version=VERSION + 1), id="newer-version"),
    pytest.param(_header()[:-1], id="truncated-header"),
    pytest.param(_header() + struct.pack("<BI", 2, 40) + bytes(10),
                 id="truncated-record"),
    pytest.param(_header() + struct.pack("<B", 2), id="partial-record-head"),
    pytest.param(_header() + struct.pack("<BI", 2, 5) + bytes(5),
                 id="short-event-body"),
    pytest.param(_header() + struct.pack("<BI", 1, 8) + bytes(8),
                 id="short-window-body"),
]


@pytest.mark.parametrize("blob", MALFORMED)
def test_a_malformed_shard_fails_the_merge(tmp_path, blob):
    _shard_path(tmp_path, 0, "bad").write_bytes(blob)
    with pytest.raises(ConfigurationError):
        merge_artifacts(tmp_path, [(0, "bad")], label=LABEL)
    assert not merged_capture_path(tmp_path).exists()
    with pytest.raises(ConfigurationError):
        read_capture(blob)


@pytest.mark.parametrize("blob", MALFORMED)
def test_good_shards_before_a_bad_one_leave_no_merged_file(tmp_path, blob):
    """Every shard is validated before the merged file is opened, so a
    merge that streams good shards out first cannot pass."""
    for index in (0, 1):
        with CaptureWriter(_shard_path(tmp_path, index, "good"),
                           meta={}) as writer:
            writer.write_experiment({"index": 0, "name": "good"})
            writer.write_capture(0, _window(10 + index, index))
            writer.write_event(_event(20 + index))
    _shard_path(tmp_path, 2, "bad").write_bytes(blob)
    with pytest.raises(ConfigurationError):
        merge_artifacts(tmp_path, [(0, "good"), (1, "good"), (2, "bad")],
                        label=LABEL)
    assert not merged_capture_path(tmp_path).exists()


def _synthetic_shard(target_bytes=150_000):
    """One marker, then 247-symbol windows and events: ``target_bytes``."""
    buffer = io.BytesIO()
    with CaptureWriter(buffer, meta={"events_dropped": 1}) as writer:
        writer.write_experiment({"index": 0, "name": "synthetic"})
        time_ps = 0
        while buffer.tell() < target_bytes:
            time_ps += 1
            if time_ps % 4 == 0:
                writer.write_capture(0, _window(time_ps, time_ps,
                                                payload=bytes(240)))
            else:
                writer.write_event(_event(time_ps, corr_id=time_ps))
    return buffer.getvalue()


def _traced_merge_peak(root, shards, blob):
    entries = [(index, f"s{index}") for index in range(shards)]
    for index, name in entries:
        _shard_path(root, index, name).write_bytes(blob)
    tracemalloc.start()
    try:
        merge_artifacts(root, entries, label=LABEL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    merged = read_capture(merged_capture_path(root))
    assert [m["index"] for m in merged.experiments] == list(range(shards))
    return peak


def test_merge_memory_is_bounded_by_one_shard_not_the_campaign(tmp_path):
    """The splice holds one shard at a time: quadrupling the shard count
    leaves the traced peak flat, and the peak stays near one shard."""
    blob = _synthetic_shard()
    small = _traced_merge_peak(tmp_path / "eight", 8, blob)
    large = _traced_merge_peak(tmp_path / "thirty-two", 32, blob)
    assert large <= 1.25 * small, (small, large)
    assert max(small, large) < 3 * len(blob), (small, large, len(blob))


# ---------------------------------------------------------------------------
# the streaming merge: failure cleanup, resume, histogram bounds
# ---------------------------------------------------------------------------


def _leftovers(root):
    """Every file the capture merge left under ``root/capture``."""
    out = merged_capture_path(root).parent
    return sorted(path.name for path in out.glob("*")) if out.exists() else []


@pytest.mark.parametrize("blob", MALFORMED)
def test_a_malformed_last_shard_leaves_no_merged_or_temporary_file(
        tmp_path, blob):
    """Two good shards are spooled before the bad one arrives; the
    failed merge removes the spool, and no merged file ever appears."""
    for index in (0, 1):
        with CaptureWriter(_shard_path(tmp_path, index, "good"),
                           meta={}) as writer:
            writer.write_experiment({"index": 0, "name": "good"})
            writer.write_event(_event(20 + index))
    _shard_path(tmp_path, 2, "bad").write_bytes(blob)
    merge = ArtifactMerge(tmp_path, label=LABEL)
    merge.add(0, "good")
    merge.add(1, "good")
    assert _leftovers(tmp_path) == [f"{CAPTURE_FILE_NAME}.body.tmp"]
    with pytest.raises(ConfigurationError):
        merge.add(2, "bad")
    assert _leftovers(tmp_path) == []
    merge.abort()  # idempotent after a failed add
    assert _leftovers(tmp_path) == []


def test_shards_must_arrive_in_index_order(tmp_path):
    merge = ArtifactMerge(tmp_path, label=LABEL)
    merge.add(1, "a")
    with pytest.raises(ValueError):
        merge.add(1, "a")
    with pytest.raises(ValueError):
        merge.add(0, "a")


def _metrics_shard(root, index, buckets, values):
    registry = MetricsRegistry()
    histogram = registry.histogram("device.added_latency_ns",
                                   buckets=buckets, direction="R")
    for value in values:
        histogram.observe(value)
    path = (shard_dir(root, index, "h") / TELEMETRY_SUBDIR
            / METRICS_FILE_NAME)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"wall_s": 0.0,
                                "metrics": registry.to_dict()}))


def test_histograms_with_equal_bounds_sum_bucket_by_bucket(tmp_path):
    _metrics_shard(tmp_path, 0, (1, 2), [1, 3])
    _metrics_shard(tmp_path, 1, (2, 1), [2, 0.5, 9])
    merge_artifacts(tmp_path, [(0, "h"), (1, "h")], label=LABEL)
    document = json.loads(merged_metrics_path(tmp_path).read_text())
    [series] = [entry for entry in document["metrics"]["series"]
                if entry["kind"] == "histogram"]
    assert series["buckets"] == [1.0, 2.0]
    assert series["counts"] == [2, 1, 2]
    assert series["count"] == sum(series["counts"]) == 5
    assert series["sum"] == 15.5


def test_histograms_with_different_bounds_fail_the_merge_naming_the_shard(
        tmp_path):
    """Summing counts over different bounds cannot be right: the merge
    once kept the first shard's bounds, skipped counts of another length
    and counted a 15 from bounds (10, 20) in the <= 2 bucket."""
    _metrics_shard(tmp_path, 0, (1, 2), [1])
    _metrics_shard(tmp_path, 1, (1, 2, 4), [3])
    _metrics_shard(tmp_path, 2, (10, 20), [15])
    with pytest.raises(ConfigurationError,
                       match=shard_dir(tmp_path, 1, "h").name):
        merge_artifacts(tmp_path, [(0, "h"), (1, "h"), (2, "h")],
                        label=LABEL)
    assert not merged_metrics_path(tmp_path).exists()
    _metrics_shard(tmp_path, 1, (1, 2), [3])
    with pytest.raises(ConfigurationError,
                       match=shard_dir(tmp_path, 2, "h").name):
        merge_artifacts(tmp_path, [(0, "h"), (1, "h"), (2, "h")],
                        label=LABEL)


def _sweep_spec():
    doc = dataclasses.replace(
        load_scenario("seu-sweep"), seed=3, duration_ms=1.0, drain_ms=0.5)
    return compile_scenario(doc)


def test_a_resumed_campaign_merges_the_bytes_of_a_fresh_run(tmp_path):
    """Stop a serial artifacts run after two of four experiments, then
    resume it: the two restored shards and the two new ones merge to
    the capture file of an uninterrupted run, byte for byte."""
    spec = _sweep_spec()
    fresh = tmp_path / "fresh"
    Campaign.from_spec(spec).run(SerialExecutor(artifacts_dir=fresh))

    resumed = tmp_path / "resumed"
    stream = SerialExecutor(artifacts_dir=resumed).execute(spec)
    assert [index for index, _ in itertools.islice(stream, 2)] == [0, 1]
    stream.close()
    assert _leftovers(resumed) == []
    executor = SerialExecutor(artifacts_dir=resumed, resume=True)
    Campaign.from_spec(spec).run(executor)
    assert executor.skipped == [0, 1]
    assert executor.executed == [2, 3]

    assert _leftovers(resumed) == [CAPTURE_FILE_NAME]
    assert merged_capture_path(resumed).read_bytes() \
        == merged_capture_path(fresh).read_bytes()
    assert executor.merge_summary["capture_shards"] == len(spec)

"""Round-trip tests for the versioned binary ``.rcap`` format."""

import dataclasses
import enum
import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.format import (
    MAGIC,
    VERSION,
    CaptureWriter,
    EventTemplate,
    pack_symbol,
    read_capture,
    scan_capture,
    unpack_symbol,
    walk_capture,
)
from repro.capture.provenance import (
    ExperimentCapture,
    FlightRecorder,
    LifecycleEvent,
    Stage,
)
from repro.core.monitor import CaptureRecord
from repro.errors import ConfigurationError
from repro.hw.injector import InjectionEvent
from repro.myrinet.symbols import GAP, GO, IDLE, STOP, data_symbols


def _event(**overrides):
    fields = dict(
        segment_index=42, window_before=0x11223344, ctl_before=0xF,
        window_after=0x11FF3344, ctl_after=0xD, lanes_rewritten=2,
        lanes_unreachable=1, forced=True,
    )
    fields.update(overrides)
    return InjectionEvent(**fields)


def _capture_record():
    return CaptureRecord(
        time_ps=123_456_789, direction="R", event=_event(),
        before=[GAP] + data_symbols(b"pre"),
        after=data_symbols(b"post") + [STOP, GO],
    )


class TestSymbolPacking:
    def test_nine_bit_flag_survives(self):
        """0x0C as *data* and GAP (control 0x0C) must stay distinct."""
        data_0c = data_symbols(bytes([0x0C]))[0]
        assert pack_symbol(data_0c) != pack_symbol(GAP)
        assert unpack_symbol(pack_symbol(data_0c)) == data_0c
        assert unpack_symbol(pack_symbol(GAP)) == GAP

    def test_all_values_round_trip(self):
        for value in (0, 1, 0x7F, 0xFF):
            for symbol in (data_symbols(bytes([value]))[0],):
                assert unpack_symbol(pack_symbol(symbol)) == symbol
        for control in (GAP, IDLE, STOP, GO):
            assert unpack_symbol(pack_symbol(control)) == control


class TestRoundTrip:
    def test_full_file_round_trip(self, tmp_path):
        record = _capture_record()
        event = LifecycleEvent(
            time_ps=999, stage="host_send", node="pc", direction="tx",
            corr_id=17, seq=3, experiment_index=1,
            attrs={"packet_type": 4, "wire_length": 96},
        )
        anonymous = LifecycleEvent(
            time_ps=1000, stage="drop", node="sparc1", corr_id=None,
        )
        marker = {"index": 1, "name": "GAP->IDLE", "seed": 9,
                  "fault_class": "passive", "span_id": 7,
                  "injections": 5, "captures": 1}

        path = tmp_path / "capture.rcap"
        with CaptureWriter(path, meta={"label": "round-trip"}) as writer:
            writer.write_experiment(marker)
            writer.write_capture(1, record)
            writer.write_event(event)
            writer.write_event(anonymous)
        assert writer.records_written == 4

        data = read_capture(path)
        assert data.meta["label"] == "round-trip"
        assert data.meta["format"] == "rcap"
        assert data.experiments == [marker]
        assert data.experiment_meta(1) == marker

        [window] = data.captures
        assert window.experiment_index == 1
        assert window.time_ps == record.time_ps
        assert window.direction == "R"
        assert window.segment_index == 42
        assert window.window_before == 0x11223344
        assert window.window_after == 0x11FF3344
        assert window.ctl_before == 0xF
        assert window.ctl_after == 0xD
        assert window.lanes_rewritten == 2
        assert window.lanes_unreachable == 1
        assert window.forced is True
        assert window.changed is True
        assert window.before == record.before
        assert window.after == record.after
        assert window.symbols == record.before + record.after

        assert data.events == [event, anonymous]
        assert data.events[1].corr_id is None
        assert data.captures_for(1) == [window]
        assert data.events_for(1) == [event]

    def test_bytes_and_stream_sources(self, tmp_path):
        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={"label": "buf"}) as writer:
            writer.write_experiment({"index": 0, "name": "x"})
        raw = buffer.getvalue()
        assert raw.startswith(MAGIC)
        assert read_capture(raw).meta["label"] == "buf"
        assert read_capture(io.BytesIO(raw)).meta["label"] == "buf"

    def test_unknown_record_types_are_skipped(self):
        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={}) as writer:
            writer.write_experiment({"index": 0, "name": "x"})
            # A future record type the v1 reader has never heard of.
            writer.write_record(250, b"mystery-bytes")
            writer.write_event(
                LifecycleEvent(time_ps=1, stage="drop", node="pc")
            )
        data = read_capture(buffer.getvalue())
        assert data.unknown_records_skipped == 1
        assert len(data.experiments) == 1
        assert len(data.events) == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigurationError):
            read_capture(b"NOTACAPTURE")

    def test_future_version_rejected(self):
        blob = MAGIC + struct.pack("<HI", VERSION + 1, 2) + b"{}"
        with pytest.raises(ConfigurationError):
            read_capture(blob)

    def test_truncated_file_rejected(self):
        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={}) as writer:
            writer.write_capture(0, _capture_record())
        raw = buffer.getvalue()
        with pytest.raises(ConfigurationError):
            read_capture(raw[:-3])


class TestFramingScanner:
    def test_scan_yields_body_offsets_and_walk_copies_them(self):
        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={"label": "scan"}) as writer:
            writer.write_experiment({"index": 0, "name": "x"})
            writer.write_capture(0, _capture_record())
            writer.write_record(250, b"")
            writer.write_event(LifecycleEvent(time_ps=1, stage="drop",
                                              node="pc"))
        raw = buffer.getvalue()
        meta, records = scan_capture(bytearray(raw))
        spans = list(records)
        assert meta["label"] == "scan"
        assert [record_type for record_type, _, _ in spans] == [3, 1, 250, 2]
        assert spans[-1][2] == len(raw)
        assert walk_capture(raw) == (
            meta, [(t, raw[start:end]) for t, start, end in spans])
        assert walk_capture(memoryview(raw)) == walk_capture(raw)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 40


#: Strings that stress JSON escaping: quotes, backslashes, control
#: characters, non-ASCII and astral code points.
_texts = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é☃\U0001F600'),
), max_size=12)
_scalars = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(list(_Level)),
    _texts,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_texts, inner, max_size=3)),
    max_leaves=8,
)
_attrs = st.one_of(
    st.dictionaries(_texts, _values, max_size=5),
    st.dictionaries(st.integers(-5, 5), _scalars, max_size=3),
)
#: A small pool, so events share tails and attr keys across one writer.
_names = st.one_of(st.sampled_from(Stage.ALL + ("", "pc", "tx")), _texts)
_events = st.builds(
    LifecycleEvent,
    time_ps=st.integers(0, 2 ** 64 - 1),
    stage=_names,
    node=_names,
    direction=_names,
    corr_id=st.one_of(st.none(), st.integers(0, 2 ** 63 - 1)),
    seq=st.integers(0, 2 ** 32 - 1),
    experiment_index=st.integers(0, 2 ** 32 - 1),
    attrs=_attrs,
)


def _reference_blob(event):
    return json.dumps({"stage": event.stage, "node": event.node,
                       "direction": event.direction, "attrs": event.attrs},
                      sort_keys=True).encode()


def _reference_frame(event):
    blob = _reference_blob(event)
    body = struct.pack(
        "<QqIII", event.time_ps,
        -1 if event.corr_id is None else event.corr_id,
        event.seq, event.experiment_index, len(blob)) + blob
    return struct.pack("<BI", 2, len(body)) + body


def _template_frame(event):
    """Frame ``event`` through the one encoder, as a hook would."""
    template = EventTemplate(event.stage, event.node, event.direction,
                             tuple(event.attrs))
    return template.frame(event.time_ps, event.corr_id, event.seq,
                          event.experiment_index, tuple(event.attrs.values()))


def _json_attrs(attrs):
    """What ``json.loads`` makes of ``attrs`` (str keys, IntEnum ints)."""
    return repr(json.loads(json.dumps(attrs, sort_keys=True)))


#: Events as a hook records them: lanes shared across stages, attr
#: names from a small pool (some sorted, some not) and any JSON value.
_recorded = st.lists(st.tuples(
    st.integers(0, 2 ** 64 - 1),
    st.sampled_from(Stage.ALL),
    st.sampled_from(("pc", "sparc1", "switch")),
    st.sampled_from(("tx", "rx", "")),
    st.one_of(st.none(), st.integers(0, 2 ** 63 - 1)),
    st.dictionaries(st.sampled_from(("packet_type", "matched", "b", "\u00e9")),
                    _values, max_size=3),
), max_size=12)


class TestEventEncoder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_events, min_size=1, max_size=8))
    def test_event_bodies_equal_the_json_dumps_reference(self, events):
        # The one encoder, driven directly, frames the reference bytes.
        assert [_template_frame(event) for event in events] \
            == [_reference_frame(event) for event in events]
        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={}) as writer:
            for event in events:
                writer.write_event(event)
        raw = buffer.getvalue()
        _, records = scan_capture(raw)
        bodies = [raw[start:end] for _, start, end in records]
        expected = []
        for event in events:
            blob = _reference_blob(event)
            expected.append(struct.pack(
                "<QqIII", event.time_ps,
                -1 if event.corr_id is None else event.corr_id,
                event.seq, event.experiment_index, len(blob)) + blob)
        assert bodies == expected

        decoded = read_capture(raw).events
        assert len(decoded) == len(events)
        for back, event in zip(decoded, events):
            assert (back.time_ps, back.stage, back.node, back.direction,
                    back.corr_id, back.seq, back.experiment_index) == (
                event.time_ps, event.stage, event.node, event.direction,
                event.corr_id, event.seq, event.experiment_index)
            # JSON makes keys strings and IntEnums ints, and NaN != NaN:
            # compare with what json.loads makes of the reference blob.
            assert repr(back.attrs) == repr(
                json.loads(_reference_blob(event))["attrs"])

    def test_mixed_key_types_fail_like_json_dumps(self):
        event = LifecycleEvent(time_ps=1, stage="drop", node="pc",
                               attrs={"a": 1, 2: 3})
        with pytest.raises(TypeError):
            _reference_blob(event)
        with pytest.raises(TypeError):
            _template_frame(event)
        with CaptureWriter(io.BytesIO(), meta={}) as writer:
            with pytest.raises(TypeError):
                writer.write_event(event)
        with pytest.raises(TypeError):
            FlightRecorder().emit(1, "drop", "pc", "", None, ("a", 2), 1, 3)

    @settings(max_examples=200, deadline=None)
    @given(_recorded, st.integers(1, 6), st.integers(0, 12))
    def test_recorder_frames_round_trip_through_read_capture(
            self, steps, max_events, finish_at):
        """Hook-time frames, written verbatim as a session writes its
        ring, read back as the recorded events: the newest
        ``max_events`` survive, the rest are counted as dropped, and
        each (node, direction) lane keeps its own sequence numbers."""
        recorder = FlightRecorder(max_events=max_events)
        expected, seqs = [], {}
        for step, (time_ps, stage, node, direction, corr, attrs) in \
                enumerate(steps):
            if step == finish_at:
                recorder.finish_experiment(ExperimentCapture(0, "first"))
            seq = seqs.get((node, direction), 0)
            seqs[(node, direction)] = seq + 1
            expected.append(LifecycleEvent(
                time_ps=time_ps, stage=stage, node=node,
                direction=direction, corr_id=corr, seq=seq,
                experiment_index=recorder.current_experiment_index,
                attrs=attrs))
            recorder.emit(time_ps, stage, node, direction, corr,
                          tuple(attrs), *attrs.values())
        kept = expected[len(expected) - len(recorder.frames):]
        assert len(recorder.frames) == min(len(steps), max_events)
        assert recorder.events_dropped == len(steps) - len(kept)
        assert list(recorder.frames) == [_reference_frame(e) for e in kept]

        buffer = io.BytesIO()
        with CaptureWriter(buffer, meta={}) as writer:
            writer.write_framed(b"".join(recorder.frames),
                                len(recorder.frames))
        decoded = read_capture(buffer.getvalue()).events
        assert [repr(e) for e in decoded] \
            == [repr(e) for e in recorder.events]
        assert len(decoded) == len(kept)
        for back, event in zip(decoded, kept):
            assert dataclasses.replace(back, attrs={}) \
                == dataclasses.replace(event, attrs={})
            assert repr(back.attrs) == _json_attrs(event.attrs)

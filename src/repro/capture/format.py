"""Versioned binary capture-file format (``.rcap``).

The paper's SDRAM holds captured traffic "for later transmission and
analysis" (§3.4); this module is the transmission format — a pcap-style,
length-prefixed binary file that a host-side tool can decode offline:

``file  := header record*``

* **header** — magic ``b"RCAP\\x01\\n"``, a little-endian ``u16``
  version, then a ``u32``-length-prefixed JSON metadata blob carrying
  the sim-time epoch, the capture configuration, and the producing
  session's label.
* **record** — ``u8`` record type + ``u32`` body length + body.  Three
  record types exist in version 1:

  1. **capture window** — one SDRAM
     :class:`~repro.core.monitor.CaptureRecord`: fixed binary fields
     (timestamp, direction, the full
     :class:`~repro.hw.injector.InjectionEvent`) followed by the
     before/after symbol stream.  Each 9-bit Myrinet symbol is packed
     into a ``u16`` as ``(D/C << 8) | value`` so the data/control flag
     survives losslessly.
  2. **lifecycle event** — fixed binary fields (timestamp, correlation
     id, sequence number, experiment index) plus a JSON blob for the
     open-ended parts (stage, node, attrs).
  3. **experiment marker** — a JSON blob binding an experiment index to
     its name, seed, §4.4 classification, and telemetry span id.

Unknown record types are skipped by length (forward compatibility);
a version above :data:`VERSION` raises.  One framing scanner,
:func:`scan_capture`, checks the header and yields each record's body
offsets; :func:`walk_capture`, :func:`read_capture` and the campaign
merge all walk files through it.  :func:`read_capture` round-trips
everything :class:`CaptureWriter` emits, byte for byte of meaning.

The campaign merge splices shard files: it copies records as bytes and
patches only the ``u32`` experiment index, at
:data:`CAPTURE_INDEX_OFFSET` of a window body and
:data:`EVENT_INDEX_OFFSET` of an event body.  Both offsets are part of
the version-1 layout: moving either requires a :data:`VERSION` bump.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.capture.provenance import LifecycleEvent
from repro.errors import ConfigurationError
from repro.myrinet.symbols import Symbol, control_symbol, data_symbol

__all__ = [
    "CAPTURE_FILE_NAME",
    "MAGIC",
    "VERSION",
    "CaptureWindow",
    "CaptureFileData",
    "CaptureWriter",
    "scan_capture",
    "walk_capture",
    "read_capture",
    "pack_symbol",
    "unpack_symbol",
]

#: File name of the capture artifact under ``--artifacts-dir``'s ``capture/``.
CAPTURE_FILE_NAME = "capture.rcap"

MAGIC = b"RCAP\x01\n"
VERSION = 1

RECORD_CAPTURE = 1
RECORD_EVENT = 2
RECORD_EXPERIMENT = 3

_HEADER = struct.Struct("<HI")  # version, meta length
_RECORD = struct.Struct("<BI")  # record type, body length
#: Size of a record's frame head (type + body length).
RECORD_HEAD_SIZE = _RECORD.size
#: Fixed fields of a window body, in ``_CAPTURE_FIXED`` order.
_CAPTURE_FIELDS = (
    "experiment_index", "time_ps", "direction", "forced", "lanes_rewritten",
    "lanes_unreachable", "segment_index", "window_before", "window_after",
    "ctl_before", "ctl_after", "n_before", "n_after",
)
_CAPTURE_FIXED = struct.Struct("<IQBBBBQIIBBHH")
#: time_ps, corr_id (-1 = none), seq, experiment_index, json length
_EVENT_FIXED = struct.Struct("<QqIII")
#: Byte offsets of the ``u32`` experiment index in a window / event body.
CAPTURE_INDEX_OFFSET = 0
EVENT_INDEX_OFFSET = struct.calcsize("<QqI")
#: Record type -> the fixed part every body of that type must hold.
_FIXED_SIZE = {RECORD_CAPTURE: _CAPTURE_FIXED.size,
               RECORD_EVENT: _EVENT_FIXED.size}

#: What the scanner and the splice accept as a file image.
Buffer = Union[bytes, bytearray, memoryview]


def pack_symbol(symbol: Symbol) -> int:
    """Pack one 9-bit symbol into a u16: ``(D/C << 8) | value``."""
    return ((1 << 8) if symbol.is_data else 0) | symbol.value


def unpack_symbol(packed: int) -> Symbol:
    """Inverse of :func:`pack_symbol` (interned symbols)."""
    value = packed & 0xFF
    if packed & 0x100:
        return data_symbol(value)
    return control_symbol(value)


@dataclass
class CaptureWindow:
    """A decoded type-1 record: one SDRAM capture window."""

    experiment_index: int
    time_ps: int
    direction: str
    segment_index: int
    window_before: int
    ctl_before: int
    window_after: int
    ctl_after: int
    lanes_rewritten: int
    lanes_unreachable: int
    forced: bool
    before: List[Symbol] = field(default_factory=list)
    after: List[Symbol] = field(default_factory=list)

    @property
    def symbols(self) -> List[Symbol]:
        """The full window in stream order."""
        return self.before + self.after

    @property
    def changed(self) -> bool:
        return (
            self.window_before != self.window_after
            or self.ctl_before != self.ctl_after
        )


@dataclass
class CaptureFileData:
    """Everything read back from one ``.rcap`` file."""

    meta: Dict[str, Any]
    experiments: List[Dict[str, Any]] = field(default_factory=list)
    captures: List[CaptureWindow] = field(default_factory=list)
    events: List[LifecycleEvent] = field(default_factory=list)
    unknown_records_skipped: int = 0

    def experiment_meta(self, index: int) -> Optional[Dict[str, Any]]:
        for meta in self.experiments:
            if meta.get("index") == index:
                return meta
        return None

    def captures_for(self, index: int) -> List[CaptureWindow]:
        return [c for c in self.captures if c.experiment_index == index]

    def events_for(self, index: int) -> List[LifecycleEvent]:
        return [e for e in self.events if e.experiment_index == index]


class CaptureWriter:
    """Streams capture records into an ``.rcap`` file (or buffer)."""

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: BinaryIO = open(path, "wb")
            self._owns_stream = True
            self.path: Optional[Path] = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self.records_written = 0
        # write_event's caches: bounded by the distinct strings of one
        # file, so they live and die with the writer.
        self._json = json.JSONEncoder(sort_keys=True)
        self._event_tails: Dict[Tuple[str, str, str], str] = {}
        self._attr_keys: Dict[str, str] = {}
        meta_blob = json.dumps(
            {"format": "rcap", **(meta or {})}, sort_keys=True
        ).encode("utf-8")
        self._stream.write(MAGIC)
        self._stream.write(_HEADER.pack(VERSION, len(meta_blob)))
        self._stream.write(meta_blob)

    # ------------------------------------------------------------------

    def write_record(self, record_type: int, body: bytes) -> None:
        """Frame and write one already-encoded record body."""
        self._stream.write(_RECORD.pack(record_type, len(body)) + body)
        self.records_written += 1

    def write_framed(self, records: Buffer, count: int) -> None:
        """Write ``count`` records that are already framed, verbatim.

        The campaign merge copies runs of shard records through here.
        """
        self._stream.write(records)
        self.records_written += count

    def write_capture(self, experiment_index: int, record: Any) -> None:
        """Serialize one :class:`~repro.core.monitor.CaptureRecord`."""
        event = record.event
        before: Sequence[Symbol] = record.before
        after: Sequence[Symbol] = record.after
        fixed = _CAPTURE_FIXED.pack(
            experiment_index,
            record.time_ps,
            ord(record.direction[0]) if record.direction else 0,
            1 if event.forced else 0,
            event.lanes_rewritten,
            event.lanes_unreachable,
            event.segment_index,
            event.window_before,
            event.window_after,
            event.ctl_before,
            event.ctl_after,
            len(before),
            len(after),
        )
        packed = struct.pack(
            f"<{len(before) + len(after)}H",
            *(pack_symbol(s) for s in list(before) + list(after)),
        )
        self.write_record(RECORD_CAPTURE, fixed + packed)

    def write_event(self, event: LifecycleEvent) -> None:
        """Serialize one lifecycle event."""
        blob = self._event_blob(event).encode("utf-8")
        fixed = _EVENT_FIXED.pack(
            event.time_ps,
            -1 if event.corr_id is None else event.corr_id,
            event.seq,
            event.experiment_index,
            len(blob),
        )
        self.write_record(RECORD_EVENT, fixed + blob)

    def _event_blob(self, event: LifecycleEvent) -> str:
        """``json.dumps`` of the event's open-ended parts, sorted keys.

        Byte-identical to ``json.dumps({"stage": ..., "node": ...,
        "direction": ..., "attrs": ...}, sort_keys=True)`` without
        building an encoder per call: the ``direction``/``node``/
        ``stage`` tail and the attr keys are encoded once per writer,
        exact ``str``/``int``/``bool`` attr values are encoded inline,
        and everything else goes through one reused encoder.
        """
        key = (event.direction, event.node, event.stage)
        tail = self._event_tails.get(key)
        if tail is None:
            encode = self._json.encode
            tail = (f', "direction": {encode(event.direction)}'
                    f', "node": {encode(event.node)}'
                    f', "stage": {encode(event.stage)}}}')
            # Only all-str keys are cached: 1 == True would alias.
            if all(type(part) is str for part in key):
                self._event_tails[key] = tail
        return '{"attrs": ' + self._attrs_json(event.attrs) + tail

    def _attrs_json(self, attrs: Any) -> str:
        if type(attrs) is not dict or not attrs:
            return self._json.encode(attrs)
        keys = self._attr_keys
        parts = []
        for name in sorted(attrs):
            prefix = keys.get(name)
            if prefix is None:
                if type(name) is not str:
                    # json.dumps stringifies non-str keys; let it.
                    return self._json.encode(attrs)
                prefix = keys[name] = encode_basestring_ascii(name) + ": "
            value = attrs[name]
            kind = type(value)
            if kind is str:
                parts.append(prefix + encode_basestring_ascii(value))
            elif kind is int:
                parts.append(prefix + int.__repr__(value))
            elif kind is bool:
                parts.append(prefix + ("true" if value else "false"))
            else:
                parts.append(prefix + self._json.encode(value))
        return "{" + ", ".join(parts) + "}"

    def write_experiment(self, meta: Dict[str, Any]) -> None:
        """Serialize one experiment marker."""
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        self.write_record(RECORD_EXPERIMENT, blob)

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _room(size: int, pos: int, count: int, what: str) -> None:
    if size - pos < count:
        raise ConfigurationError(
            f"truncated capture file: wanted {count} bytes of {what}, "
            f"got {max(0, size - pos)}"
        )


def scan_capture(
    buffer: Buffer,
) -> Tuple[Dict[str, Any], Iterator[Tuple[int, int, int]]]:
    """Check an ``.rcap`` buffer's header; return ``(meta, records)``.

    The one framing scanner.  ``records`` lazily yields
    ``(record_type, body_start, body_end)`` offsets into ``buffer`` for
    every record in file order, unknown types included; it copies
    nothing.  Bad magic, a newer version and a truncated header raise
    :class:`~repro.errors.ConfigurationError` here; a partial record
    head, a truncated record, and a window or event body shorter than
    its fixed part raise it when the iteration reaches them.
    """
    size = len(buffer)
    _room(size, 0, len(MAGIC), "magic")
    magic = bytes(buffer[:len(MAGIC)])
    if magic != MAGIC:
        raise ConfigurationError(
            f"not a capture file (magic {magic!r} != {MAGIC!r})"
        )
    pos = len(MAGIC)
    _room(size, pos, _HEADER.size, "header")
    version, meta_len = _HEADER.unpack_from(buffer, pos)
    if version > VERSION:
        raise ConfigurationError(
            f"capture file version {version} is newer than supported "
            f"version {VERSION}"
        )
    pos += _HEADER.size
    _room(size, pos, meta_len, "metadata")
    meta = json.loads(bytes(buffer[pos:pos + meta_len]))
    return meta, _scan_records(buffer, pos + meta_len)


def _scan_records(
    buffer: Buffer, pos: int,
) -> Iterator[Tuple[int, int, int]]:
    size = len(buffer)
    head = _RECORD.size
    unpack_head = _RECORD.unpack_from
    fixed_size = _FIXED_SIZE.get
    while pos < size:
        if size - pos < head:
            raise ConfigurationError("truncated capture file: partial record")
        record_type, body_len = unpack_head(buffer, pos)
        start = pos + head
        pos = start + body_len
        if pos > size:
            _room(size, start, body_len, f"record type {record_type}")
        if body_len < fixed_size(record_type, 0):
            raise ConfigurationError(
                f"capture record type {record_type}: {body_len}-byte body "
                "is shorter than its fixed part"
            )
        yield record_type, start, pos


def _capture_bytes(source: Union[str, Path, Buffer, BinaryIO]) -> Buffer:
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    if isinstance(source, (bytes, bytearray, memoryview)):
        return source
    return source.read()


def walk_capture(
    source: Union[str, Path, Buffer, BinaryIO],
) -> Tuple[Dict[str, Any], List[Tuple[int, bytes]]]:
    """Check an ``.rcap`` file's framing; return ``(meta, records)``.

    ``records`` lists every ``(record_type, body)`` in file order,
    unknown types included.  A thin wrapper over :func:`scan_capture`
    that copies each body out, with the same
    :class:`~repro.errors.ConfigurationError` cases.
    """
    buffer = _capture_bytes(source)
    meta, records = scan_capture(buffer)
    return meta, [(record_type, bytes(buffer[start:end]))
                  for record_type, start, end in records]


def read_capture(
    source: Union[str, Path, Buffer, BinaryIO],
) -> CaptureFileData:
    """Read an ``.rcap`` file back; lossless inverse of the writer."""
    buffer = _capture_bytes(source)
    meta, records = scan_capture(buffer)
    view = memoryview(buffer)
    data = CaptureFileData(meta=meta)
    for record_type, start, end in records:
        if record_type == RECORD_CAPTURE:
            data.captures.append(_decode_capture(view[start:end]))
        elif record_type == RECORD_EVENT:
            data.events.append(_decode_event(view[start:end]))
        elif record_type == RECORD_EXPERIMENT:
            data.experiments.append(json.loads(bytes(view[start:end])))
        else:
            # Forward compatibility: skip by length.
            data.unknown_records_skipped += 1
    return data


def _decode_capture(body: memoryview) -> CaptureWindow:
    fields = dict(zip(_CAPTURE_FIELDS, _CAPTURE_FIXED.unpack_from(body)))
    n_before = fields.pop("n_before")
    count = n_before + fields.pop("n_after")
    packed = struct.unpack_from(f"<{count}H", body, _CAPTURE_FIXED.size)
    symbols = [unpack_symbol(p) for p in packed]
    direction, forced = fields.pop("direction"), fields.pop("forced")
    return CaptureWindow(
        direction=chr(direction) if direction else "",
        forced=bool(forced),
        before=symbols[:n_before],
        after=symbols[n_before:],
        **fields,
    )


def _decode_event(body: memoryview) -> LifecycleEvent:
    time_ps, corr_id, seq, experiment_index, blob_len = _EVENT_FIXED.unpack_from(
        body
    )
    blob = json.loads(
        bytes(body[_EVENT_FIXED.size:_EVENT_FIXED.size + blob_len])
    )
    return LifecycleEvent(
        time_ps=time_ps,
        stage=blob["stage"],
        node=blob["node"],
        direction=blob.get("direction", ""),
        corr_id=None if corr_id < 0 else corr_id,
        seq=seq,
        experiment_index=experiment_index,
        attrs=dict(blob.get("attrs", {})),
    )

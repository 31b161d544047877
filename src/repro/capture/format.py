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
     open-ended parts (stage, node, attrs).  One encoder frames every
     event: an :class:`EventTemplate` per ``(stage, node, direction,
     attr names)``.  The flight recorder frames each event at its hook
     and the writer copies the frames verbatim.
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
import shutil
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

from repro.errors import ConfigurationError
from repro.myrinet.symbols import Symbol, control_symbol, data_symbol

__all__ = [
    "CAPTURE_FILE_NAME",
    "MAGIC",
    "VERSION",
    "CaptureWindow",
    "CaptureFileData",
    "CaptureWriter",
    "EventTemplate",
    "LifecycleEvent",
    "decode_event_frame",
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
_EVENT_FIXED_SIZE = _EVENT_FIXED.size
#: A whole event frame: record head, then the ``_EVENT_FIXED`` fields.
_pack_event = struct.Struct("<BI" + _EVENT_FIXED.format[1:]).pack
#: Byte offsets of the ``u32`` experiment index in a window / event body.
CAPTURE_INDEX_OFFSET = 0
EVENT_INDEX_OFFSET = struct.calcsize("<QqI")
#: Record type -> the fixed part every body of that type must hold.
_FIXED_SIZE = {RECORD_CAPTURE: _CAPTURE_FIXED.size,
               RECORD_EVENT: _EVENT_FIXED.size}

#: What the scanner and the splice accept as a file image.
Buffer = Union[bytes, bytearray, memoryview]


@dataclass
class LifecycleEvent:
    """One recorded step of one packet's (or burst's) life."""

    time_ps: int
    stage: str
    node: str
    direction: str = ""
    corr_id: Optional[int] = None
    seq: int = 0
    experiment_index: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_ps": self.time_ps,
            "stage": self.stage,
            "node": self.node,
            "direction": self.direction,
            "corr_id": self.corr_id,
            "seq": self.seq,
            "experiment_index": self.experiment_index,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LifecycleEvent":
        return cls(
            time_ps=data["time_ps"],
            stage=data["stage"],
            node=data["node"],
            direction=data.get("direction", ""),
            corr_id=data.get("corr_id"),
            seq=data.get("seq", 0),
            experiment_index=data.get("experiment_index", 0),
            attrs=dict(data.get("attrs", {})),
        )


# ---------------------------------------------------------------------------
# the event encoder
# ---------------------------------------------------------------------------

#: The one JSON encoder behind every event value that is not inlined.
_JSON = json.JSONEncoder(sort_keys=True)
_BOOL_JSON = {True: b"true", False: b"false"}


def _json_bytes(value: Any) -> bytes:
    """``json.dumps(value, sort_keys=True)``, encoded; exact
    ``int``/``bool``/``str`` inline, anything else through ``_JSON``."""
    kind = type(value)
    if kind is int:
        return b"%d" % value
    if kind is bool:
        return _BOOL_JSON[value]
    if kind is str:
        return encode_basestring_ascii(value).encode()
    return _JSON.encode(value).encode()


def _literal(text: str) -> bytes:
    """``text`` as a constant part of a ``%`` format."""
    return text.replace("%", "%%").encode()


class EventTemplate:
    """One ``(stage, node, direction, attr names)`` compiled to a frame.

    An event body's JSON blob is ``json.dumps({"stage": ..., "node":
    ..., "direction": ..., "attrs": {...}}, sort_keys=True)``.  For a
    template of ``str`` parts everything but the attr values — the
    key names in sorted order, the stage/node/direction strings — is
    encoded once here, so :meth:`frame` only formats the values in and
    packs the fixed fields.  All exact ``int`` values take one ``%d``
    format; other value kinds take a format compiled once per sequence
    of kinds, with each non-``int`` value encoded as ``json.dumps``
    would.  A template with a non-``str`` part encodes the whole blob
    through ``_JSON`` on every call, which is what ``json.dumps`` would
    write (or raise).
    """

    __slots__ = ("_parts", "_names", "_order", "_ints", "_keys", "_tail",
                 "_mixed")

    def __init__(self, stage: Any, node: Any, direction: Any,
                 names: Tuple[Any, ...]) -> None:
        self._parts = (stage, node, direction)
        self._names = names
        self._ints: Optional[bytes] = None
        self._order: Optional[Tuple[int, ...]] = None
        #: value kinds -> (format, slots to encode) for mixed values
        self._mixed: Dict[Tuple[type, ...], Tuple[bytes, Tuple[int, ...]]] = {}
        if not all(type(part) is str for part in (*self._parts, *names)):
            return
        order = sorted(range(len(names)), key=names.__getitem__)
        if order != list(range(len(names))):
            self._order = tuple(order)
        self._keys = [_literal(encode_basestring_ascii(names[i]) + ": ")
                      for i in order]
        self._tail = _literal(
            f'}}, "direction": {encode_basestring_ascii(direction)}'
            f', "node": {encode_basestring_ascii(node)}'
            f', "stage": {encode_basestring_ascii(stage)}}}')
        self._ints = self._format([int] * len(names))

    @property
    def cacheable(self) -> bool:
        """Whether the template may be reused for an equal key (only
        all-``str`` keys: ``1 == True`` would alias)."""
        return self._ints is not None

    def frame(self, time_ps: int, corr_id: Optional[int], seq: int,
              experiment_index: int, values: Tuple[Any, ...]) -> bytes:
        """The framed ``.rcap`` event record of ``values``."""
        ints = self._ints
        if ints is None:
            stage, node, direction = self._parts
            blob = _JSON.encode({
                "attrs": dict(zip(self._names, values)),
                "direction": direction, "node": node, "stage": stage,
            }).encode()
        else:
            if self._order is not None:
                values = tuple([values[i] for i in self._order])
            for value in values:
                if type(value) is not int:
                    blob = self._mixed_blob(values)
                    break
            else:
                blob = ints % values
        size = len(blob)
        return _pack_event(RECORD_EVENT, _EVENT_FIXED_SIZE + size, time_ps,
                           -1 if corr_id is None else corr_id, seq,
                           experiment_index, size) + blob

    def _format(self, kinds: Sequence[type]) -> bytes:
        """The blob format with a ``%d`` slot per int and ``%s`` else."""
        return (b'{"attrs": {' + b", ".join(
            key + (b"%d" if kind is int else b"%s")
            for key, kind in zip(self._keys, kinds)) + self._tail)

    def _mixed_blob(self, values: Tuple[Any, ...]) -> bytes:
        """The blob of values not all exact ``int``: a format per
        sequence of value kinds, the non-``int`` values encoded."""
        kinds = tuple(map(type, values))
        mixed = self._mixed.get(kinds)
        if mixed is None:
            mixed = self._mixed[kinds] = (self._format(kinds), tuple(
                i for i, kind in enumerate(kinds) if kind is not int))
        fmt, encode = mixed
        encoded = list(values)
        for i in encode:
            encoded[i] = _json_bytes(encoded[i])
        return fmt % tuple(encoded)


def decode_event_frame(frame: Buffer) -> LifecycleEvent:
    """The :class:`LifecycleEvent` of one framed event record."""
    return _decode_event(memoryview(frame)[_RECORD.size:])


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
    """Streams capture records into an ``.rcap`` file (or buffer).

    ``header=False`` writes records only: a body spool that a later
    writer, once it knows its header, copies in with
    :meth:`write_framed`.
    """

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        meta: Optional[Dict[str, Any]] = None,
        header: bool = True,
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
        # write_event's templates: bounded by the distinct keys of one
        # file, so they live and die with the writer.
        self._templates: Dict[Tuple[Any, ...], EventTemplate] = {}
        if not header:
            return
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

    def write_framed(self, records: Union[Buffer, BinaryIO],
                     count: int) -> None:
        """Write ``count`` records that are already framed, verbatim.

        ``records`` is a buffer, or a binary stream copied from its
        position to its end in bounded chunks.  Every event record
        and every shard run of the campaign merge arrive through here.
        """
        if isinstance(records, (bytes, bytearray, memoryview)):
            self._stream.write(records)
        else:
            shutil.copyfileobj(records, self._stream)
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
        """Serialize one lifecycle event through its :class:`EventTemplate`."""
        attrs = event.attrs
        key = (event.stage, event.node, event.direction, tuple(attrs))
        template = self._templates.get(key)
        if template is None:
            template = EventTemplate(*key)
            if template.cacheable:
                self._templates[key] = template
        self.write_framed(template.frame(
            event.time_ps, event.corr_id, event.seq, event.experiment_index,
            tuple(attrs.values())), 1)

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

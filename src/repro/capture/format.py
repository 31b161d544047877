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
a version above :data:`VERSION` raises.  :func:`read_capture` walks the
framing (:func:`walk_capture`), then decodes each body; it round-trips
everything :class:`CaptureWriter` emits, byte for byte of meaning.

The campaign merge splices shard files: it copies bodies as bytes and
patches only the ``u32`` experiment index, at
:data:`CAPTURE_INDEX_OFFSET` of a window body and
:data:`EVENT_INDEX_OFFSET` of an event body.  Both offsets are part of
the version-1 layout: moving either requires a :data:`VERSION` bump.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from repro.capture.provenance import LifecycleEvent
from repro.errors import ConfigurationError
from repro.myrinet.symbols import Symbol, control_symbol, data_symbol

__all__ = [
    "MAGIC",
    "VERSION",
    "CaptureWindow",
    "CaptureFileData",
    "CaptureWriter",
    "walk_capture",
    "read_capture",
    "pack_symbol",
    "unpack_symbol",
]

MAGIC = b"RCAP\x01\n"
VERSION = 1

RECORD_CAPTURE = 1
RECORD_EVENT = 2
RECORD_EXPERIMENT = 3

_HEADER = struct.Struct("<HI")  # version, meta length
_RECORD = struct.Struct("<BI")  # record type, body length
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
        meta_blob = json.dumps(
            {"format": "rcap", **(meta or {})}, sort_keys=True
        ).encode("utf-8")
        self._stream.write(MAGIC)
        self._stream.write(_HEADER.pack(VERSION, len(meta_blob)))
        self._stream.write(meta_blob)

    # ------------------------------------------------------------------

    def write_record(self, record_type: int, body: bytes) -> None:
        """Frame and write one already-encoded record body."""
        self._stream.write(_RECORD.pack(record_type, len(body)))
        self._stream.write(body)
        self.records_written += 1

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
        blob = json.dumps(
            {
                "stage": event.stage,
                "node": event.node,
                "direction": event.direction,
                "attrs": event.attrs,
            },
            sort_keys=True,
        ).encode("utf-8")
        fixed = _EVENT_FIXED.pack(
            event.time_ps,
            -1 if event.corr_id is None else event.corr_id,
            event.seq,
            event.experiment_index,
            len(blob),
        )
        self.write_record(RECORD_EVENT, fixed + blob)

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


def _read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise ConfigurationError(
            f"truncated capture file: wanted {count} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def walk_capture(
    source: Union[str, Path, bytes, BinaryIO],
) -> Tuple[Dict[str, Any], List[Tuple[int, bytes]]]:
    """Check an ``.rcap`` file's framing; return ``(meta, records)``.

    ``records`` lists every ``(record_type, body)`` in file order,
    unknown types included.  Bad magic, a newer version, a truncated
    header or record, and a window or event body shorter than its fixed
    part raise :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return walk_capture(stream.read())
    if isinstance(source, bytes):
        stream: BinaryIO = io.BytesIO(source)
    else:
        stream = source

    magic = _read_exact(stream, len(MAGIC), "magic")
    if magic != MAGIC:
        raise ConfigurationError(
            f"not a capture file (magic {magic!r} != {MAGIC!r})"
        )
    version, meta_len = _HEADER.unpack(
        _read_exact(stream, _HEADER.size, "header")
    )
    if version > VERSION:
        raise ConfigurationError(
            f"capture file version {version} is newer than supported "
            f"version {VERSION}"
        )
    meta = json.loads(_read_exact(stream, meta_len, "metadata"))
    records: List[Tuple[int, bytes]] = []
    while True:
        head = stream.read(_RECORD.size)
        if not head:
            break
        if len(head) != _RECORD.size:
            raise ConfigurationError("truncated capture file: partial record")
        record_type, body_len = _RECORD.unpack(head)
        body = _read_exact(stream, body_len, f"record type {record_type}")
        if body_len < _FIXED_SIZE.get(record_type, 0):
            raise ConfigurationError(
                f"capture record type {record_type}: {body_len}-byte body "
                "is shorter than its fixed part"
            )
        records.append((record_type, body))
    return meta, records


def read_capture(source: Union[str, Path, bytes, BinaryIO]) -> CaptureFileData:
    """Read an ``.rcap`` file back; lossless inverse of the writer."""
    meta, records = walk_capture(source)
    data = CaptureFileData(meta=meta)
    for record_type, body in records:
        if record_type == RECORD_CAPTURE:
            data.captures.append(_decode_capture(body))
        elif record_type == RECORD_EVENT:
            data.events.append(_decode_event(body))
        elif record_type == RECORD_EXPERIMENT:
            data.experiments.append(json.loads(body))
        else:
            # Forward compatibility: skip by length.
            data.unknown_records_skipped += 1
    return data


def _decode_capture(body: bytes) -> CaptureWindow:
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


def _decode_event(body: bytes) -> LifecycleEvent:
    time_ps, corr_id, seq, experiment_index, blob_len = _EVENT_FIXED.unpack_from(
        body
    )
    blob = json.loads(body[_EVENT_FIXED.size:_EVENT_FIXED.size + blob_len])
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

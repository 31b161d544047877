"""Offline decode + failure analysis of ``.rcap`` capture files.

This is the host-side half of the paper's §3.4 story: the device keeps
"the bytes surrounding the fault injection event" in SDRAM, and a later
pass turns those raw symbol windows back into *meaning*.  For each
capture window the analyzer

1. **reassembles frames** from the symbol stream exactly the way a host
   interface does (data symbols accumulate, GAP closes a frame,
   undecodable control symbols are counted — :mod:`repro.myrinet.frames`
   semantics, but offset-preserving so every byte can be pointed at);
2. **parses packets** — leading MSB-set bytes are the residual source
   route, then the 4-byte type field, payload, and trailing CRC-8, which
   is *recomputed* to show whether the injected corruption broke it;
3. **digs into data packets**: the 12-byte MAC address header, the
   IP-lite header, and the UDP datagram whose one's-complement checksum
   is re-verified — surfacing the paper's §4.3.4 result that 16-bit-swap
   corruptions sail through while others are caught;
4. **marks the injected symbols**: the post-corruption 4-lane window
   from the :class:`~repro.hw.injector.InjectionEvent` is located in the
   captured stream and each rewritten lane is resolved to an exact
   symbol offset (and, when it lands inside a frame, a byte offset in
   that frame);
5. **joins the verdict**: every window carries its experiment's
   §4.4 classification (via the experiment marker written by
   :class:`~repro.telemetry.session.ObservationSession`), its evidence
   list, and the experiment's span id.

The result is a JSON-safe analysis tree plus a text/markdown report
rendered through :class:`repro.nftape.report.CampaignReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import CrcError, ProtocolError
from repro.hostsim.ip import HEADER_LEN as IP_HEADER_LEN
from repro.hostsim.ip import IpLiteHeader, PROTO_UDP
from repro.hostsim.udp import HEADER_LEN as UDP_HEADER_LEN
from repro.hostsim.checksum import verify_checksum
from repro.myrinet.crc8 import crc8
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    PACKET_TYPE_MAPPING,
    TYPE_FIELD_LEN,
    MyrinetPacket,
    is_route_byte,
)
from repro.myrinet.symbols import (
    GAP,
    IDLE,
    Symbol,
    control_symbol,
    data_symbol,
    decode_control,
)
from repro.capture.format import CaptureFileData, CaptureWindow, read_capture
from repro.nftape.report import CampaignReport

__all__ = [
    "DecodedFrame",
    "InjectionMark",
    "WindowAnalysis",
    "ExperimentAnalysis",
    "CaptureAnalysis",
    "corruption_window_symbols",
    "reassemble_frames",
    "analyze_window",
    "analyze_capture",
]

#: Number of lanes in the injector's corruption window (32-bit window).
WINDOW_LANES = 4

_TYPE_NAMES = {
    PACKET_TYPE_DATA: "data",
    PACKET_TYPE_MAPPING: "mapping",
}

#: Data-packet address header (dest MAC + src MAC), as the interface lays
#: it out in :meth:`repro.myrinet.interface.HostInterface.send_to`.
DATA_HEADER_LEN = 12


# ----------------------------------------------------------------------
# frame reassembly (offset-preserving)
# ----------------------------------------------------------------------


@dataclass
class DecodedFrame:
    """One frame reassembled from a capture window's symbol stream."""

    #: Raw frame bytes (data-symbol values between GAPs).
    data: bytes
    #: Stream offset of each frame byte (parallel to ``data``).
    offsets: List[int] = field(default_factory=list)
    #: True when a terminating GAP was seen inside the window.
    complete: bool = False
    #: Residual route bytes at the head (leading MSB-set bytes).
    route_len: int = 0
    packet_type: Optional[int] = None
    crc_ok: Optional[bool] = None
    error: Optional[str] = None
    payload_len: int = 0
    #: Parsed UDP detail for data packets, when recognisable.
    udp: Optional[Dict[str, Any]] = None

    @property
    def start_offset(self) -> Optional[int]:
        return self.offsets[0] if self.offsets else None

    @property
    def end_offset(self) -> Optional[int]:
        return self.offsets[-1] if self.offsets else None

    @property
    def type_name(self) -> str:
        if self.packet_type is None:
            return "unparsed"
        return _TYPE_NAMES.get(self.packet_type, f"{self.packet_type:#06x}")

    def byte_index_of(self, stream_offset: int) -> Optional[int]:
        """Frame-byte index of a stream offset, or None if not in frame."""
        try:
            return self.offsets.index(stream_offset)
        except ValueError:
            return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bytes": len(self.data),
            "start_offset": self.start_offset,
            "end_offset": self.end_offset,
            "complete": self.complete,
            "route_len": self.route_len,
            "packet_type": self.packet_type,
            "type_name": self.type_name,
            "crc_ok": self.crc_ok,
            "error": self.error,
            "payload_len": self.payload_len,
            "udp": self.udp,
            "hex": self.data.hex(),
        }


def reassemble_frames(symbols: Sequence[Symbol]) -> List[DecodedFrame]:
    """Split a symbol stream into frames on GAP boundaries.

    Mirrors :class:`repro.myrinet.frames.FrameAssembler` (GAP closes a
    frame, IDLE/STOP/GO are transparent, undecodable controls dropped)
    but keeps the stream offset of every frame byte so injected symbols
    can be pointed at.  A trailing partial frame — the common case when
    the capture window ends mid-packet — is emitted with
    ``complete=False``.
    """
    frames: List[DecodedFrame] = []
    data: List[int] = []
    offsets: List[int] = []

    def close(complete: bool) -> None:
        if data:
            frames.append(
                DecodedFrame(
                    data=bytes(data), offsets=list(offsets), complete=complete
                )
            )
            data.clear()
            offsets.clear()

    for offset, symbol in enumerate(symbols):
        if symbol.is_data:
            data.append(symbol.value)
            offsets.append(offset)
            continue
        decoded = decode_control(symbol.value)
        if decoded is GAP:
            close(complete=True)
        elif decoded is IDLE or decoded is None:
            continue
        # STOP/GO: flow control, transparent to framing.
    close(complete=False)
    return frames


def _parse_frame(frame: DecodedFrame) -> None:
    """Fill in route/type/CRC/UDP detail for one reassembled frame."""
    raw = frame.data
    route_len = 0
    while route_len < len(raw) and is_route_byte(raw[route_len]):
        route_len += 1
    frame.route_len = route_len
    try:
        packet = MyrinetPacket.from_bytes(raw, route_len=route_len)
    except CrcError:
        frame.crc_ok = False
        frame.error = f"CRC-8 residue {crc8(raw):#04x}"
        type_end = route_len + TYPE_FIELD_LEN
        frame.packet_type = int.from_bytes(raw[route_len:type_end], "big")
        frame.payload_len = len(raw) - type_end - 1
        if frame.packet_type == PACKET_TYPE_DATA:
            frame.udp = _analyze_udp(raw[type_end:-1])
        return
    except ProtocolError as exc:
        frame.error = f"truncated: {exc}"
        return
    frame.crc_ok = True
    frame.packet_type = packet.packet_type
    frame.payload_len = len(packet.payload)
    if packet.packet_type == PACKET_TYPE_DATA:
        frame.udp = _analyze_udp(packet.payload)


def _analyze_udp(payload: bytes) -> Optional[Dict[str, Any]]:
    """Decode a data-packet payload down to the UDP checksum verdict."""
    if len(payload) < DATA_HEADER_LEN + IP_HEADER_LEN + UDP_HEADER_LEN:
        return None
    dest_mac = payload[:6].hex()
    src_mac = payload[6:12].hex()
    body = payload[DATA_HEADER_LEN:]
    try:
        ip = IpLiteHeader.from_bytes(body[:IP_HEADER_LEN])
    except ProtocolError as exc:
        return {"error": f"ip: {exc}", "dest_mac": dest_mac, "src_mac": src_mac}
    if ip.protocol != PROTO_UDP:
        return {
            "error": f"not UDP (protocol {ip.protocol})",
            "dest_mac": dest_mac,
            "src_mac": src_mac,
        }
    raw_udp = body[IP_HEADER_LEN:]
    if len(raw_udp) < UDP_HEADER_LEN:
        return {"error": "truncated UDP header",
                "dest_mac": dest_mac, "src_mac": src_mac}
    length = int.from_bytes(raw_udp[4:6], "big")
    checksum_ok = length == len(raw_udp) and verify_checksum(
        ip.pseudo_header(length) + raw_udp
    )
    return {
        "dest_mac": dest_mac,
        "src_mac": src_mac,
        "src_ip": str(ip.src),
        "dst_ip": str(ip.dst),
        "src_port": int.from_bytes(raw_udp[0:2], "big"),
        "dst_port": int.from_bytes(raw_udp[2:4], "big"),
        "udp_length": length,
        "checksum": int.from_bytes(raw_udp[6:8], "big"),
        "checksum_ok": checksum_ok,
        "payload_len": max(0, len(raw_udp) - UDP_HEADER_LEN),
    }


# ----------------------------------------------------------------------
# injected-symbol marking
# ----------------------------------------------------------------------


def corruption_window_symbols(window: int, ctl: int) -> List[Symbol]:
    """The injector's 4-lane window as symbols in *stream order*.

    Lane 0 holds the most recent symbol (the low byte of the 32-bit
    window), so stream order is lane 3, 2, 1, 0 — oldest first.
    """
    out: List[Symbol] = []
    for lane in range(WINDOW_LANES - 1, -1, -1):
        value = (window >> (8 * lane)) & 0xFF
        if (ctl >> lane) & 1:
            out.append(data_symbol(value))
        else:
            out.append(control_symbol(value))
    return out


@dataclass
class InjectionMark:
    """Where the injected corruption landed in the captured stream."""

    #: True when the post-corruption window was located in the stream.
    matched: bool = False
    #: Stream offset of lane 3 (stream-order start of the 4-lane window).
    window_offset: Optional[int] = None
    #: Stream offsets of the rewritten lanes (stream order).
    injected_offsets: List[int] = field(default_factory=list)
    #: Per-changed-lane detail: lane, before/after symbol reprs, offset.
    changes: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "matched": self.matched,
            "window_offset": self.window_offset,
            "injected_offsets": list(self.injected_offsets),
            "changes": [dict(c) for c in self.changes],
        }


def _find_subsequence(haystack: Sequence[Symbol],
                      needle: Sequence[Symbol]) -> Optional[int]:
    if not needle or len(needle) > len(haystack):
        return None
    first = needle[0]
    last = len(haystack) - len(needle)
    for start in range(last + 1):
        if haystack[start] is not first and haystack[start] != first:
            continue
        if all(haystack[start + k] == needle[k] for k in range(1, len(needle))):
            return start
    return None


def mark_injection(capture: CaptureWindow) -> InjectionMark:
    """Locate the injector's post-corruption window in a capture.

    The monitor observes the device *output*, and the FIFO pipeline is
    shorter than the post-trigger capture depth, so the rewritten
    symbols normally surface in ``capture.after``; the search prefers
    that region and falls back to the full stream (a forced trigger or
    an unreachable lane may leave nothing to find).
    """
    mark = InjectionMark()
    post = corruption_window_symbols(capture.window_after, capture.ctl_after)
    pre = corruption_window_symbols(capture.window_before, capture.ctl_before)

    base = len(capture.before)
    start = _find_subsequence(capture.after, post)
    if start is not None:
        mark.window_offset = base + start
    else:
        full = _find_subsequence(capture.symbols, post)
        if full is None:
            return mark
        mark.window_offset = full
    mark.matched = True

    for position in range(WINDOW_LANES):  # stream order: lane 3 .. lane 0
        lane = WINDOW_LANES - 1 - position
        if pre[position] == post[position]:
            continue
        offset = mark.window_offset + position
        mark.injected_offsets.append(offset)
        mark.changes.append(
            {
                "lane": lane,
                "offset": offset,
                "before": repr(pre[position]),
                "after": repr(post[position]),
            }
        )
    return mark


# ----------------------------------------------------------------------
# per-window / per-experiment analysis
# ----------------------------------------------------------------------


@dataclass
class WindowAnalysis:
    """Everything decoded from one SDRAM capture window."""

    capture: CaptureWindow
    frames: List[DecodedFrame] = field(default_factory=list)
    mark: InjectionMark = field(default_factory=InjectionMark)
    #: Frames whose byte span contains an injected offset.
    hit_frames: List[int] = field(default_factory=list)
    effect: str = ""

    def to_dict(self) -> Dict[str, Any]:
        c = self.capture
        return {
            "experiment_index": c.experiment_index,
            "time_ps": c.time_ps,
            "direction": c.direction,
            "segment_index": c.segment_index,
            "forced": c.forced,
            "changed": c.changed,
            "lanes_rewritten": c.lanes_rewritten,
            "lanes_unreachable": c.lanes_unreachable,
            "symbols": len(c.before) + len(c.after),
            "frames": [f.to_dict() for f in self.frames],
            "mark": self.mark.to_dict(),
            "hit_frames": list(self.hit_frames),
            "effect": self.effect,
        }


def analyze_window(capture: CaptureWindow) -> WindowAnalysis:
    """Decode one capture window: frames, CRC/UDP verdicts, injection mark."""
    analysis = WindowAnalysis(capture=capture)
    analysis.frames = reassemble_frames(capture.symbols)
    for frame in analysis.frames:
        _parse_frame(frame)
    analysis.mark = mark_injection(capture)

    for index, frame in enumerate(analysis.frames):
        span = set(frame.offsets)
        if any(off in span for off in analysis.mark.injected_offsets):
            analysis.hit_frames.append(index)
    analysis.effect = _describe_effect(analysis)
    return analysis


def _describe_effect(analysis: WindowAnalysis) -> str:
    """One-line summary of what the corruption did to the traffic."""
    c = analysis.capture
    if c.forced and not c.changed:
        return "forced trigger; stream unchanged"
    if not c.changed:
        return "trigger fired; no lane rewritten (unreachable or identity)"
    if not analysis.mark.matched:
        return "corruption window not found in captured stream"
    if not analysis.hit_frames:
        return "injected symbols fell between frames (framing/control hit)"
    parts: List[str] = []
    for index in analysis.hit_frames:
        frame = analysis.frames[index]
        if frame.error and frame.crc_ok is False:
            verdict = "CRC-8 broken"
        elif frame.error:
            verdict = frame.error
        elif frame.udp is not None and frame.udp.get("checksum_ok") is False:
            verdict = "CRC ok, UDP checksum broken"
        elif frame.udp is not None and frame.udp.get("checksum_ok"):
            verdict = "CRC ok, UDP checksum STILL VALID"
        else:
            verdict = "frame parses clean"
        parts.append(f"frame {index} ({frame.type_name}): {verdict}")
    return "; ".join(parts)


@dataclass
class ExperimentAnalysis:
    """One experiment's markers, windows, and lifecycle summary."""

    index: int
    meta: Dict[str, Any] = field(default_factory=dict)
    windows: List[WindowAnalysis] = field(default_factory=list)
    stage_counts: Dict[str, int] = field(default_factory=dict)
    events: int = 0

    @property
    def name(self) -> str:
        return str(self.meta.get("name", f"experiment-{self.index}"))

    @property
    def fault_class(self) -> str:
        return str(self.meta.get("fault_class", "unknown"))

    @property
    def span_id(self) -> Optional[int]:
        return self.meta.get("span_id")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "fault_class": self.fault_class,
            "span_id": self.span_id,
            "meta": dict(self.meta),
            "events": self.events,
            "stage_counts": dict(self.stage_counts),
            "windows": [w.to_dict() for w in self.windows],
        }


@dataclass
class CaptureAnalysis:
    """The full decode of one capture file."""

    meta: Dict[str, Any]
    experiments: List[ExperimentAnalysis] = field(default_factory=list)
    total_windows: int = 0
    total_events: int = 0
    unknown_records_skipped: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "total_windows": self.total_windows,
            "total_events": self.total_events,
            "unknown_records_skipped": self.unknown_records_skipped,
            "experiments": [e.to_dict() for e in self.experiments],
        }

    # ------------------------------------------------------------------

    def report(self, title: Optional[str] = None) -> CampaignReport:
        """Render the analysis as a text/markdown campaign report."""
        label = self.meta.get("label", "capture")
        report = CampaignReport(title or f"Failure analysis: {label}")
        report.add_note(
            f"{len(self.experiments)} experiment(s), "
            f"{self.total_windows} capture window(s), "
            f"{self.total_events} lifecycle event(s)."
        )
        for experiment in self.experiments:
            lines = [
                f"[{experiment.index}] {experiment.name} "
                f"-> {experiment.fault_class}"
            ]
            if experiment.span_id is not None:
                lines.append(f"  span_id: {experiment.span_id}")
            evidence = experiment.meta.get("evidence") or []
            if evidence:
                lines.append("  evidence: " + ", ".join(evidence))
            if experiment.stage_counts:
                stages = ", ".join(
                    f"{stage}={count}"
                    for stage, count in sorted(experiment.stage_counts.items())
                )
                lines.append(f"  lifecycle: {stages}")
            for number, window in enumerate(experiment.windows):
                c = window.capture
                lines.append(
                    f"  window {number} @ {c.time_ps} ps "
                    f"dir={c.direction or '?'} seg={c.segment_index} "
                    f"lanes={c.lanes_rewritten}: {window.effect}"
                )
                for change in window.mark.changes:
                    lines.append(
                        f"    lane {change['lane']} @ offset "
                        f"{change['offset']}: {change['before']} -> "
                        f"{change['after']}"
                    )
            if not experiment.windows:
                lines.append("  (no capture windows)")
            report.add_note("\n".join(lines))
        return report


def analyze_capture(
    source: Union[str, Path, bytes, CaptureFileData],
) -> CaptureAnalysis:
    """Decode a capture file (or pre-read data) into a full analysis."""
    if isinstance(source, CaptureFileData):
        data = source
    else:
        data = read_capture(source)

    analysis = CaptureAnalysis(
        meta=data.meta,
        total_windows=len(data.captures),
        total_events=len(data.events),
        unknown_records_skipped=data.unknown_records_skipped,
    )
    indices = sorted(
        {m.get("index", 0) for m in data.experiments}
        | {c.experiment_index for c in data.captures}
        | {e.experiment_index for e in data.events}
    )
    for index in indices:
        experiment = ExperimentAnalysis(
            index=index, meta=data.experiment_meta(index) or {}
        )
        for capture in data.captures_for(index):
            experiment.windows.append(analyze_window(capture))
        for event in data.events_for(index):
            experiment.events += 1
            experiment.stage_counts[event.stage] = (
                experiment.stage_counts.get(event.stage, 0) + 1
            )
        analysis.experiments.append(experiment)
    return analysis

"""Packet provenance: correlation ids and the lifecycle flight recorder.

The paper's device stores "the bytes surrounding the fault injection
event" (§3.2) — but a byte window alone does not say *whose* bytes they
were.  The flight recorder threads a monotonically assigned correlation
id through the packet lifecycle:

* **host send** — assigned when a packet enters a host interface's
  transmit queue; the packet's route-invariant content (type field +
  payload) is fingerprinted so the same packet can be recognised at the
  far end even though switches strip route bytes and recompute the CRC;
* **switch hop** — each forwarded frame on each switch port;
* **device transit** — each burst through the fault injector;
* **injector firing** — every trigger event, joined later to its SDRAM
  capture window by the decode pipeline;
* **delivery / drop** — the receiving interface looks the fingerprint
  up again; corrupted packets no longer match and surface as
  provenance-less deliveries or drops, which is itself evidence.

Each event is framed into its ``.rcap`` event record at the hook (one
:class:`~repro.capture.format.EventTemplate` per stage, node, direction
and attr names) and the frame lands in a bounded ring buffer
(``deque(maxlen=…)`` — the same O(1)-eviction discipline as
:class:`repro.sim.trace.TraceRecorder`) with per-(node, direction)
sequence numbers, so ordering within one stream survives even when old
events have been evicted.  The session writes the ring out verbatim;
:attr:`FlightRecorder.events` decodes it on demand.

Everything here only *observes*: no function reads a clock, schedules
an event, or mutates simulation state.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.capture.format import (
    EventTemplate,
    LifecycleEvent,
    decode_event_frame,
)

__all__ = [
    "Stage",
    "LifecycleEvent",
    "ExperimentCapture",
    "FlightRecorder",
    "packet_key",
]

#: Default ring-buffer bound (events, not bytes).
DEFAULT_MAX_EVENTS = 65_536

#: Bound on the in-flight fingerprint -> correlation-id map.
DEFAULT_KEY_LIMIT = 8_192


class Stage:
    """Lifecycle stage names (string constants, stable across versions)."""

    HOST_SEND = "host_send"
    SWITCH_HOP = "switch_hop"
    DEVICE_TRANSIT = "device_transit"
    INJECT = "inject"
    CAPTURE_STORED = "capture_stored"
    CAPTURE_SHED = "capture_shed"
    DELIVER = "deliver"
    DROP = "drop"
    UDP_DELIVER = "udp_deliver"
    UDP_CHECKSUM_DROP = "udp_checksum_drop"

    ALL = (
        HOST_SEND,
        SWITCH_HOP,
        DEVICE_TRANSIT,
        INJECT,
        CAPTURE_STORED,
        CAPTURE_SHED,
        DELIVER,
        DROP,
        UDP_DELIVER,
        UDP_CHECKSUM_DROP,
    )


def packet_key(packet_type: int, payload: bytes) -> str:
    """Route-invariant fingerprint of a Myrinet packet.

    Route bytes are stripped and the CRC-8 recomputed at every switch
    hop, so only the type field and payload survive transit unchanged;
    a packet corrupted in flight deliberately stops matching.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(packet_type.to_bytes(4, "big"))
    digest.update(payload)
    return digest.hexdigest()


@dataclass
class ExperimentCapture:
    """Everything one experiment contributed to the capture session."""

    index: int
    name: str
    seed: Optional[int] = None
    fault_class: str = "none"
    evidence: List[str] = field(default_factory=list)
    span_id: Optional[int] = None
    injections: int = 0
    #: Completed SDRAM capture windows (``repro.core.monitor.CaptureRecord``).
    records: List[Any] = field(default_factory=list)
    sdram: Dict[str, int] = field(default_factory=dict)

    def meta(self) -> Dict[str, Any]:
        """JSON-safe experiment marker for the capture file."""
        return {
            "index": self.index,
            "name": self.name,
            "seed": self.seed,
            "fault_class": self.fault_class,
            "evidence": list(self.evidence),
            "span_id": self.span_id,
            "injections": self.injections,
            "captures": len(self.records),
            "sdram": dict(self.sdram),
        }


class FlightRecorder:
    """Bounded lifecycle event log with correlation-id bookkeeping."""

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        key_limit: int = DEFAULT_KEY_LIMIT,
    ) -> None:
        self.max_events = max(1, max_events)
        #: The retained events as framed ``.rcap`` records, oldest first.
        self.frames: Deque[bytes] = deque(maxlen=self.max_events)
        self.events_dropped = 0
        self.experiments: List[ExperimentCapture] = []
        self._next_corr = 0
        self._key_limit = max(1, key_limit)
        self._corr_by_key: "OrderedDict[str, int]" = OrderedDict()
        #: (node, direction) -> [next sequence number]
        self._lanes: Dict[Tuple[Any, Any], List[int]] = {}
        #: (stage, node, direction, names) -> (template.frame, its lane)
        self._slots: Dict[Tuple[Any, ...], Tuple[Any, List[int]]] = {}

    # ------------------------------------------------------------------
    # correlation ids
    # ------------------------------------------------------------------

    def next_corr_id(self) -> int:
        """Assign the next monotone correlation id."""
        corr = self._next_corr
        self._next_corr += 1
        return corr

    def register_key(self, key: str, corr_id: int) -> None:
        """Remember the fingerprint of an in-flight packet (bounded)."""
        table = self._corr_by_key
        if key in table:
            # A retransmission of identical content: track the newest.
            table.pop(key)
        elif len(table) >= self._key_limit:
            table.popitem(last=False)
        table[key] = corr_id

    def lookup_key(self, key: str) -> Optional[int]:
        """Correlation id for a fingerprint, or None (corrupted/unknown)."""
        return self._corr_by_key.get(key)

    @property
    def corr_ids_assigned(self) -> int:
        return self._next_corr

    # ------------------------------------------------------------------
    # event recording
    # ------------------------------------------------------------------

    def emit(
        self,
        time_ps: int,
        stage: str,
        node: str,
        direction: str,
        corr_id: Optional[int],
        names: Tuple[str, ...],
        *values: Any,
    ) -> None:
        """Frame one lifecycle event into the ring; O(1), bounded.

        ``names`` are the attr names of ``values``, in order (a constant
        tuple at each hook).
        """
        slot = self._slots.get((stage, node, direction, names))
        if slot is None:
            slot = self._bind(stage, node, direction, names)
        frame, lane = slot
        seq = lane[0]
        lane[0] = seq + 1
        frames = self.frames
        if len(frames) == self.max_events:
            self.events_dropped += 1
        frames.append(frame(time_ps, corr_id, seq, len(self.experiments),
                            values))

    def _bind(self, stage: str, node: str, direction: str,
              names: Tuple[str, ...]) -> Tuple[Any, List[int]]:
        lane = self._lanes.setdefault((node, direction), [0])
        template = EventTemplate(stage, node, direction, names)
        slot = (template.frame, lane)
        if template.cacheable:
            self._slots[(stage, node, direction, names)] = slot
        return slot

    def record(
        self,
        time_ps: int,
        stage: str,
        node: str,
        direction: str = "",
        corr_id: Optional[int] = None,
        **attrs: Any,
    ) -> LifecycleEvent:
        """Keyword form of :meth:`emit`; returns the event as recorded."""
        self.emit(time_ps, stage, node, direction, corr_id, tuple(attrs),
                  *attrs.values())
        return decode_event_frame(self.frames[-1])

    # ------------------------------------------------------------------
    # experiment scoping
    # ------------------------------------------------------------------

    @property
    def current_experiment_index(self) -> int:
        """Index assigned to events recorded right now."""
        return len(self.experiments)

    def finish_experiment(self, capture: ExperimentCapture) -> None:
        """Close the current experiment scope; later events get index+1."""
        capture.index = len(self.experiments)
        self.experiments.append(capture)

    # ------------------------------------------------------------------
    # introspection (decodes the ring)
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[LifecycleEvent]:
        """The retained events, decoded from their frames, oldest first."""
        return [decode_event_frame(frame) for frame in self.frames]

    def events_for(self, corr_id: int) -> List[LifecycleEvent]:
        """All retained events of one correlation id, in arrival order."""
        return [e for e in self.events if e.corr_id == corr_id]

    def stage_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.stage] = counts.get(event.stage, 0) + 1
        return counts

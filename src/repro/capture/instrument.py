"""Provenance hooks between the simulation stack and the flight recorder.

Exactly like :mod:`repro.telemetry.instrument`, every function here is
called from instrumented code *after* it checked that
``STATE.recorder is not None`` — one slot load is the entire disabled
cost.  The hooks are duck-typed and import nothing from the simulation
packages, so the hot layers (``myrinet.interface``, ``myrinet.switch``,
``core.device``, ``hostsim.sockets``) can import this module without
cycles.

Everything here only *observes*: no clock reads, no scheduling, no
mutation of simulation state.  The capture determinism test replays an
identical-seed campaign with capture on and off and requires
bit-identical kernel digests.

Correlation granularity is honest about the hardware:

* **hosts** see whole packets, so send/deliver/drop events carry a
  correlation id resolved through the route-invariant fingerprint;
* **switches** are cut-through — they never hold a whole packet — so
  hop events are frame-scoped (input/output port), not corr-scoped;
* the **device** operates on symbol bursts, so transit events count
  symbols, and injector firings carry the full
  :class:`~repro.hw.injector.InjectionEvent` detail.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.capture.provenance import ExperimentCapture, Stage, packet_key
from repro.telemetry.spans import current_span_id
from repro.telemetry.state import STATE

__all__ = [
    "capture_experiment",
    "host_send",
    "switch_hop",
    "device_transit",
    "injection",
    "capture_window",
    "host_frame_drop",
    "packet_deliver",
    "packet_drop",
    "udp_deliver",
    "udp_checksum_drop",
]

# The attr names each hook passes to ``FlightRecorder.emit``, in the
# order of its values.  Sorted, as the JSON blob orders them, so the
# template formats the values as they come.
_HOST_SEND = ("packet_type", "route_len", "wire_length")
_SWITCH_HOP = ("in_port", "out_port")
_DEVICE_TRANSIT = ("symbols_in", "symbols_out")
_INJECT = ("ctl_after", "ctl_before", "forced", "lanes_rewritten",
           "lanes_unreachable", "segment_index", "window_after",
           "window_before")
_CAPTURE_WINDOW = ("size_bytes", "symbols")
_FRAME_DROP = ("frame_len", "reason")
_DELIVER = ("matched", "packet_type")
_PACKET_DROP = ("matched", "packet_type", "reason")
_UDP_DELIVER = ("dst_port", "payload_len")
_UDP_CHECKSUM_DROP = ("payload_len",)


# ---------------------------------------------------------------------------
# host transmit
# ---------------------------------------------------------------------------


def host_send(
    time_ps: int,
    interface_name: str,
    packet_type: int,
    payload: bytes,
    route_len: int,
    wire_length: int,
) -> None:
    """One packet entering a host interface's transmit queue.

    Assigns the packet's correlation id and registers its
    route-invariant fingerprint so the receiving end can recognise it.
    """
    recorder = STATE.recorder
    corr = recorder.next_corr_id()
    recorder.register_key(packet_key(packet_type, payload), corr)
    recorder.emit(time_ps, Stage.HOST_SEND, interface_name, "tx", corr,
                  _HOST_SEND, packet_type, route_len, wire_length)


# ---------------------------------------------------------------------------
# fabric transit
# ---------------------------------------------------------------------------


def switch_hop(
    time_ps: int, switch_name: str, in_port: int, out_port: int
) -> None:
    """One frame forwarded through a cut-through switch (frame-scoped)."""
    STATE.recorder.emit(time_ps, Stage.SWITCH_HOP, switch_name,
                        f"p{in_port}->p{out_port}", None, _SWITCH_HOP,
                        in_port, out_port)


def device_transit(
    time_ps: int,
    device_name: str,
    direction: str,
    symbols_in: int,
    symbols_out: int,
) -> None:
    """One burst through the fault-injector device (burst-scoped)."""
    STATE.recorder.emit(time_ps, Stage.DEVICE_TRANSIT, device_name,
                        direction, None, _DEVICE_TRANSIT, symbols_in,
                        symbols_out)


def injection(
    time_ps: int, device_name: str, direction: str, event: Any
) -> None:
    """One injector trigger firing, with the full event detail."""
    STATE.recorder.emit(
        time_ps, Stage.INJECT, device_name, direction, None, _INJECT,
        event.ctl_after, event.ctl_before, event.forced,
        event.lanes_rewritten, event.lanes_unreachable, event.segment_index,
        event.window_after, event.window_before,
    )


def capture_window(record: Any, stored: bool) -> None:
    """One SDRAM capture window closing (stored or shed by the SDRAM)."""
    STATE.recorder.emit(
        record.time_ps,
        Stage.CAPTURE_STORED if stored else Stage.CAPTURE_SHED,
        "sdram", record.direction, None, _CAPTURE_WINDOW,
        record.size_bytes, len(record.before) + len(record.after),
    )


# ---------------------------------------------------------------------------
# host receive
# ---------------------------------------------------------------------------


def host_frame_drop(
    time_ps: int, interface_name: str, reason: str, frame_len: int
) -> None:
    """A frame dropped before parsing yielded a packet (CRC, consume...).

    No fingerprint is available — the frame did not parse — which is
    itself evidence: a corrupted packet surfaces as a provenance-less
    drop.
    """
    STATE.recorder.emit(time_ps, Stage.DROP, interface_name, "rx", None,
                        _FRAME_DROP, frame_len, reason)


def packet_deliver(
    time_ps: int, interface_name: str, packet_type: int, payload: bytes
) -> None:
    """A parsed data packet accepted by the receiving interface."""
    recorder = STATE.recorder
    corr = recorder.lookup_key(packet_key(packet_type, payload))
    recorder.emit(time_ps, Stage.DELIVER, interface_name, "rx", corr,
                  _DELIVER, corr is not None, packet_type)


def packet_drop(
    time_ps: int,
    interface_name: str,
    reason: str,
    packet_type: int,
    payload: bytes,
) -> None:
    """A parsed packet dropped by the receive dispatch (misaddressed...)."""
    recorder = STATE.recorder
    corr = recorder.lookup_key(packet_key(packet_type, payload))
    recorder.emit(time_ps, Stage.DROP, interface_name, "rx", corr,
                  _PACKET_DROP, corr is not None, packet_type, reason)


# ---------------------------------------------------------------------------
# UDP layer
# ---------------------------------------------------------------------------


def udp_deliver(time_ps: int, node: str, dst_port: int,
                payload_len: int) -> None:
    """A UDP datagram passed to its bound application handler."""
    STATE.recorder.emit(time_ps, Stage.UDP_DELIVER, node, "rx", None,
                        _UDP_DELIVER, dst_port, payload_len)


def udp_checksum_drop(time_ps: int, node: str, payload_len: int) -> None:
    """A UDP datagram dropped by the one's-complement checksum."""
    STATE.recorder.emit(time_ps, Stage.UDP_CHECKSUM_DROP, node, "rx", None,
                        _UDP_CHECKSUM_DROP, payload_len)


# ---------------------------------------------------------------------------
# experiment scope
# ---------------------------------------------------------------------------


def capture_experiment(
    testbed: Any,
    result: Any,
    seed: Optional[int] = None,
) -> ExperimentCapture:
    """Close the current experiment scope on the active flight recorder.

    Called by :meth:`repro.nftape.experiment.Experiment.run` (after
    result collection, inside the ``experiment`` telemetry span) while
    a recorder is installed.  Flushes the device's monitors, collects
    the SDRAM capture windows, classifies the result per §4.4, and
    records the telemetry span id so the offline decoder can join all
    three.
    """
    recorder = STATE.recorder
    # Local import: nftape.experiment imports this module at load time,
    # and classify pulls in nftape.results — resolving it lazily keeps
    # the package import graph acyclic.
    from repro.nftape.classify import classify_result

    classification = classify_result(result)
    capture = ExperimentCapture(
        index=recorder.current_experiment_index,
        name=result.name,
        seed=seed,
        fault_class=classification.fault_class.value,
        evidence=list(classification.evidence),
        span_id=current_span_id(),
        injections=result.injections,
    )
    device = getattr(testbed, "device", None)
    if device is not None:
        for direction in ("R", "L"):
            device.monitor(direction).flush()
        capture.records = [record for _time, record in device.sdram.records]
        capture.sdram = dict(device.sdram.stats)
    recorder.finish_experiment(capture)
    return capture

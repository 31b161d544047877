"""Myrinet host interface (the LANai-style NIC of paper Figure 7).

The interface owns one link to the fabric.  On transmit it serializes
queued packets as data-symbol bursts terminated by a GAP, gated by the
link's STOP/GO flow state; a packet stuck at the head of the queue longer
than the long-period timeout is terminated and consumed (paper §4.3.1).
On receive it models the slack buffer and the finite drain rate into host
memory, reassembles frames, checks the leading-byte MSB rule and the
trailing CRC-8, filters data packets by 48-bit destination address, and
dispatches mapping packets to the MCP.

Every drop reason the paper's campaigns observe has its own counter:
CRC errors, misaddressed packets, unknown packet types, MSB consume
errors, missing routes, transmit timeouts, and slack overflows.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.capture import instrument as _capture
from repro.errors import ConfigurationError, CrcError, ProtocolError
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.flow import LONG_TIMEOUT_PERIODS, PortFlowControl, long_timeout_ps
from repro.myrinet.frames import DEFAULT_MAX_FRAME, FrameAssembler
from repro.myrinet.link import Channel, Link
from repro.myrinet.packet import (
    PACKET_TYPE_DATA,
    PACKET_TYPE_MAPPING,
    ROUTE_MSB,
    MyrinetPacket,
    decode_frame,
    encode_frame,
    encode_route,
)
from repro.myrinet.slack import (
    DEFAULT_CAPACITY,
    DEFAULT_HIGH_WATER,
    DEFAULT_LOW_WATER,
    RateDrainedSlackBuffer,
)
from repro.myrinet.symbols import GAP_VALUE, Burst, Symbol
from repro.sim.kernel import Simulator
from repro.telemetry.state import STATE as _STATE

#: Length of the address header inside a data packet's payload:
#: 6 bytes destination MAC + 6 bytes source MAC.
DATA_HEADER_LEN = 12

#: Default transmit queue depth in packets.
DEFAULT_TX_QUEUE = 256

_GAP_BYTE = bytes([GAP_VALUE])
_BROADCAST_BYTES = MacAddress.broadcast().to_bytes()


class HostInterface:
    """A Myrinet host interface card."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        mcp_address: McpAddress,
        tx_queue_depth: int = DEFAULT_TX_QUEUE,
        rx_drain_factor: float = 1.25,
        slack_capacity: int = DEFAULT_CAPACITY,
        high_water: int = DEFAULT_HIGH_WATER,
        low_water: int = DEFAULT_LOW_WATER,
        max_frame: int = DEFAULT_MAX_FRAME,
        long_timeout_periods: int = LONG_TIMEOUT_PERIODS,
    ) -> None:
        self._sim = sim
        self.name = name
        self.mac = mac
        self._mac_bytes = mac.to_bytes()
        self.mcp_address = mcp_address
        self._tx_queue_depth = tx_queue_depth
        self._rx_drain_factor = rx_drain_factor
        self._slack_capacity = slack_capacity
        self._high_water = high_water
        self._low_water = low_water
        self._max_frame = max_frame
        self._long_timeout_periods = long_timeout_periods

        self._link: Optional[Link] = None
        self._tx_channel: Optional[Channel] = None
        self._flow: Optional[PortFlowControl] = None
        self._rx_slack: Optional[RateDrainedSlackBuffer] = None
        self._assembler = FrameAssembler(
            self._on_frame, self._on_control, max_frame
        )
        self._tx_queue: Deque[Tuple[bytes, int]] = deque()
        self._pump_scheduled = False
        self._pump_label = f"{name}:tx-pump"
        self._resume_label = f"{name}:tx-resume"
        self._wait_label = f"{name}:tx-wait"
        self._next_label = f"{name}:tx-next"

        self.routing_table: Dict[MacAddress, List[int]] = {}
        self._data_handler: Optional[Callable[[MacAddress, bytes], None]] = None
        self._mapping_handler: Optional[Callable[[bytes], None]] = None

        # counters -------------------------------------------------------
        self.packets_sent = 0
        self.packets_received = 0
        self.frames_received = 0
        self.crc_errors = 0
        self.consume_errors = 0
        self.misaddressed_drops = 0
        self.unknown_type_drops = 0
        self.truncated_frames = 0
        self.no_route_drops = 0
        self.tx_timeout_drops = 0
        self.tx_queue_rejects = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_link(self, link: Link, side: str,
                    flow_transport: str = "direct") -> None:
        """Connect this interface to its fabric link."""
        if self._link is not None:
            raise ConfigurationError(f"{self.name} already attached to a link")
        if side == "a":
            self._tx_channel = link.attach_a(self)
        elif side == "b":
            self._tx_channel = link.attach_b(self)
        else:
            raise ConfigurationError(f"link side must be 'a' or 'b', got {side!r}")
        self._link = link
        self._flow = PortFlowControl(
            self._sim,
            self._tx_channel,
            transport=flow_transport,
            remote_tx_state_getter=lambda lnk=link, s=side: lnk.peer_tx_state(s),
        )
        link.register_tx_state(side, self._flow.tx_state)
        self._flow.tx_state.notify_unblocked(self._schedule_pump)
        drain_period = int(link.char_period_ps * self._rx_drain_factor)
        self._rx_slack = RateDrainedSlackBuffer(
            self._sim,
            drain_period_ps=drain_period,
            capacity=self._slack_capacity,
            high_water=self._high_water,
            low_water=self._low_water,
            on_backpressure=self._on_rx_backpressure,
        )

    @property
    def attached(self) -> bool:
        return self._link is not None

    @property
    def flow(self) -> PortFlowControl:
        if self._flow is None:
            raise ConfigurationError(f"{self.name} is not attached to a link")
        return self._flow

    @property
    def rx_slack(self) -> RateDrainedSlackBuffer:
        if self._rx_slack is None:
            raise ConfigurationError(f"{self.name} is not attached to a link")
        return self._rx_slack

    @property
    def long_timeout_ps(self) -> int:
        if self._link is None:
            return long_timeout_ps(12_500, self._long_timeout_periods)
        return long_timeout_ps(self._link.char_period_ps,
                               self._long_timeout_periods)

    def set_data_handler(
        self, handler: Callable[[MacAddress, bytes], None]
    ) -> None:
        """Install the callback for delivered data payloads."""
        self._data_handler = handler

    def set_mapping_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the callback for mapping-packet payloads (the MCP)."""
        self._mapping_handler = handler

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def send_packet(self, packet: MyrinetPacket) -> bool:
        """Queue a fully-routed packet.  Returns False if the queue is full."""
        return self._enqueue(bytes(packet.route), packet.packet_type,
                             packet.payload)

    def send_to(self, dest: MacAddress, payload: bytes) -> bool:
        """Send a data packet to ``dest`` using the installed routing table.

        The payload is prefixed with the 12-byte address header.  Returns
        False when no route is known (the paper's "node removed from the
        network" condition) or when the transmit queue is full.
        """
        route = self.routing_table.get(dest)
        if route is None:
            self.no_route_drops += 1
            return False
        return self._enqueue(
            encode_route(route),
            PACKET_TYPE_DATA,
            dest.to_bytes() + self._mac_bytes + payload,
        )

    def send_mapping(self, route: Sequence[int], payload: bytes) -> bool:
        """Send a mapping packet along an explicit route."""
        return self._enqueue(encode_route(route), PACKET_TYPE_MAPPING,
                             bytes(payload))

    def _enqueue(self, route: bytes, packet_type: int, payload: bytes) -> bool:
        if len(self._tx_queue) >= self._tx_queue_depth:
            self.tx_queue_rejects += 1
            return False
        frame = encode_frame(route, packet_type, payload)
        now = self._sim.now
        self._tx_queue.append((frame, now))
        if _STATE.recorder is not None:
            # Correlation id assigned at transmit-queue entry; the
            # fingerprint lets the far end recognise this packet again.
            _capture.host_send(now, self.name, packet_type, payload,
                               len(route), len(frame))
        self._schedule_pump()
        return True

    @property
    def tx_queue_length(self) -> int:
        return len(self._tx_queue)

    def _schedule_pump(self) -> None:
        if self._pump_scheduled or not self._tx_queue:
            return
        self._pump_scheduled = True
        self._sim.schedule(0, self._pump, label=self._pump_label)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._tx_channel is None or self._flow is None:
            return
        now = self._sim.now
        timeout = self.long_timeout_ps
        while self._tx_queue and now - self._tx_queue[0][1] > timeout:
            # Long-period timeout: terminate the packet and consume the
            # remainder (paper §4.3.1).
            self._tx_queue.popleft()
            self.tx_timeout_drops += 1
        if not self._tx_queue:
            return
        if self._flow.tx_state.blocked():
            resume = self._flow.tx_state.earliest_resume()
            if resume is not None and resume > now:
                self._pump_scheduled = True
                self._sim.schedule_at(resume, self._unpump,
                                      label=self._resume_label)
            # Direct holds wake us through the unblock callback.
            return
        free_at = self._tx_channel.free_at()
        if free_at > now:
            self._pump_scheduled = True
            self._sim.schedule_at(free_at, self._unpump,
                                  label=self._wait_label)
            return
        raw, _enqueued = self._tx_queue.popleft()
        # The packet's data symbols, then the terminating GAP.
        self._tx_channel.send(
            Burst(raw + _GAP_BYTE, b"\x01" * len(raw) + b"\x00")
        )
        self.packets_sent += 1
        if self._tx_queue:
            self._pump_scheduled = True
            self._sim.schedule_at(
                self._tx_channel.busy_until,
                self._unpump,
                label=self._next_label,
            )

    def _unpump(self) -> None:
        self._pump_scheduled = False
        self._pump()

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def on_burst(self, burst: Burst, channel: Channel) -> None:
        """Deliver symbols arriving from the fabric."""
        assert self._rx_slack is not None
        if self._flow is not None:
            # Any received symbol re-arms the short-timeout counter.
            self._flow.tx_state.note_activity()
        length = len(burst.values)
        accepted = self._rx_slack.push_burst(length)
        if accepted < length:
            # Overflow drops the tail of the burst — data and GAP symbols
            # alike, which is how overload corrupts packet framing.
            burst = Burst(burst.values[:accepted], burst.flags[:accepted])
            self.truncated_frames += 1
        self._assembler.push_burst(burst)

    def _on_control(self, symbol: Symbol) -> None:
        assert self._flow is not None
        self._flow.on_control_symbol(symbol)

    def _on_rx_backpressure(self, active: bool) -> None:
        assert self._flow is not None
        self._flow.set_backpressure(active)

    def _on_frame(self, frame: bytes) -> None:
        self.frames_received += 1
        if frame[0] & ROUTE_MSB:
            # Source route not exhausted: "consumed and handled as an
            # error" (paper §4.3.2).
            self.consume_errors += 1
            if _STATE.recorder is not None:
                _capture.host_frame_drop(
                    self._sim.now, self.name, "consume_error", len(frame)
                )
            return
        try:
            _route, packet_type, payload = decode_frame(frame)
        except CrcError:
            self.crc_errors += 1
            if _STATE.recorder is not None:
                # No fingerprint survives a CRC failure — the drop is
                # deliberately provenance-less.
                _capture.host_frame_drop(
                    self._sim.now, self.name, "crc_error", len(frame)
                )
            return
        except ProtocolError:
            self.truncated_frames += 1
            if _STATE.recorder is not None:
                _capture.host_frame_drop(
                    self._sim.now, self.name, "truncated", len(frame)
                )
            return
        self._dispatch(packet_type, payload)

    def _dispatch(self, packet_type: int, payload: bytes) -> None:
        if packet_type == PACKET_TYPE_MAPPING:
            if _STATE.recorder is not None:
                _capture.packet_deliver(
                    self._sim.now, self.name, packet_type, payload
                )
            if self._mapping_handler is not None:
                self._mapping_handler(payload)
            return
        if packet_type != PACKET_TYPE_DATA:
            # Unrecognized packet type: dropped; internal structures such
            # as the routing table are unaffected (paper §4.3.2).
            self.unknown_type_drops += 1
            if _STATE.recorder is not None:
                _capture.packet_drop(
                    self._sim.now, self.name, "unknown_type", packet_type,
                    payload,
                )
            return
        if len(payload) < DATA_HEADER_LEN:
            self.truncated_frames += 1
            if _STATE.recorder is not None:
                _capture.packet_drop(
                    self._sim.now, self.name, "truncated_payload",
                    packet_type, payload,
                )
            return
        dest = payload[:6]
        if dest != self._mac_bytes and dest != _BROADCAST_BYTES:
            # "the node drops incoming packets that are misaddressed"
            # (paper §4.3.3).
            self.misaddressed_drops += 1
            if _STATE.recorder is not None:
                _capture.packet_drop(
                    self._sim.now, self.name, "misaddressed", packet_type,
                    payload,
                )
            return
        self.packets_received += 1
        if _STATE.recorder is not None:
            _capture.packet_deliver(
                self._sim.now, self.name, packet_type, payload
            )
        if self._data_handler is not None:
            self._data_handler(MacAddress.from_bytes(payload[6:12]),
                               payload[DATA_HEADER_LEN:])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Snapshot of every counter, for campaign result collection."""
        return {
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "frames_received": self.frames_received,
            "crc_errors": self.crc_errors,
            "consume_errors": self.consume_errors,
            "misaddressed_drops": self.misaddressed_drops,
            "unknown_type_drops": self.unknown_type_drops,
            "truncated_frames": self.truncated_frames,
            "no_route_drops": self.no_route_drops,
            "tx_timeout_drops": self.tx_timeout_drops,
            "tx_queue_rejects": self.tx_queue_rejects,
            "oversize_frames": self._assembler.oversize_frames,
            "undecodable_controls": self._assembler.undecodable_controls,
        }

"""Vendored pre-batching snapshot of ``repro.myrinet.switch``.

This is the per-symbol switch as it stood before forwarding, slack
buffering and replay became run-batched.  It is kept verbatim (only this
paragraph added) as the differential oracle for
``tests/test_switch_differential.py``, which drives it and the shipped
switch with identical traffic and requires identical per-port output
streams and counters.  Do not modify it to track the shipped code.

Cut-through Myrinet switch.

Each input port runs a small state machine:

* ``idle`` — waiting for the first data symbol of a frame (the route byte);
* ``forwarding`` — the frame has claimed its output port and symbols are
  streamed through as they arrive (cut-through);
* ``waiting`` — the target output is claimed by another input, so the
  frame buffers in the input slack buffer (head-of-line blocking, as in
  real Myrinet);
* ``discarding`` — the remainder of a frame is being consumed (bad route
  byte, or a long-timeout teardown).

Routing is source-routed: the switch consumes the leading route byte,
selects the output port from its low bits, and *incrementally updates*
the trailing CRC-8 so that the CRC contribution of the stripped byte is
removed while any corruption syndrome already present in the packet is
preserved (a switch must not launder upstream corruption into a valid
CRC — the paper's §4.3.3 destination-corruption experiment depends on the
bad CRC surviving to the destination).

A claimed path that never sees its terminating GAP (the paper's lost-GAP
scenario, §4.3.1) is torn down by the long-period timeout: the switch
emits a GAP downstream to terminate the partial packet, discards the rest
of the inbound frame, and releases the output port to any waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.capture import instrument as _capture
from repro.capture.state import CAPTURE as _CAPTURE
from repro.errors import ConfigurationError
from repro.sim.kernel import Event, Simulator
from repro.myrinet.crc8 import _TABLE as _FULL_CRC_TABLE
from repro.myrinet.crc8 import crc8_update
from repro.myrinet.flow import (
    LONG_TIMEOUT_PERIODS,
    PortFlowControl,
    long_timeout_ps,
)
from repro.myrinet.link import Channel, Link
from repro.myrinet.packet import ROUTE_PORT_MASK
from repro.myrinet.slack import DEFAULT_CAPACITY, DEFAULT_HIGH_WATER, DEFAULT_LOW_WATER
from repro.myrinet.symbols import (
    GAP,
    IDLE,
    Symbol,
    data_symbol,
    decode_control,
)

# Folding a zero byte into a running CRC-8 is a plain table lookup.
_CRC_TABLE = _FULL_CRC_TABLE

#: Largest symbol burst an output port puts on the wire in one piece.
FLUSH_QUANTUM = 128

_MODE_IDLE = "idle"
_MODE_FORWARDING = "forwarding"
_MODE_WAITING = "waiting"
_MODE_DRAINING = "draining"
_MODE_DISCARDING = "discarding"


class _Port:
    """Per-port state: input FSM, output claim/outbox, and flow control."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.link: Optional[Link] = None
        self.tx_channel: Optional[Channel] = None
        self.flow: Optional[PortFlowControl] = None
        # --- input (RX) side -------------------------------------------
        self.mode = _MODE_IDLE
        self.claim_output: Optional[int] = None
        self.claim_id = 0
        self.held: Optional[int] = None
        self.contrib = 0
        self.buffer: Deque[Symbol] = deque()
        self.wait_output: Optional[int] = None
        self.pending_route = 0
        self.timeout_event: Optional[Event] = None
        self.pressured = False
        # --- output (TX) side ------------------------------------------
        self.claimed_by: Optional[int] = None
        self.waiters: Deque[int] = deque()
        self.outbox: List[Symbol] = []
        self.retry_event: Optional[Event] = None
        # --- counters ---------------------------------------------------
        self.frames_forwarded = 0
        self.routing_errors = 0
        self.long_timeouts = 0
        self.wait_timeouts = 0
        self.symbols_dropped = 0
        self.outbox_drops = 0
        self.waitbuf_drops = 0
        self.discard_drops = 0
        self.undecodable_controls = 0

    @property
    def attached(self) -> bool:
        return self.link is not None

    def occupancy(self, ports: List["_Port"]) -> int:
        """Symbols held on behalf of this input (buffer + claimed outbox).

        A draining claim's outbox still counts against its input: the
        path stays occupied — and the upstream sender stays throttled —
        until the frame tail has actually left on the wire (wormhole
        semantics; the mechanism behind the paper's path-blocking
        results).
        """
        total = len(self.buffer)
        if (
            self.mode in (_MODE_FORWARDING, _MODE_DRAINING)
            and self.claim_output is not None
        ):
            total += len(ports[self.claim_output].outbox)
        return total


class MyrinetSwitch:
    """An N-port cut-through Myrinet crossbar switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        num_ports: int = 8,
        slack_capacity: int = DEFAULT_CAPACITY,
        high_water: int = DEFAULT_HIGH_WATER,
        low_water: int = DEFAULT_LOW_WATER,
        outbox_capacity: Optional[int] = None,
        long_timeout_periods: int = LONG_TIMEOUT_PERIODS,
    ) -> None:
        if num_ports < 2:
            raise ConfigurationError("a switch needs at least 2 ports")
        if num_ports > ROUTE_PORT_MASK + 1:
            raise ConfigurationError(
                f"route bytes can address at most {ROUTE_PORT_MASK + 1} ports"
            )
        self._sim = sim
        self.name = name
        self.num_ports = num_ports
        self._slack_capacity = slack_capacity
        self._high_water = high_water
        self._low_water = low_water
        # An output's outbox can legitimately hold a granted waiter's
        # whole replayed slack on top of an earlier claim's backlog, so
        # it is sized above the per-input slack (backpressure, driven by
        # the claiming input's occupancy, bounds it long before this).
        self._outbox_capacity = (
            outbox_capacity if outbox_capacity is not None
            else 4 * slack_capacity
        )
        self._long_timeout_periods = long_timeout_periods
        self._ports = [_Port(i) for i in range(num_ports)]
        self._channel_to_port: Dict[int, int] = {}
        self._grant_queue: Deque[int] = deque()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_link(self, port: int, link: Link, side: str,
                    flow_transport: str = "direct") -> None:
        """Connect ``link`` (its ``side`` endpoint: 'a' or 'b') to ``port``.

        ``flow_transport`` selects how this port signals backpressure to
        the remote sender (see :mod:`repro.myrinet.flow`).
        """
        state = self._ports[port]
        if state.attached:
            raise ConfigurationError(f"{self.name} port {port} already attached")
        if side == "a":
            tx = link.attach_a(self)
        elif side == "b":
            tx = link.attach_b(self)
        else:
            raise ConfigurationError(f"link side must be 'a' or 'b', got {side!r}")
        state.link = link
        state.tx_channel = tx
        state.flow = PortFlowControl(
            self._sim,
            tx,
            transport=flow_transport,
            remote_tx_state_getter=lambda lnk=link, s=side: lnk.peer_tx_state(s),
        )
        link.register_tx_state(side, state.flow.tx_state)
        state.flow.tx_state.notify_unblocked(
            lambda p=port: self._flush_output(p)
        )
        self._channel_to_port[id(link.a_to_b if side == "b" else link.b_to_a)] = port

    def port_flow(self, port: int) -> PortFlowControl:
        """The flow-control endpoint of ``port`` (for tests/monitoring)."""
        flow = self._ports[port].flow
        if flow is None:
            raise ConfigurationError(f"{self.name} port {port} not attached")
        return flow

    @property
    def long_timeout_ps(self) -> int:
        char = self._char_period()
        return long_timeout_ps(char, self._long_timeout_periods)

    def _char_period(self) -> int:
        for port in self._ports:
            if port.link is not None:
                return port.link.char_period_ps
        return 12_500

    # ------------------------------------------------------------------
    # symbol reception
    # ------------------------------------------------------------------

    def on_burst(self, burst: List[Symbol], channel: Channel) -> None:
        """Deliver a burst arriving on one of our input ports."""
        port = self._channel_to_port.get(id(channel))
        if port is None:
            raise ConfigurationError(
                f"{self.name} received burst on unknown channel {channel.name}"
            )
        touched: set = set()
        state = self._ports[port]
        if state.flow is not None:
            # Any received symbol re-arms the short-timeout counter.
            state.flow.tx_state.note_activity()
        data_cache = Symbol._data_cache
        table = _CRC_TABLE
        index = 0
        length = len(burst)
        while index < length:
            symbol = burst[index]
            # Fast path: a run of data symbols streaming through an
            # established claim — the dominant case under load.
            if symbol.is_data and state.mode == _MODE_FORWARDING:
                out = state.claim_output
                outbox = self._ports[out].outbox
                held = state.held
                contrib = state.contrib
                dropped = 0
                outbox_cap = self._outbox_capacity
                while index < length:
                    symbol = burst[index]
                    if not symbol.is_data:
                        break
                    if held is not None:
                        if len(outbox) >= outbox_cap:
                            dropped += 1
                        else:
                            outbox.append(data_cache[held])
                        contrib = table[contrib]
                    held = symbol.value
                    index += 1
                state.held = held
                state.contrib = contrib
                state.symbols_dropped += dropped
                state.outbox_drops += dropped
                touched.add(out)
                continue
            self._process_symbol(port, symbol, touched)
            index += 1
        self._drain_grants(touched)
        for out in sorted(touched):
            self._flush_output(out)
        self._update_backpressure(port)

    # ------------------------------------------------------------------
    # per-symbol state machine
    # ------------------------------------------------------------------

    def _process_symbol(self, i: int, symbol: Symbol, touched: set) -> None:
        state = self._ports[i]
        if not symbol.is_data:
            decoded = decode_control(symbol.value)
            if decoded is None:
                state.undecodable_controls += 1
                return
            if decoded is GAP:
                self._on_gap(i, touched)
            elif decoded is IDLE:
                return
            else:
                assert state.flow is not None
                state.flow.on_control_symbol(decoded)
            return

        if state.mode == _MODE_IDLE:
            self._on_route_byte(i, symbol.value, touched)
        elif state.mode == _MODE_FORWARDING:
            self._forward_data(i, symbol.value, touched)
        elif state.mode in (_MODE_WAITING, _MODE_DRAINING):
            self._buffer_symbol(i, symbol)
        else:  # discarding
            state.symbols_dropped += 1
            state.discard_drops += 1

    def _on_route_byte(self, i: int, byte: int, touched: set) -> None:
        state = self._ports[i]
        out = byte & ROUTE_PORT_MASK
        if out >= self.num_ports or out == i or not self._ports[out].attached:
            state.routing_errors += 1
            state.mode = _MODE_DISCARDING
            return
        state.pending_route = byte
        output = self._ports[out]
        if output.claimed_by is None:
            self._grant(i, out)
        else:
            state.mode = _MODE_WAITING
            state.wait_output = out
            output.waiters.append(i)
            self._arm_timeout(i, waiting=True)

    def _grant(self, i: int, out: int) -> None:
        """Give input ``i`` the claim on output ``out``."""
        state = self._ports[i]
        output = self._ports[out]
        output.claimed_by = i
        state.mode = _MODE_FORWARDING
        state.claim_output = out
        state.wait_output = None
        state.held = None
        state.contrib = crc8_update(0, state.pending_route)
        state.claim_id += 1
        self._arm_timeout(i, waiting=False)

    def _forward_data(self, i: int, byte: int, touched: set) -> None:
        state = self._ports[i]
        out = state.claim_output
        assert out is not None
        output = self._ports[out]
        if state.held is not None:
            if len(output.outbox) >= self._outbox_capacity:
                state.symbols_dropped += 1
                state.outbox_drops += 1
            else:
                output.outbox.append(data_symbol(state.held))
            state.contrib = crc8_update(state.contrib, 0)
            touched.add(out)
        state.held = byte

    def _buffer_symbol(self, i: int, symbol: Symbol) -> None:
        state = self._ports[i]
        if len(state.buffer) >= self._slack_capacity:
            state.symbols_dropped += 1
            state.waitbuf_drops += 1
            return
        state.buffer.append(symbol)

    def _on_gap(self, i: int, touched: set) -> None:
        state = self._ports[i]
        if state.mode == _MODE_FORWARDING:
            out = state.claim_output
            assert out is not None
            output = self._ports[out]
            if state.held is not None:
                # The held-back byte is the frame's CRC: patch out the
                # contribution of the stripped route byte.
                output.outbox.append(data_symbol(state.held ^ state.contrib))
            output.outbox.append(GAP)
            touched.add(out)
            state.frames_forwarded += 1
            if _CAPTURE.active:
                # Cut-through: the switch never holds a whole packet, so
                # the hop event is frame-scoped (ports), not corr-scoped.
                _capture.switch_hop(self._sim.now, self.name, i, out)
            state.held = None
            # The path stays claimed until the tail drains onto the wire
            # (wormhole semantics); new arrivals buffer meanwhile.
            state.mode = _MODE_DRAINING
            if not output.outbox:
                self._release_claim(i)
        elif state.mode in (_MODE_WAITING, _MODE_DRAINING):
            self._buffer_symbol(i, GAP)
        elif state.mode == _MODE_DISCARDING:
            state.mode = _MODE_IDLE
        # idle: inter-packet gap, nothing to do

    # ------------------------------------------------------------------
    # claims, grants, timeouts
    # ------------------------------------------------------------------

    def _release_claim(self, i: int) -> None:
        state = self._ports[i]
        out = state.claim_output
        state.mode = _MODE_IDLE
        state.claim_output = None
        state.held = None
        self._cancel_timeout(i)
        if out is not None:
            self._ports[out].claimed_by = None
            if self._ports[out].waiters:
                self._grant_queue.append(out)

    def _drain_grants(self, touched: set) -> None:
        while self._grant_queue:
            out = self._grant_queue.popleft()
            output = self._ports[out]
            if output.claimed_by is not None:
                continue
            while output.waiters:
                j = output.waiters.popleft()
                waiter = self._ports[j]
                if waiter.mode == _MODE_WAITING and waiter.wait_output == out:
                    self._cancel_timeout(j)
                    self._grant(j, out)
                    self._replay_buffer(j, touched)
                    break

    def _replay_buffer(self, j: int, touched: set) -> None:
        """Push a formerly-waiting input's buffered symbols through the FSM."""
        state = self._ports[j]
        while state.buffer and state.mode not in (_MODE_WAITING,
                                                  _MODE_DRAINING):
            symbol = state.buffer.popleft()
            self._process_symbol(j, symbol, touched)
        self._update_backpressure(j)

    def _arm_timeout(self, i: int, waiting: bool) -> None:
        state = self._ports[i]
        self._cancel_timeout(i)
        state.timeout_event = self._sim.schedule(
            self.long_timeout_ps,
            lambda: self._on_long_timeout(i, waiting),
            label=f"{self.name}:p{i}:long-timeout",
        )

    def _cancel_timeout(self, i: int) -> None:
        state = self._ports[i]
        if state.timeout_event is not None:
            state.timeout_event.cancel()
            state.timeout_event = None

    def _on_long_timeout(self, i: int, waiting: bool) -> None:
        state = self._ports[i]
        state.timeout_event = None
        touched: set = set()
        if waiting:
            if state.mode != _MODE_WAITING:
                return
            state.wait_timeouts += 1
            out = state.wait_output
            if out is not None and i in self._ports[out].waiters:
                self._ports[out].waiters.remove(i)
            self._drop_buffered_head_frame(i, touched)
        else:
            if state.mode == _MODE_DRAINING:
                # The tail never drained (downstream stopped for the
                # whole long-timeout period): abandon it.
                state.long_timeouts += 1
                out = state.claim_output
                assert out is not None
                output = self._ports[out]
                state.symbols_dropped += len(output.outbox)
                state.outbox_drops += len(output.outbox)
                output.outbox = []
                self._release_claim(i)
                self._replay_buffer(i, touched)
            elif state.mode == _MODE_FORWARDING:
                state.long_timeouts += 1
                out = state.claim_output
                assert out is not None
                # Terminate the partial packet downstream, free the path.
                self._ports[out].outbox.append(GAP)
                touched.add(out)
                self._release_claim(i)
                state.mode = _MODE_DISCARDING
            else:
                return
        self._drain_grants(touched)
        for out_port in sorted(touched):
            self._flush_output(out_port)
        self._update_backpressure(i)

    def _drop_buffered_head_frame(self, i: int, touched: set) -> None:
        """Drop the head frame of a timed-out waiting input, then resume."""
        state = self._ports[i]
        state.wait_output = None
        dropped_gap = False
        while state.buffer:
            symbol = state.buffer.popleft()
            state.symbols_dropped += 1
            if not symbol.is_data and decode_control(symbol.value) is GAP:
                dropped_gap = True
                break
        if dropped_gap:
            state.mode = _MODE_IDLE
            self._replay_buffer(i, touched)
        else:
            # Frame tail has not arrived yet: consume it as it comes.
            state.mode = _MODE_DISCARDING

    # ------------------------------------------------------------------
    # output flushing and backpressure
    # ------------------------------------------------------------------

    def _flush_output(self, out: int) -> None:
        output = self._ports[out]
        if not output.outbox or output.tx_channel is None:
            return
        assert output.flow is not None
        now = self._sim.now
        if output.flow.tx_state.blocked():
            # Downstream STOP: hold symbols in the outbox (slack) and
            # retry when the state decays; direct holds wake us through
            # the unblock callback installed at attach time.
            resume = output.flow.tx_state.earliest_resume()
            if resume is not None:
                self._schedule_retry(out, max(resume, now), "flush-retry")
            return
        free_at = output.tx_channel.free_at()
        if free_at > now:
            # Wire still serializing the previous burst: keep the symbols
            # in the outbox so occupancy (and hence backpressure) reflects
            # the congestion, instead of hiding it inside the channel.
            self._schedule_retry(out, free_at, "flush-wait")
            return
        # Bound each wire burst so a receiver's STOP can take effect
        # between quanta — flushing an arbitrarily deep outbox in one
        # delivery would overrun the remote slack buffer before flow
        # control had any chance to act.
        if len(output.outbox) > FLUSH_QUANTUM:
            burst = output.outbox[:FLUSH_QUANTUM]
            output.outbox = output.outbox[FLUSH_QUANTUM:]
            output.tx_channel.send(burst)
            self._schedule_retry(out, output.tx_channel.busy_until,
                                 "flush-quantum")
        else:
            burst = output.outbox
            output.outbox = []
            output.tx_channel.send(burst)
        holder = output.claimed_by
        if holder is not None:
            self._update_backpressure(holder)
            holder_state = self._ports[holder]
            if (
                not output.outbox
                and holder_state.mode == _MODE_DRAINING
                and holder_state.claim_output == out
            ):
                touched: set = set()
                self._release_claim(holder)
                # Waiters queued on this output go first; the released
                # input replays its own backlog afterwards.
                self._drain_grants(touched)
                self._replay_buffer(holder, touched)
                self._drain_grants(touched)
                for other in sorted(touched):
                    self._flush_output(other)

    def _schedule_retry(self, out: int, at: int, label: str) -> None:
        """Arm the single retry slot for an output port.

        Exactly one live retry event may exist per port: replacing a
        boolean flag with the Event itself prevents same-timestamp event
        cohorts from self-perpetuating (each firing would clear a flag
        and reschedule, keeping every duplicate alive forever).
        """
        output = self._ports[out]
        if output.retry_event is not None and not output.retry_event.cancelled:
            return
        output.retry_event = self._sim.schedule_at(
            at,
            lambda: self._retry_output(out),
            label=f"{self.name}:p{out}:{label}",
        )

    def _retry_output(self, out: int) -> None:
        self._ports[out].retry_event = None
        self._flush_output(out)

    def _update_backpressure(self, i: int) -> None:
        state = self._ports[i]
        if state.flow is None:
            return
        occupancy = state.occupancy(self._ports)
        if not state.pressured and occupancy >= self._high_water:
            state.pressured = True
            state.flow.set_backpressure(True)
        elif state.pressured and occupancy <= self._low_water:
            state.pressured = False
            state.flow.set_backpressure(False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        """Aggregate counters across all ports."""
        totals = {
            "frames_forwarded": 0,
            "routing_errors": 0,
            "long_timeouts": 0,
            "wait_timeouts": 0,
            "symbols_dropped": 0,
            "undecodable_controls": 0,
        }
        for port in self._ports:
            totals["frames_forwarded"] += port.frames_forwarded
            totals["routing_errors"] += port.routing_errors
            totals["long_timeouts"] += port.long_timeouts
            totals["wait_timeouts"] += port.wait_timeouts
            totals["symbols_dropped"] += port.symbols_dropped
            totals["undecodable_controls"] += port.undecodable_controls
        return totals

    def port_stats(self, port: int) -> Dict[str, int]:
        """Counters for a single port."""
        state = self._ports[port]
        return {
            "frames_forwarded": state.frames_forwarded,
            "routing_errors": state.routing_errors,
            "long_timeouts": state.long_timeouts,
            "wait_timeouts": state.wait_timeouts,
            "symbols_dropped": state.symbols_dropped,
            "outbox_drops": state.outbox_drops,
            "waitbuf_drops": state.waitbuf_drops,
            "discard_drops": state.discard_drops,
            "undecodable_controls": state.undecodable_controls,
        }

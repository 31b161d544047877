"""The socket layer binding UDP to a Myrinet host interface.

:class:`HostStack` models the per-node software stack: protocol
encapsulation, receive dispatch, and — because the paper's Table 2
measurements are dominated by it — host processing time.  Sends and
deliveries each pay a configurable overhead plus random jitter, and
application-visible timestamps are quantized to a timer tick with a
per-host phase, reproducing the paper's observation that the injector's
sub-microsecond latency "is getting lost in the granularity caused by
the computer's interrupt handler".
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional

from repro.capture import instrument as _capture
from repro.capture.state import CAPTURE as _CAPTURE
from repro.errors import ChecksumError, ProtocolError
from repro.hostsim.ip import HEADER_LEN as IP_HEADER_LEN
from repro.hostsim.ip import (
    PROTO_UDP,
    IpAddress,
    address_for_mac,
    decode_ip,
    encode_ip,
)
from repro.hostsim.udp import decode_udp, encode_udp
from repro.myrinet.addresses import MacAddress
from repro.myrinet.interface import HostInterface
from repro.sim.kernel import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import US

#: Receive-path handler: (src_mac, src_ip, src_port, payload).
UdpHandler = Callable[[MacAddress, IpAddress, int, bytes], None]

#: Default host processing overheads (tuned in the Table 2 benchmark to
#: the paper's absolute numbers; defaults keep unit tests fast).
DEFAULT_SEND_OVERHEAD_PS = 20 * US
DEFAULT_RECV_OVERHEAD_PS = 20 * US
DEFAULT_JITTER_PS = 2 * US
DEFAULT_TIMER_TICK_PS = 1 * US


class HostStack:
    """IP-lite/UDP over one host interface."""

    def __init__(
        self,
        sim: Simulator,
        interface: HostInterface,
        rng: Optional[DeterministicRng] = None,
        send_overhead_ps: int = DEFAULT_SEND_OVERHEAD_PS,
        recv_overhead_ps: int = DEFAULT_RECV_OVERHEAD_PS,
        jitter_ps: int = DEFAULT_JITTER_PS,
        timer_tick_ps: int = DEFAULT_TIMER_TICK_PS,
        timer_phase_ps: Optional[int] = None,
        overhead_drift_ps: int = 0,
    ) -> None:
        self._sim = sim
        self.interface = interface
        self._rng = rng or DeterministicRng(interface.mac.value & 0xFFFF)
        drift = (
            self._rng.randint(-overhead_drift_ps, overhead_drift_ps)
            if overhead_drift_ps > 0 else 0
        )
        # A per-run systematic offset modelling machine state differences
        # (cache/daemon activity) between measurement runs — the paper's
        # Table 2 spread is dominated by such run-to-run effects.
        self.overhead_drift_ps = drift
        self.send_overhead_ps = send_overhead_ps + drift
        self.recv_overhead_ps = recv_overhead_ps
        self.jitter_ps = jitter_ps
        self.timer_tick_ps = max(1, timer_tick_ps)
        self.timer_phase_ps = (
            self._rng.randint(0, self.timer_tick_ps - 1)
            if timer_phase_ps is None
            else timer_phase_ps
        )
        self.ip = IpAddress.for_mac(interface.mac)
        self._ip_bytes = self.ip.to_bytes()
        self._send_label = f"{interface.name}:udp-send"
        self._recv_label = f"{interface.name}:udp-recv"
        self._bindings: Dict[int, UdpHandler] = {}
        interface.set_data_handler(self._on_data)

        self.udp_sent = 0
        self.udp_sent_by_port: Counter = Counter()
        self.udp_delivered = 0
        self.checksum_drops = 0
        self.parse_drops = 0
        self.unbound_drops = 0
        self.send_failures = 0
        self.send_failures_by_port: Counter = Counter()

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def bind(self, port: int, handler: UdpHandler) -> None:
        """Register the receive handler for a UDP port."""
        self._bindings[port] = handler

    def unbind(self, port: int) -> None:
        self._bindings.pop(port, None)

    def send_udp(
        self,
        dest_mac: MacAddress,
        dst_port: int,
        payload: bytes,
        src_port: int = 0,
    ) -> None:
        """Send one UDP datagram after the host send overhead."""
        delay = self.send_overhead_ps + self._jitter()
        self._sim.schedule(
            delay,
            lambda: self._transmit(dest_mac, dst_port, payload, src_port),
            label=self._send_label,
        )

    def timestamp(self) -> int:
        """An application-visible clock reading: quantized to the timer
        tick with this host's phase, as gettimeofday-through-interrupts
        behaves."""
        tick = self.timer_tick_ps
        return ((self._sim.now - self.timer_phase_ps) // tick) * tick \
            + self.timer_phase_ps

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _jitter(self) -> int:
        if self.jitter_ps <= 0:
            return 0
        return self._rng.randint(0, self.jitter_ps)

    def _transmit(self, dest_mac: MacAddress, dst_port: int,
                  payload: bytes, src_port: int) -> None:
        dst_ip = address_for_mac(dest_mac)
        udp = encode_udp(src_port, dst_port, payload, self._ip_bytes, dst_ip)
        header = encode_ip(
            self._ip_bytes, dst_ip, PROTO_UDP, IP_HEADER_LEN + len(udp)
        )
        if self.interface.send_to(dest_mac, header + udp):
            self.udp_sent += 1
            self.udp_sent_by_port[dst_port] += 1
        else:
            self.send_failures += 1
            self.send_failures_by_port[dst_port] += 1

    def _on_data(self, src_mac: MacAddress, payload: bytes) -> None:
        delay = self.recv_overhead_ps + self._jitter()
        self._sim.schedule(
            delay,
            lambda: self._deliver(src_mac, payload),
            label=self._recv_label,
        )

    def _deliver(self, src_mac: MacAddress, payload: bytes) -> None:
        try:
            src_ip, dst_ip, protocol, _total_length = decode_ip(payload)
        except ProtocolError:
            self.parse_drops += 1
            return
        if protocol != PROTO_UDP:
            self.parse_drops += 1
            return
        raw_udp = payload[IP_HEADER_LEN:]
        try:
            src_port, dst_port, data = decode_udp(
                raw_udp, src_ip, dst_ip, protocol
            )
        except ChecksumError:
            # "When the corruption did not satisfy the checksum, the
            # packets were dropped." (paper §4.3.4)
            self.checksum_drops += 1
            if _CAPTURE.active:
                _capture.udp_checksum_drop(
                    self._sim.now, self.interface.name, len(raw_udp)
                )
            return
        except ProtocolError:
            self.parse_drops += 1
            return
        handler = self._bindings.get(dst_port)
        if handler is None:
            self.unbound_drops += 1
            return
        self.udp_delivered += 1
        if _CAPTURE.active:
            _capture.udp_deliver(
                self._sim.now, self.interface.name, dst_port, len(data)
            )
        handler(src_mac, IpAddress.from_bytes(src_ip), src_port, data)

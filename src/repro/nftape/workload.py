"""Campaign workloads (paper §4.2).

The paper loaded the test-bed with "a simple UDP packet generation
program, running concurrently with the standard Unix ping program with
the flood option".  :class:`AllPairsWorkload` reproduces that: every node
runs a message-sending program toward every other node, optionally with
a flood ping between one pair, and every node runs a validating sink.

The sink validates more than arrival: each generated payload embeds the
intended destination address, a sequence number, and a deterministic
filler, so the workload can distinguish the paper's *passive* outcomes
(messages lost) from *active* ones (a message delivered to the wrong
node, or delivered with corrupted content) — the §4.4 dichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.hostsim.apps import EchoResponder, FloodPing
from repro.hostsim.ip import IpAddress
from repro.hostsim.sockets import HostStack
from repro.myrinet.addresses import MacAddress
from repro.myrinet.network import MyrinetNetwork
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import US

#: UDP port the validating sinks listen on.
WORKLOAD_PORT = 5001
#: Payload prefix layout: 6 bytes dest MAC + 4 bytes sequence number.
_HEADER_LEN = 10


@dataclass
class WorkloadConfig:
    """Parameters of the all-pairs load."""

    payload_size: int = 64
    send_interval_ps: int = 500 * US
    flood_ping: bool = True
    forbidden_bytes: Set[int] = field(default_factory=set)
    stack_kwargs: Dict[str, int] = field(default_factory=dict)
    #: Heavy-tail bursts: each tick sends a Pareto-distributed number of
    #: messages, capped at ``burst_max``.  The default of 1 keeps the
    #: classic paced load (and draws nothing from the rng, so existing
    #: campaigns are bit-identical).
    burst_max: int = 1
    #: Pareto shape for burst sizes; smaller means heavier tails.
    burst_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.burst_max < 1:
            raise ConfigurationError("burst_max must be >= 1")
        if self.burst_alpha <= 0:
            raise ConfigurationError("burst_alpha must be positive")


def _filler_byte(seq: int, index: int, alphabet: List[int]) -> int:
    """Deterministic filler both sender and sink can compute."""
    return alphabet[(seq * 31 + index * 7) % len(alphabet)]


class _FillerCache:
    """Filler bytes of one payload length, computed once per alphabet offset.

    The filler depends on ``seq`` only through the offset
    ``(seq * 31) % len(alphabet)``.  A workload builds one cache and
    shares it between its senders and its validating sinks.
    """

    def __init__(self, alphabet: List[int], length: int) -> None:
        self._alphabet = alphabet
        self._length = length
        self._by_offset: Dict[int, bytes] = {}

    def __call__(self, seq: int) -> bytes:
        offset = (seq * 31) % len(self._alphabet)
        filler = self._by_offset.get(offset)
        if filler is None:
            filler = bytes(
                _filler_byte(seq, index, self._alphabet)
                for index in range(self._length)
            )
            self._by_offset[offset] = filler
        return filler

    def matches(self, seq: int, filler: bytes) -> bool:
        """True if ``filler`` is a prefix of the filler of ``seq``."""
        if len(filler) <= self._length:
            return filler == self(seq)[:len(filler)]
        # Longer than any generated payload: the per-byte rule.
        return all(
            byte == _filler_byte(seq, index, self._alphabet)
            for index, byte in enumerate(filler)
        )


class _ValidatingSink:
    """Counts received messages and checks them for active-fault evidence."""

    def __init__(self, stack: HostStack, filler: _FillerCache) -> None:
        self._stack = stack
        self._filler = filler
        self.received = 0
        self.misdeliveries = 0
        self.corrupted = 0
        stack.bind(WORKLOAD_PORT, self._on_message)

    def _on_message(self, src_mac: MacAddress, src_ip: IpAddress,
                    src_port: int, payload: bytes) -> None:
        self.received += 1
        if len(payload) < _HEADER_LEN:
            self.corrupted += 1
            return
        intended = MacAddress.from_bytes(payload[:6])
        if intended != self._stack.interface.mac:
            # "the successful receipt of a message addressed to someone
            # else" — an active fault (paper §4.4).
            self.misdeliveries += 1
            return
        seq = int.from_bytes(payload[6:10], "big")
        if not self._filler.matches(seq, payload[_HEADER_LEN:]):
            self.corrupted += 1


class _PairSender:
    """One node's paced message program toward one destination."""

    def __init__(
        self,
        stack: HostStack,
        dest: MacAddress,
        filler: _FillerCache,
        start_seq: int,
    ) -> None:
        self._stack = stack
        self._dest = dest
        self._filler = filler
        self.seq = start_seq
        self.sent = 0

    def send_one(self) -> None:
        self.seq += 1
        payload = (
            self._dest.to_bytes()
            + self.seq.to_bytes(4, "big")
            + self._filler(self.seq)
        )
        self._stack.send_udp(self._dest, WORKLOAD_PORT, payload)
        self.sent += 1


class AllPairsWorkload:
    """Every node sends to every other node; sinks validate arrivals."""

    def __init__(
        self,
        network: MyrinetNetwork,
        config: Optional[WorkloadConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self._network = network
        self.config = config or WorkloadConfig()
        self._rng = rng or network.rng.fork("workload")
        self._alphabet = [
            b for b in range(0x20, 0x7F)
            if b not in self.config.forbidden_bytes
        ]
        if not self._alphabet:
            raise ConfigurationError(
                "forbidden_bytes excludes every printable payload byte"
            )
        self.stacks: Dict[str, HostStack] = {}
        self.sinks: Dict[str, _ValidatingSink] = {}
        self._senders: List[_PairSender] = []
        self._burst_rng = (
            self._rng.fork("burst") if self.config.burst_max > 1 else None
        )
        self._running = False
        self.flood: Optional[FloodPing] = None
        self._echo: Optional[EchoResponder] = None

        filler = _FillerCache(
            self._alphabet, max(0, self.config.payload_size - _HEADER_LEN)
        )
        names = sorted(network.hosts)
        for name in names:
            stack = HostStack(
                network.sim,
                network.hosts[name].interface,
                rng=self._rng.fork(f"stack:{name}"),
                **self.config.stack_kwargs,
            )
            self.stacks[name] = stack
            self.sinks[name] = _ValidatingSink(stack, filler)
        seq = 0
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                seq += 1
                self._senders.append(
                    _PairSender(
                        self.stacks[src],
                        network.hosts[dst].interface.mac,
                        filler,
                        start_seq=seq * 1_000_000,
                    )
                )
        if self.config.flood_ping and len(names) >= 2:
            self._echo = EchoResponder(self.stacks[names[-1]])
            self.flood = FloodPing(
                network.sim,
                self.stacks[names[0]],
                network.hosts[names[-1]].interface.mac,
            )

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the load (senders are staggered within one interval)."""
        self._running = True
        interval = self.config.send_interval_ps
        for index, sender in enumerate(self._senders):
            offset = (index * interval) // max(1, len(self._senders))
            self._network.sim.schedule(
                offset,
                lambda s=sender: self._tick(s),
                label="workload-send",
            )
        if self.flood is not None:
            self.flood.start()

    def stop(self) -> None:
        self._running = False
        if self.flood is not None:
            self.flood.stop()

    def _tick(self, sender: _PairSender) -> None:
        if not self._running:
            return
        for _ in range(self._burst_size()):
            sender.send_one()
        self._network.sim.schedule(
            self.config.send_interval_ps,
            lambda: self._tick(sender),
            label="workload-send",
        )

    def _burst_size(self) -> int:
        """How many messages this tick sends (1 unless bursting)."""
        if self._burst_rng is None:
            return 1
        # Inverse-CDF Pareto draw: heavy-tailed, capped at burst_max.
        u = self._burst_rng.random()
        size = int((1.0 - u) ** (-1.0 / self.config.burst_alpha))
        return min(self.config.burst_max, max(1, size))

    # ------------------------------------------------------------------

    @property
    def messages_attempted(self) -> int:
        """Messages the sending programs tried to send."""
        return sum(sender.sent for sender in self._senders)

    @property
    def messages_sent(self) -> int:
        """Workload messages accepted onto the wire (the paper's
        "messages sent"); ping/echo traffic is not counted.

        Sends blocked by a full interface queue — senders stalled by
        backpressure — are counted separately in :attr:`send_failures`.
        """
        return sum(
            stack.udp_sent_by_port[WORKLOAD_PORT]
            for stack in self.stacks.values()
        )

    @property
    def messages_received(self) -> int:
        return sum(sink.received for sink in self.sinks.values())

    @property
    def misdeliveries(self) -> int:
        return sum(sink.misdeliveries for sink in self.sinks.values())

    @property
    def corrupted_deliveries(self) -> int:
        return sum(sink.corrupted for sink in self.sinks.values())

    @property
    def send_failures(self) -> int:
        return sum(
            stack.send_failures_by_port[WORKLOAD_PORT]
            for stack in self.stacks.values()
        )

    @property
    def checksum_drops(self) -> int:
        return sum(stack.checksum_drops for stack in self.stacks.values())

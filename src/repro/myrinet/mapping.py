"""Network-map data structures and the topology oracle.

The mapper MCP builds a :class:`NetworkMap` from scout replies each round
(paper §4.1): which hosts answered, at which topological position, with
which 48-bit and 64-bit addresses.  Successive maps are kept so campaigns
can diff "before" and "after" states (paper Figure 11).

:class:`TopologyOracle` stands in for the part of Myrinet's mapping
algorithm we do not reproduce: deriving *return routes* for scouts by
incremental self-probing.  The oracle answers "what forward/reply routes
reach each host port" from the builder's wiring records; host **liveness
and addresses are still discovered by real scout/reply packets over the
simulated network**, so every corruption experiment behaves as in the
paper (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, RoutingError
from repro.myrinet.addresses import MacAddress, McpAddress


@dataclass(frozen=True)
class Probe:
    """One scout destination: a host position and the routes to/from it."""

    position: str
    forward_route: Tuple[int, ...]
    reply_route: Tuple[int, ...]


@dataclass
class MapEntry:
    """One discovered host in a network map."""

    position: str
    mac: MacAddress
    mcp: McpAddress
    route: Tuple[int, ...]


@dataclass
class NetworkMap:
    """The mapper's view of the network after one mapping round."""

    round_index: int
    completed_at: int
    entries: Dict[str, MapEntry] = field(default_factory=dict)
    conflict: bool = False

    def macs(self) -> List[MacAddress]:
        return [entry.mac for entry in self.entries.values()]

    def entry_by_mac(self, mac: MacAddress) -> Optional[MapEntry]:
        for entry in self.entries.values():
            if entry.mac == mac:
                return entry
        return None

    def clone(self) -> "NetworkMap":
        """An isolated copy: mutating the clone (or the original) never
        affects the other.

        ``copy.deepcopy`` cannot be used here because the address types
        are immutable (``__setattr__`` raises), so the mutable shells —
        the map itself, its ``entries`` dict, and each :class:`MapEntry`
        — are rebuilt while the immutable leaves (addresses, route
        tuples) are shared.
        """
        return NetworkMap(
            round_index=self.round_index,
            completed_at=self.completed_at,
            entries={
                position: replace(entry)
                for position, entry in self.entries.items()
            },
            conflict=self.conflict,
        )

    def consistent_with(self, other: "NetworkMap") -> bool:
        """True if both maps agree on positions, addresses, and routes."""
        if set(self.entries) != set(other.entries):
            return False
        for position, entry in self.entries.items():
            peer = other.entries[position]
            if (entry.mac, entry.mcp, entry.route) != (
                peer.mac,
                peer.mcp,
                peer.route,
            ):
                return False
        return True

    def render(self) -> str:
        """Human-readable map, in the spirit of the paper's Figure 11."""
        lines = [f"map round {self.round_index}"
                 f"{' (CONFLICT)' if self.conflict else ''}:"]
        if not self.entries:
            lines.append("  <empty>")
        for position in sorted(self.entries):
            entry = self.entries[position]
            route = ",".join(str(p) for p in entry.route)
            lines.append(
                f"  {position:<10} mac={entry.mac} mcp={entry.mcp} "
                f"route=[{route}]"
            )
        return "\n".join(lines)


class TopologyOracle:
    """Physical-wiring knowledge used to compute scout routes.

    The graph has two node kinds: host positions (strings) and switches
    (``('sw', name)`` tuples).  Edges remember the switch port they use,
    so a breadth-first search yields the output-port sequence a source
    route needs.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[object, List[Tuple[object, Optional[int]]]] = {}
        self._hosts: List[str] = []

    def add_host(self, name: str) -> None:
        if name in self._adjacency:
            raise ConfigurationError(f"duplicate topology node {name!r}")
        self._adjacency[name] = []
        self._hosts.append(name)

    def add_switch(self, name: str) -> None:
        key = ("sw", name)
        if key in self._adjacency:
            raise ConfigurationError(f"duplicate switch {name!r}")
        self._adjacency[key] = []

    def connect_host(self, host: str, switch: str, port: int) -> None:
        """Record host<->switch wiring (the host hangs off ``port``)."""
        key = ("sw", switch)
        self._adjacency[host].append((key, None))
        self._adjacency[key].append((host, port))

    def connect_switches(
        self, switch_a: str, port_a: int, switch_b: str, port_b: int
    ) -> None:
        """Record switch<->switch wiring."""
        key_a = ("sw", switch_a)
        key_b = ("sw", switch_b)
        self._adjacency[key_a].append((key_b, port_a))
        self._adjacency[key_b].append((key_a, port_b))

    @property
    def hosts(self) -> List[str]:
        return list(self._hosts)

    def route(self, source: str, target: str) -> List[int]:
        """Output-port sequence for a packet from ``source`` to ``target``.

        Breadth-first search over the wiring graph; hosts may only appear
        at the endpoints (a route never passes *through* a host).
        """
        if source == target:
            return []
        parents = self._search(source, target)
        return self._unwind(parents, source, target)

    def _search(
        self, source: str, target: str
    ) -> Dict[object, Tuple[object, Optional[int]]]:
        """BFS parent map from ``source`` until ``target`` is reached."""
        parents: Dict[object, Tuple[object, Optional[int]]] = {source: (source, None)}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for neighbor, port in self._adjacency.get(node, []):
                if neighbor in parents:
                    continue
                if isinstance(neighbor, str) and neighbor != target:
                    continue  # never route through a host
                parents[neighbor] = (node, port)
                if neighbor == target:
                    return parents
                frontier.append(neighbor)
        raise RoutingError(f"no route from {source!r} to {target!r}")

    def _unwind(
        self,
        parents: Dict[object, Tuple[object, Optional[int]]],
        source: str,
        target: str,
    ) -> List[int]:
        ports: List[int] = []
        node: object = target
        while node != source:
            parent, port = parents[node]
            if port is not None:
                ports.append(port)
            node = parent
        ports.reverse()
        return ports

    def node_path(self, source: str, target: str) -> List[object]:
        """The node sequence a packet traverses from ``source`` to
        ``target``, endpoints included.

        Nodes are host names (strings) or ``('sw', name)`` tuples, same
        as the wiring graph; a trivial ``source == target`` path is the
        single node.
        """
        if source == target:
            return [source]
        parents = self._search(source, target)
        nodes: List[object] = []
        node: object = target
        while node != source:
            nodes.append(node)
            node = parents[node][0]
        nodes.append(source)
        nodes.reverse()
        return nodes

    def edge_path(
        self, source: str, target: str
    ) -> List[Tuple[object, object]]:
        """The *directed* edges of :meth:`node_path`, in travel order."""
        nodes = self.node_path(source, target)
        return list(zip(nodes, nodes[1:]))

    def pairs_crossing(
        self, edge: Tuple[object, object]
    ) -> List[Tuple[str, str]]:
        """Ordered host pairs whose route traverses the directed ``edge``.

        This is the blast-radius primitive: given the corrupted segment
        as a directed ``(from_node, to_node)`` edge, it answers "which
        source->destination host conversations cross that wire in that
        direction".  Pairs come back sorted for deterministic reports.
        """
        pairs: List[Tuple[str, str]] = []
        for source in self._hosts:
            for target in self._hosts:
                if source == target:
                    continue
                try:
                    path = self.edge_path(source, target)
                except RoutingError:
                    continue
                if edge in path:
                    pairs.append((source, target))
        pairs.sort()
        return pairs

    def probes_from(self, source: str) -> List[Probe]:
        """One probe per *other* host position, with both route directions."""
        probes = []
        for host in self._hosts:
            if host == source:
                continue
            probes.append(
                Probe(
                    position=host,
                    forward_route=tuple(self.route(source, host)),
                    reply_route=tuple(self.route(host, source)),
                )
            )
        return probes


def paper_oracle(instrumented_host: str = "pc") -> TopologyOracle:
    """The Figure 10 test-bed wiring
    (:data:`repro.myrinet.network.PAPER_FABRIC`) as a
    :class:`TopologyOracle`.  ``instrumented_host`` is accepted (and
    validated) so offline analyzers can assert the host named in a
    campaign spec actually exists in this topology.
    """
    from repro.myrinet.network import PAPER_FABRIC

    hosts = PAPER_FABRIC.hosts
    if instrumented_host not in hosts:
        raise ConfigurationError(
            f"instrumented host {instrumented_host!r} is not part of the "
            f"paper test bed {hosts}"
        )
    return PAPER_FABRIC.oracle()

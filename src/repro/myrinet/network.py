"""Topology builder: assembles hosts, switches, links, and MCPs.

:class:`MyrinetNetwork` is the high-level entry point for constructing a
simulated Myrinet LAN.  It wires interfaces to switches, keeps the
:class:`~repro.myrinet.mapping.TopologyOracle` consistent with the
physical wiring, and supports splicing an in-path device (the fault
injector) into any host-to-switch connection — in which case both link
segments carry flow control as real symbols so the device can observe
and corrupt them.

:func:`build_paper_testbed` recreates the paper's Figure 10 network: one
Linux PC and two UltraSPARC workstations on an 8-port Myrinet switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.errors import ConfigurationError
from repro.myrinet.addresses import MacAddress, McpAddress
from repro.myrinet.interface import HostInterface
from repro.myrinet.link import DEFAULT_CHAR_PERIOD_PS, DEFAULT_PROPAGATION_PS, Link
from repro.myrinet.mapping import TopologyOracle
from repro.myrinet.mcp import McpController
from repro.myrinet.switch import MyrinetSwitch
from repro.sim.kernel import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import MS

#: Locally-administered MAC prefix used for auto-assigned addresses.
_MAC_BASE = 0x02_00_5E_00_00_00
#: Base for auto-assigned MCP addresses.
_MCP_BASE = 0x0000_1000_0000_0000


class InPathDevice(Protocol):
    """Anything that can be spliced into a host-switch connection."""

    def attach_left(self, link: Link, side: str) -> None:
        """Attach the segment facing the host."""

    def attach_right(self, link: Link, side: str) -> None:
        """Attach the segment facing the switch."""


@dataclass
class Host:
    """A host: its interface plus the MCP running on it."""

    name: str
    interface: HostInterface
    mcp: McpController


@dataclass
class Connection:
    """Record of one host-to-switch attachment."""

    host: str
    switch: str
    port: int
    links: List[Link] = field(default_factory=list)
    device: Optional[InPathDevice] = None


class MyrinetNetwork:
    """Builder and container for a simulated Myrinet LAN."""

    def __init__(
        self,
        sim: Simulator,
        char_period_ps: int = DEFAULT_CHAR_PERIOD_PS,
        propagation_ps: int = DEFAULT_PROPAGATION_PS,
        flow_transport: str = "direct",
        rng: Optional[DeterministicRng] = None,
        map_interval_ps: Optional[int] = None,
        mcp_reply_timeout_ps: Optional[int] = None,
        mcp_initial_delay_ps: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.char_period_ps = char_period_ps
        self.propagation_ps = propagation_ps
        self.flow_transport = flow_transport
        self.rng = rng or DeterministicRng(0)
        self._mcp_kwargs: Dict[str, int] = {}
        if map_interval_ps is not None:
            self._mcp_kwargs["map_interval_ps"] = map_interval_ps
        if mcp_reply_timeout_ps is not None:
            self._mcp_kwargs["reply_timeout_ps"] = mcp_reply_timeout_ps
        if mcp_initial_delay_ps is not None:
            self._mcp_kwargs["initial_delay_ps"] = mcp_initial_delay_ps

        self.oracle = TopologyOracle()
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, MyrinetSwitch] = {}
        self.connections: List[Connection] = []
        self._next_host_index = 0
        self._started = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_switch(self, name: str, num_ports: int = 8,
                   **kwargs) -> MyrinetSwitch:
        """Create a switch and register it with the topology oracle."""
        if name in self.switches:
            raise ConfigurationError(f"duplicate switch name {name!r}")
        switch = MyrinetSwitch(self.sim, name=name, num_ports=num_ports,
                               **kwargs)
        self.switches[name] = switch
        self.oracle.add_switch(name)
        return switch

    def add_host(
        self,
        name: str,
        mac: Optional[MacAddress] = None,
        mcp_address: Optional[McpAddress] = None,
        **interface_kwargs,
    ) -> Host:
        """Create a host (interface + MCP).

        Addresses are auto-assigned in creation order unless given, so
        the *last* host added holds the highest MCP address and becomes
        the mapper.
        """
        if name in self.hosts:
            raise ConfigurationError(f"duplicate host name {name!r}")
        index = self._next_host_index
        self._next_host_index += 1
        if mac is None:
            mac = MacAddress(_MAC_BASE + index + 1)
        if mcp_address is None:
            mcp_address = McpAddress(_MCP_BASE + index + 1)
        interface = HostInterface(
            self.sim, name=name, mac=mac, mcp_address=mcp_address,
            **interface_kwargs,
        )
        mcp = McpController(
            self.sim,
            interface,
            self.oracle,
            position=name,
            rng=self.rng.fork(f"mcp:{name}"),
            **self._mcp_kwargs,
        )
        host = Host(name=name, interface=interface, mcp=mcp)
        self.hosts[name] = host
        self.oracle.add_host(name)
        return host

    def connect(
        self,
        host_name: str,
        switch_name: str,
        port: int,
        device: Optional[InPathDevice] = None,
        flow_transport: Optional[str] = None,
    ) -> Connection:
        """Wire a host to a switch port, optionally through an in-path device.

        With a device, two link segments are created (host—device and
        device—switch) and flow control is forced onto the ``symbols``
        transport so STOP/GO traverse — and can be corrupted by — the
        device.
        """
        host = self.hosts[host_name]
        switch = self.switches[switch_name]
        connection = Connection(host=host_name, switch=switch_name,
                                port=port, device=device)
        if device is None:
            transport = flow_transport or self.flow_transport
            link = self._new_link(f"{host_name}<->{switch_name}.p{port}")
            host.interface.attach_link(link, "a", flow_transport=transport)
            switch.attach_link(port, link, "b", flow_transport=transport)
            connection.links.append(link)
        else:
            left = self._new_link(f"{host_name}<->dev")
            right = self._new_link(f"dev<->{switch_name}.p{port}")
            host.interface.attach_link(left, "a", flow_transport="symbols")
            device.attach_left(left, "b")
            device.attach_right(right, "a")
            switch.attach_link(port, right, "b", flow_transport="symbols")
            connection.links.extend([left, right])
        self.oracle.connect_host(host_name, switch_name, port)
        self.connections.append(connection)
        return connection

    def connect_switches(
        self,
        switch_a: str,
        port_a: int,
        switch_b: str,
        port_b: int,
        device: Optional[InPathDevice] = None,
        flow_transport: Optional[str] = None,
    ) -> List[Link]:
        """Wire two switches together, optionally through an in-path device.

        Splicing the injector into an inter-switch trunk monitors (and
        can corrupt) every flow crossing it — "allowing previously
        inaccessible portions of the system to be monitored" (paper §1).
        Returns the created link segment(s).
        """
        if device is None:
            transport = flow_transport or self.flow_transport
            link = self._new_link(
                f"{switch_a}.p{port_a}<->{switch_b}.p{port_b}"
            )
            self.switches[switch_a].attach_link(port_a, link, "a",
                                                flow_transport=transport)
            self.switches[switch_b].attach_link(port_b, link, "b",
                                                flow_transport=transport)
            self.oracle.connect_switches(switch_a, port_a, switch_b, port_b)
            return [link]
        left = self._new_link(f"{switch_a}.p{port_a}<->dev")
        right = self._new_link(f"dev<->{switch_b}.p{port_b}")
        self.switches[switch_a].attach_link(port_a, left, "a",
                                            flow_transport="symbols")
        device.attach_left(left, "b")
        device.attach_right(right, "a")
        self.switches[switch_b].attach_link(port_b, right, "b",
                                            flow_transport="symbols")
        self.oracle.connect_switches(switch_a, port_a, switch_b, port_b)
        return [left, right]

    def _new_link(self, name: str) -> Link:
        return Link(
            self.sim,
            name,
            char_period_ps=self.char_period_ps,
            propagation_ps=self.propagation_ps,
        )

    # ------------------------------------------------------------------
    # operation
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every MCP.  Idempotent."""
        if self._started:
            return
        self._started = True
        for host in self.hosts.values():
            host.mcp.start()

    def settle(self, duration_ps: int = 5 * MS) -> None:
        """Start the network and run until routing tables are in place.

        The default covers the MCP initial delay, its stagger, one full
        scout round, and the routes distribution for LAN-scale networks.
        """
        self.start()
        self.sim.run_for(duration_ps)

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def switch(self, name: str) -> MyrinetSwitch:
        return self.switches[name]

    def mapper(self) -> Host:
        """The host whose MCP address is highest (the network mapper)."""
        return max(
            self.hosts.values(), key=lambda h: h.interface.mcp_address.value
        )

    def interfaces(self) -> List[HostInterface]:
        return [host.interface for host in self.hosts.values()]

    def connection_for(self, host_name: str) -> Connection:
        """The attachment record of ``host_name``."""
        for connection in self.connections:
            if connection.host == host_name:
                return connection
        raise ConfigurationError(f"host {host_name!r} has no connection")


def build_paper_testbed(
    sim: Simulator,
    device: Optional[InPathDevice] = None,
    instrumented_host: str = "pc",
    rng: Optional[DeterministicRng] = None,
    host_kwargs: Optional[Dict] = None,
    switch_kwargs: Optional[Dict] = None,
    **network_kwargs,
) -> MyrinetNetwork:
    """The paper's Figure 10 test-bed (:data:`PAPER_FABRIC`).

    ``device``, if given, is spliced into ``instrumented_host``'s link —
    the paper placed the fault injector between one host and the switch.
    """
    return build_fabric(
        sim, PAPER_FABRIC, device=device,
        instrumented_host=instrumented_host, rng=rng,
        host_kwargs=host_kwargs, switch_kwargs=switch_kwargs,
        **network_kwargs,
    )


# ---------------------------------------------------------------------------
# declarative fabrics — source-routed topologies beyond the paper's LAN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricSpec:
    """A multi-switch source-routed fabric as frozen, picklable data.

    The wiring vocabulary matches :class:`MyrinetNetwork` one-to-one:

    * ``hosts`` — host names, in creation order (the *last* host holds
      the highest auto-assigned MCP address and becomes the mapper);
    * ``switches`` — ``(name, num_ports)`` pairs;
    * ``host_links`` — ``(host, switch, port)`` attachments, exactly one
      per host;
    * ``trunks`` — ``(switch_a, port_a, switch_b, port_b)`` inter-switch
      wires.

    A spec travels inside
    :class:`~repro.nftape.experiment.TestbedOptions` (and therefore
    inside campaign specs, over the spec codec, and across worker
    processes), so every field is an immutable tuple of scalars.
    :meth:`validate` enforces the wiring rules the mapper depends on;
    :func:`build_fabric` realizes the spec into a live network.
    """

    hosts: Tuple[str, ...]
    switches: Tuple[Tuple[str, int], ...]
    host_links: Tuple[Tuple[str, str, int], ...]
    trunks: Tuple[Tuple[str, int, str, int], ...] = ()

    def __post_init__(self) -> None:
        # Accept lists from hand-built specs; store canonical tuples.
        object.__setattr__(self, "hosts", tuple(self.hosts))
        object.__setattr__(
            self, "switches", tuple(tuple(s) for s in self.switches)
        )
        object.__setattr__(
            self, "host_links", tuple(tuple(l) for l in self.host_links)
        )
        object.__setattr__(
            self, "trunks", tuple(tuple(t) for t in self.trunks)
        )

    def validate(self) -> None:
        """Check the wiring invariants; raise :class:`ConfigurationError`.

        Rules: unique names, known references, in-range and unshared
        ports, exactly one link per host, a *connected and acyclic*
        switch graph (source-routed scouts assume a unique route between
        any two points — a trunk cycle would make routes ambiguous).
        """
        if not self.hosts:
            raise ConfigurationError("fabric has no hosts")
        if not self.switches:
            raise ConfigurationError("fabric has no switches")
        if len(set(self.hosts)) != len(self.hosts):
            raise ConfigurationError("duplicate host name in fabric")
        ports: Dict[str, int] = {}
        for name, num_ports in self.switches:
            if name in ports:
                raise ConfigurationError(
                    f"duplicate switch name {name!r} in fabric"
                )
            if name in self.hosts:
                raise ConfigurationError(
                    f"{name!r} is both a host and a switch"
                )
            if num_ports < 1:
                raise ConfigurationError(
                    f"switch {name!r} needs at least one port"
                )
            ports[name] = num_ports
        used: Dict[Tuple[str, int], str] = {}

        def _claim(switch: str, port: int, what: str) -> None:
            if switch not in ports:
                raise ConfigurationError(
                    f"{what} references unknown switch {switch!r}"
                )
            if not 0 <= port < ports[switch]:
                raise ConfigurationError(
                    f"{what} uses port {port} outside {switch!r}'s "
                    f"0..{ports[switch] - 1} range"
                )
            if (switch, port) in used:
                raise ConfigurationError(
                    f"{what} reuses {switch!r} port {port} "
                    f"(already wired to {used[(switch, port)]})"
                )
            used[(switch, port)] = what

        linked: Dict[str, int] = {}
        for host, switch, port in self.host_links:
            if host not in self.hosts:
                raise ConfigurationError(
                    f"link references unknown host {host!r}"
                )
            linked[host] = linked.get(host, 0) + 1
            _claim(switch, port, f"host {host!r}")
        for host in self.hosts:
            if linked.get(host, 0) != 1:
                raise ConfigurationError(
                    f"host {host!r} must have exactly one switch link, "
                    f"has {linked.get(host, 0)}"
                )
        # Union-find over the switch graph: a trunk joining two already-
        # connected switches closes a cycle (ambiguous source routes).
        parent = {name: name for name in ports}

        def _find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for index, (sw_a, port_a, sw_b, port_b) in enumerate(self.trunks):
            _claim(sw_a, port_a, f"trunk {index}")
            _claim(sw_b, port_b, f"trunk {index}")
            root_a, root_b = _find(sw_a), _find(sw_b)
            if root_a == root_b:
                raise ConfigurationError(
                    f"trunk {index} ({sw_a!r}<->{sw_b!r}) closes a "
                    "switch cycle; source-routed fabrics must be acyclic"
                )
            parent[root_a] = root_b
        roots = {_find(name) for name in ports}
        if len(roots) != 1:
            raise ConfigurationError(
                f"fabric is split into {len(roots)} disconnected switch "
                "islands; add trunks until one fabric remains"
            )

    def oracle(self) -> TopologyOracle:
        """The wiring as a :class:`TopologyOracle` (no simulator needed).

        Offline analyzers (``repro.insight`` blast radius) use this to
        reason about routes of fabric campaigns the same way
        :func:`~repro.myrinet.mapping.paper_oracle` covers the Figure 10
        test bed.
        """
        self.validate()
        oracle = TopologyOracle()
        for name, _num_ports in self.switches:
            oracle.add_switch(name)
        for host in self.hosts:
            oracle.add_host(host)
        for host, switch, port in self.host_links:
            oracle.connect_host(host, switch, port)
        for sw_a, port_a, sw_b, port_b in self.trunks:
            oracle.connect_switches(sw_a, port_a, sw_b, port_b)
        return oracle


#: The paper's Figure 10 LAN: ``pc`` (the 200 MHz Pentium Pro Linux box)
#: on port 0 and ``sparc1``/``sparc2`` (the 170 MHz UltraSPARCs) on ports
#: 1 and 2 of one 8-port switch named ``switch``; ``sparc2`` holds the
#: highest MCP address and maps the network.
PAPER_FABRIC = FabricSpec(
    hosts=("pc", "sparc1", "sparc2"),
    switches=(("switch", 8),),
    host_links=(("pc", "switch", 0), ("sparc1", "switch", 1),
                ("sparc2", "switch", 2)),
)


def star_fabric(hosts: int, ports: int = 16,
                host_prefix: str = "h") -> FabricSpec:
    """N hosts on one switch — the paper's shape at arbitrary width."""
    names = tuple(f"{host_prefix}{i}" for i in range(hosts))
    return FabricSpec(
        hosts=names,
        switches=(("sw0", max(ports, hosts)),),
        host_links=tuple(
            (name, "sw0", port) for port, name in enumerate(names)
        ),
    )


def line_fabric(switches: int, hosts_per_switch: int,
                ports: int = 8) -> FabricSpec:
    """A chain of switches, each carrying ``hosts_per_switch`` hosts.

    Trunks use the two highest ports of each switch, so every flow
    between non-adjacent segments crosses every intermediate trunk —
    the congestion-collapse shape.
    """
    needed = hosts_per_switch + 2
    num_ports = max(ports, needed)
    hosts: List[str] = []
    host_links: List[Tuple[str, str, int]] = []
    trunks: List[Tuple[str, int, str, int]] = []
    for s in range(switches):
        for h in range(hosts_per_switch):
            name = f"h{s}x{h}"
            hosts.append(name)
            host_links.append((name, f"sw{s}", h))
        if s + 1 < switches:
            trunks.append((f"sw{s}", num_ports - 1,
                           f"sw{s + 1}", num_ports - 2))
    return FabricSpec(
        hosts=tuple(hosts),
        switches=tuple((f"sw{s}", num_ports) for s in range(switches)),
        host_links=tuple(host_links),
        trunks=tuple(trunks),
    )


def tree_fabric(leaves: int, hosts_per_leaf: int,
                ports: int = 8) -> FabricSpec:
    """A spine switch fanning out to ``leaves`` leaf switches."""
    num_ports = max(ports, hosts_per_leaf + 1, leaves)
    hosts: List[str] = []
    host_links: List[Tuple[str, str, int]] = []
    trunks: List[Tuple[str, int, str, int]] = []
    for s in range(leaves):
        for h in range(hosts_per_leaf):
            name = f"h{s}x{h}"
            hosts.append(name)
            host_links.append((name, f"leaf{s}", h))
        trunks.append(("spine", s, f"leaf{s}", num_ports - 1))
    switches = (("spine", num_ports),) + tuple(
        (f"leaf{s}", num_ports) for s in range(leaves)
    )
    return FabricSpec(
        hosts=tuple(hosts),
        switches=switches,
        host_links=tuple(host_links),
        trunks=tuple(trunks),
    )


def build_fabric(
    sim: Simulator,
    fabric: FabricSpec,
    device: Optional[InPathDevice] = None,
    instrumented_host: Optional[str] = None,
    rng: Optional[DeterministicRng] = None,
    host_kwargs: Optional[Dict] = None,
    switch_kwargs: Optional[Dict] = None,
    **network_kwargs,
) -> MyrinetNetwork:
    """Realize a :class:`FabricSpec` into a live :class:`MyrinetNetwork`.

    ``device``, if given, is spliced into ``instrumented_host``'s link
    (default: the fabric's first host) — the same placement contract as
    :func:`build_paper_testbed`, so experiments and campaigns treat
    paper and fabric test beds identically.
    """
    fabric.validate()
    if instrumented_host is None:
        instrumented_host = fabric.hosts[0]
    if instrumented_host not in fabric.hosts:
        raise ConfigurationError(
            f"instrumented host {instrumented_host!r} is not part of "
            f"the fabric (hosts: {', '.join(fabric.hosts)})"
        )
    network = MyrinetNetwork(sim, rng=rng, **network_kwargs)
    for name, num_ports in fabric.switches:
        network.add_switch(name, num_ports=num_ports,
                           **(switch_kwargs or {}))
    for name in fabric.hosts:
        network.add_host(name, **(host_kwargs or {}))
    for host, switch, port in fabric.host_links:
        spliced = device if host == instrumented_host else None
        network.connect(host, switch, port, device=spliced)
    for sw_a, port_a, sw_b, port_b in fabric.trunks:
        network.connect_switches(sw_a, port_a, sw_b, port_b)
    return network

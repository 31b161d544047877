#!/usr/bin/env python
"""SEU campaign on an inter-switch trunk of a larger Myrinet fabric.

Combines three of the paper's capabilities beyond the basic test bed:

* a larger topology (two 8-port switches, five hosts) mapped entirely by
  the MCP protocol;
* the in-path device spliced into the inter-switch trunk rather than a
  host link, a vantage point no software injector can reach;
* the §3.1 random-SEU fault class: exponentially-paced single-bit flips
  via the Inject-Now input, each with a freshly randomized corrupt
  vector.

Run:  python examples/trunk_seu_campaign.py
"""

from repro.core import FaultInjectorDevice
from repro.hostsim import HostStack, MessageSink, UdpGenerator
from repro.myrinet.network import MyrinetNetwork
from repro.sim import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import MS, US


def main() -> None:
    sim = Simulator()
    network = MyrinetNetwork(sim, rng=DeterministicRng(7),
                             map_interval_ps=100 * MS)
    network.add_switch("s1")
    network.add_switch("s2")
    for name, switch, port in (
        ("alpha", "s1", 0), ("bravo", "s1", 1), ("charlie", "s1", 2),
        ("delta", "s2", 0), ("echo", "s2", 1),
    ):
        network.add_host(name)
        network.connect(name, switch, port)

    # The device guards the trunk between the switches.
    device = FaultInjectorDevice(sim, name="trunk-fi")
    network.connect_switches("s1", 7, "s2", 7, device=device)
    network.settle(10 * MS)

    mapper = network.mapper()
    print(f"{len(network.hosts)} hosts on 2 switches; mapper = "
          f"{mapper.name}")
    print(mapper.mcp.current_map.render())

    # Cross-trunk traffic: every s1 host streams to every s2 host.
    stacks = {name: HostStack(sim, host.interface)
              for name, host in network.hosts.items()}
    sinks = {name: MessageSink(stacks[name], 5000)
             for name in ("delta", "echo")}
    generators = []
    for src in ("alpha", "bravo", "charlie"):
        for dst in ("delta", "echo"):
            generator = UdpGenerator(
                sim, stacks[src], network.hosts[dst].interface.mac, 5000,
                payload_size=64, interval_ps=200 * US,
            )
            generator.start()
            generators.append(generator)

    # The SEU plan needs the Testbed protocol surface; adapt minimally.
    class _Bed:
        pass

    bed = _Bed()
    bed.sim = sim
    bed.device = device
    bed.session = None

    from repro.nftape import RandomBitFlipPlan
    plan = RandomBitFlipPlan(direction="RL",
                             mean_interval_ps=int(0.5 * MS), seed=13)
    plan.install(bed)
    plan.start(bed)
    sim.run_for(30 * MS)
    plan.stop(bed)
    sim.run_for(3 * MS)

    sent = sum(g.sent for g in generators)
    received = sum(s.received for s in sinks.values())
    checksum_drops = sum(stacks[n].checksum_drops for n in sinks)
    crc_drops = sum(network.hosts[n].interface.crc_errors for n in sinks)
    forced = sum(device.injector(d).forced_injections for d in "RL")

    print(f"\nSEU pulses fired      : {plan.pulses} "
          f"(random bit, random instant)")
    print(f"flips landed on data  : {forced}")
    print(f"messages sent/received: {sent}/{received} "
          f"(loss {1 - received / sent:.1%})")
    print(f"caught by CRC-8       : {crc_drops}")
    print(f"caught by UDP checksum: {checksum_drops}")
    print("every corrupted message was dropped before the application — "
          "passive faults only")


if __name__ == "__main__":
    main()

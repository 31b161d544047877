"""The paper's experiments, as runnable campaign definitions.

One function per table/figure of the evaluation (see DESIGN.md's
per-experiment index).  Each returns a
:class:`~repro.nftape.results.ResultTable` whose rows place the paper's
published value next to the measured one, plus any experiment-specific
artifacts (e.g. the Figure 11 network-map renders).

Durations are scaled down from the paper's minutes to tens of
milliseconds of simulated time; rates and loss fractions are reported
normalized so the comparison is scale-free.  Where a run depends on the
long-period timeout (~50 ms, §4.3.1), the timeout is scaled by the same
factor as the run and the scaling is recorded in the row.

Seed derivation rule
--------------------
Every ``table*``/``sec*`` builder takes ``seed: int = 0`` with one
meaning: it is the campaign's **base seed**.  The seed of experiment
``i`` named ``n`` is ``derive_seed(seed, i, n)``
(:mod:`repro.runtime.seeding` — blake2b of ``"{seed}:{i}:{n}"``,
truncated to 63 bits) and is threaded into
:attr:`TestbedOptions.seed <repro.nftape.experiment.TestbedOptions.seed>`
identically everywhere.  Paired-comparison experiments (Table 2's
with/without-device runs, §3.5's direct/injector runs) share the *same*
derived seed across the pair by design — the comparison is the
experiment.  This is the same rule the sharded campaign engine applies,
so paper campaigns replay bit-identically at any worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.core.faults import control_symbol_swap, replace_bytes
from repro.hostsim.apps import MessageSink, PingPong
from repro.hostsim.sockets import HostStack
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.symbols import (
    GAP,
    IDLE,
    STOP,
    GAP_VALUE,
)
from repro.nftape.campaign import Campaign
from repro.nftape.classify import classify_result
from repro.nftape.experiment import Experiment, Testbed, TestbedOptions
from repro.nftape.plan import FaultPlan
from repro.nftape.results import ExperimentResult, ResultTable
from repro.nftape.workload import WorkloadConfig
from repro.runtime.seeding import derive_seed
from repro.runtime.spec import CampaignSpec
from repro.scenario import compile_scenario, load_scenario, with_fault_windows
from repro.sim.timebase import MS, NS, US, to_ns

# ---------------------------------------------------------------------------
# shared campaign parameters
# ---------------------------------------------------------------------------

#: Host overheads calibrated so a ping-pong exchange averages ~235 us per
#: packet, the paper's Table 2 baseline.
TABLE2_STACK_KWARGS = dict(
    send_overhead_ps=120 * US,
    recv_overhead_ps=113 * US,
    jitter_ps=2 * US,
    timer_tick_ps=1 * US,
    overhead_drift_ps=400 * NS,
)

#: "Full capacity" load: offered rate above what the hosts can sink, with
#: 1999-class hosts that drain at half the link rate.
OVERLOAD_WORKLOAD = WorkloadConfig(send_interval_ps=4 * US, payload_size=64)
OVERLOAD_HOST_KWARGS = {"rx_drain_factor": 2.0}

#: Paper Table 2 rows: (without, with, added) in nanoseconds.
PAPER_TABLE2 = [
    (235_213, 235_926, 713),
    (235_805, 235_730, 75),
    (235_220, 236_107, 887),
    (234_973, 236_380, 1407),
    (235_426, 236_134, 708),
]

#: Paper Table 4 rows: (mask, replacement, sent, received, loss); library
#: scenario ``paper-table4-full`` carries them in its experiments' params.
PAPER_TABLE4 = [
    ("STOP", "IDLE", 4064, 3705, 0.08),
    ("STOP", "GAP", 4092, 3445, 0.15),
    ("STOP", "GO", 4015, 3694, 0.07),
    ("GAP", "GO", 3132, 2785, 0.11),
    ("GAP", "IDLE", 3378, 3022, 0.11),
    ("GAP", "STOP", 3983, 3607, 0.09),
    ("GO", "IDLE", 2564, 2199, 0.14),
    ("GO", "GAP", 3483, 3108, 0.10),
    ("GO", "STOP", 3720, 3322, 0.10),
]

# ---------------------------------------------------------------------------
# Table 2 — added latency of the device in the data path
# ---------------------------------------------------------------------------


def _run_pingpong(with_device: bool, seed: int, exchanges: int) -> float:
    """Average one-way time per packet (ns) for one ping-pong run."""
    testbed = Testbed(TestbedOptions(seed=seed, with_device=with_device))
    testbed.settle()
    network = testbed.network
    # The with/without measurements are separate runs on real machines:
    # they see different jitter draws, timer phases, and machine-state
    # drift, so the rng substream is keyed by the configuration too.
    rng = testbed.rng.fork(f"table2:{with_device}")
    stack_a = HostStack(
        testbed.sim, network.host("pc").interface,
        rng=rng.fork("a"), **TABLE2_STACK_KWARGS,
    )
    stack_b = HostStack(
        testbed.sim, network.host("sparc1").interface,
        rng=rng.fork("b"), **TABLE2_STACK_KWARGS,
    )
    results = []
    pingpong = PingPong(
        testbed.sim, stack_a, stack_b, count=exchanges,
        on_complete=results.append,
    )
    pingpong.start()
    # Each exchange is ~470 us; leave generous headroom.
    testbed.sim.run_for((exchanges + 10) * 600 * US)
    if not results:
        raise RuntimeError("ping-pong did not complete in time")
    return to_ns(results[0].avg_time_per_packet_ps)


def table2_latency(exchanges: int = 1500,
                   experiments: int = 5,
                   seed: int = 0) -> ResultTable:
    """Table 2: ping-pong latency with and without the injector.

    The paper sent 2M packets per experiment on real hardware; each
    scaled experiment here uses ``exchanges`` round trips and a distinct
    derived seed (distinct timer phases and jitter draws, the dominant
    noise source the paper identified).  Seed of experiment ``i``:
    ``derive_seed(seed, i, f"experiment-{i + 1}")``, shared by the
    with/without pair (paired comparison — see the module's seed rule).
    """
    table = ResultTable("Table 2 — added latency per packet (ns)")
    for index in range(experiments):
        run_seed = derive_seed(seed, index, f"experiment-{index + 1}")
        without = _run_pingpong(False, seed=run_seed, exchanges=exchanges)
        with_dev = _run_pingpong(True, seed=run_seed, exchanges=exchanges)
        paper = PAPER_TABLE2[index % len(PAPER_TABLE2)]
        result = ExperimentResult(
            name=f"experiment-{index + 1}",
            messages_sent=2 * exchanges,
            messages_received=2 * exchanges,
        )
        result.extras["without_ns"] = without
        result.extras["with_ns"] = with_dev
        table.add(
            result,
            experiment=f"{index + 1}",
            without_ns=f"{without:.0f}",
            with_ns=f"{with_dev:.0f}",
            added_ns=f"{with_dev - without:.0f}",
            paper_added_ns=paper[2],
        )
    return table


# ---------------------------------------------------------------------------
# Table 4 — control symbol corruption campaign
# ---------------------------------------------------------------------------


def table4_spec(
    duration_ps: int = 20 * MS,
    duty_on_ps: int = int(1.5 * MS),
    duty_off_ps: int = int(8.5 * MS),
    seed: int = 0,
) -> CampaignSpec:
    """The Table 4 campaign as a declarative, picklable description.

    Library document ``paper-table4-full`` compiled with the arguments
    as overrides: one experiment per mask/replacement pair, named
    ``"{mask}->{replacement}"``, with the paper's published numbers in
    ``params`` so the row builder can place them next to the measured
    ones in any process.  Seed of row ``i`` is
    ``derive_seed(seed, i, name)`` (the module's seed rule), applied by
    whichever executor runs the campaign.
    """
    doc = dataclasses.replace(
        load_scenario("paper-table4-full"),
        seed=seed, duration_ms=duration_ps / MS,
    )
    doc = with_fault_windows(doc, duty_on_ps / US, duty_off_ps / US)
    return dataclasses.replace(
        compile_scenario(doc), name="Table 4 — control symbol corruption"
    )


def _table4_row(result: ExperimentResult) -> Dict[str, Any]:
    """Table 4 row: measured numbers next to the paper's, from params."""
    params = result.params
    return {
        "mask": params["mask"],
        "replacement": params["replacement"],
        "sent": result.messages_sent,
        "received": result.messages_received,
        "loss": f"{result.loss_rate:.1%}",
        "paper_loss": f"{params['paper_loss']:.0%}",
        "injections": result.injections,
        "fault_class": classify_result(result).fault_class.value,
    }


def table4_control_symbols(
    duration_ps: int = 20 * MS,
    duty_on_ps: int = int(1.5 * MS),
    duty_off_ps: int = int(8.5 * MS),
    seed: int = 0,
    executor: Optional[Any] = None,
) -> ResultTable:
    """Table 4: corrupt each flow-control symbol into each other symbol.

    The trigger is duty-cycled (armed/disarmed windows over the serial
    link) as NFTAPE paced the campaign; the workload keeps the network
    at full capacity with every node running a message-sending program.

    The campaign is described by :func:`table4_spec` and run through
    whichever ``executor`` is supplied —
    :class:`~repro.runtime.executors.SerialExecutor` by default, or a
    :class:`~repro.runtime.executors.PooledExecutor` to shard the nine
    rows across worker processes with bit-identical output.
    """
    spec = table4_spec(
        duration_ps=duration_ps, duty_on_ps=duty_on_ps,
        duty_off_ps=duty_off_ps, seed=seed,
    )
    campaign = Campaign.from_spec(spec, row_builder=_table4_row)
    return campaign.run(executor=executor)


# ---------------------------------------------------------------------------
# §4.3.1 — throughput under continuous flow-control faults
# ---------------------------------------------------------------------------


def sec431_throughput(duration_ps: int = 20 * MS,
                      seed: int = 0) -> ResultTable:
    """§4.3.1 prose numbers: throughput collapse under continuous faults.

    * baseline — the paper's 48000 messages/minute run;
    * faulty STOP conditions — every GAP toward the instrumented host
      becomes a STOP (erroneous stop state + merged frames); the paper
      measured 5038/48000 ≈ 10.5% of normal;
    * lost GAPs — every GAP deleted; paths stay occupied until the
      long-period timeout reclaims them; the paper measured ~12% of
      normal throughput.

    The long-period timeout is scaled with the run (recorded per row).
    Seed of run ``i`` named ``n`` is ``derive_seed(seed, i, n)`` with
    ``baseline``/``faulty-stop-conditions``/``lost-gaps`` at indices
    0/1/2; this campaign stays in-process because the fraction rows read
    the live workload objects out of ``result.extras``.
    """
    scaled_timeout_periods = 160_000  # 2 ms at 12.5 ns — scaled from 50 ms
    table = ResultTable("§4.3.1 — throughput under flow-control faults")

    def _run(index: int, name: str, plan,
             paper_fraction: Optional[float]):
        experiment = Experiment(
            name,
            duration_ps=duration_ps,
            plan=plan,
            workload_config=OVERLOAD_WORKLOAD,
            testbed_options=TestbedOptions(
                seed=derive_seed(seed, index, name),
                host_kwargs=dict(OVERLOAD_HOST_KWARGS),
                long_timeout_periods=scaled_timeout_periods,
            ),
        )
        return experiment.run(), paper_fraction

    baseline, _ = _run(0, "baseline", None, None)
    stop_fault, stop_paper = _run(
        1, "faulty-stop-conditions",
        FaultPlan("L", control_symbol_swap(GAP, STOP, MatchMode.ON),
                  use_serial=False),
        5038 / 48000,
    )
    gap_loss, gap_paper = _run(
        2, "lost-gaps",
        FaultPlan("RL", control_symbol_swap(GAP, IDLE, MatchMode.ON),
                  use_serial=False),
        0.12,
    )

    base_rate = baseline.throughput_per_second

    def _pc_received(result: ExperimentResult) -> int:
        workload = result.extras["workload"]
        return workload.sinks["pc"].received

    base_pc = _pc_received(baseline)
    for result, paper_fraction in (
        (baseline, 1.0), (stop_fault, stop_paper), (gap_loss, gap_paper)
    ):
        fraction = (
            result.throughput_per_second / base_rate if base_rate else 0.0
        )
        pc_fraction = _pc_received(result) / base_pc if base_pc else 0.0
        table.add(
            result,
            run=result.name,
            received=result.messages_received,
            network_fraction=f"{fraction:.1%}",
            instrumented_host_fraction=f"{pc_fraction:.1%}",
            paper_fraction=f"{paper_fraction:.1%}",
            long_timeouts=result.total_switch_counter("long_timeouts"),
            tx_timeout_drops=result.total_host_counter("tx_timeout_drops"),
        )
    return table


# ---------------------------------------------------------------------------
# §4.3.2 — packet type corruption
# ---------------------------------------------------------------------------


def _mapping_type_config() -> InjectorConfig:
    """Corrupt the mapping packet type 0x0005 to 0x000x (x random-ish)."""
    return InjectorConfig(
        match_mode=MatchMode.ON,
        compare_data=0x0005,
        compare_mask=0xFFFF,
        corrupt_mode=CorruptMode.TOGGLE,
        corrupt_data=0x000A,  # 0x0005 -> 0x000F
        crc_fixup=True,
    )


def sec432_packet_types(seed: int = 0) -> ResultTable:
    """§4.3.2: corrupt mapping headers, data headers, and source routes.

    Five sub-experiments, seeded by the module's rule at indices 0–4:
    ``mapping-type-corruption``, ``data-type-corruption``,
    ``route-msb-corruption``, ``route-to-wrong-host``,
    ``route-to-dead-port``.
    """
    table = ResultTable("§4.3.2 — packet type and source route corruption")

    # --- mapping packet corruption (0x0005 -> 0x000x) -------------------
    testbed = Testbed(TestbedOptions(
        seed=derive_seed(seed, 0, "mapping-type-corruption")
    ))
    testbed.settle()
    mapper = testbed.network.mapper().mcp
    assert testbed.device is not None
    testbed.device.configure("R", _mapping_type_config())
    rounds_before = len(mapper.map_history)
    testbed.sim.run_for(3 * testbed.options.map_interval_ps)
    armed_maps = mapper.map_history[rounds_before:]
    removed = all("pc" not in m.entries for m in armed_maps)
    tables_lost_pc = all(
        testbed.network.host("pc").interface.mac not in
        host.interface.routing_table
        for name, host in testbed.network.hosts.items() if name != "pc"
    )
    testbed.device.injector("R").set_match_mode(MatchMode.OFF)
    testbed.sim.run_for(2 * testbed.options.map_interval_ps)
    restored = "pc" in mapper.map_history[-1].entries
    result = ExperimentResult(name="mapping-type-corruption")
    result.extras.update(removed=removed, restored=restored)
    table.add(
        result,
        target="mapping packet (0x0005)",
        observed=(
            f"node removed={removed}, tables updated={tables_lost_pc}, "
            f"back next round={restored}"
        ),
        paper="node removed from network until next mapping packet",
    )

    # --- data packet corruption (0x0004) --------------------------------
    experiment = Experiment(
        "data-type-corruption",
        duration_ps=10 * MS,
        plan=FaultPlan(
            "R",
            InjectorConfig(
                match_mode=MatchMode.ON,
                compare_data=0x0004,
                compare_mask=0xFFFF,
                corrupt_mode=CorruptMode.TOGGLE,
                corrupt_data=0x00F0,
                crc_fixup=True,
            ),
            use_serial=False,
        ),
        workload_config=WorkloadConfig(send_interval_ps=200 * US,
                                       flood_ping=False),
        testbed_options=TestbedOptions(
            seed=derive_seed(seed, 1, "data-type-corruption")
        ),
    )
    data_result = experiment.run()
    testbed2 = data_result.extras["testbed"]
    tables_intact = all(
        len(host.interface.routing_table) == 2
        for host in testbed2.network.hosts.values()
    )
    table.add(
        data_result,
        target="data packet (0x0004)",
        observed=(
            f"unknown-type drops={data_result.total_host_counter('unknown_type_drops')}, "
            f"routing tables intact={tables_intact}, "
            f"misdeliveries={data_result.active_misdeliveries}"
        ),
        paper="packets dropped; routing table unchanged",
    )

    # --- source route MSB set on arrival at the destination -------------
    msb_config = InjectorConfig(
        match_mode=MatchMode.ON,
        # Window: [lane1]=GAP control symbol, [lane0]=leading 0x00 of the
        # type field — i.e. the first byte the destination interface sees.
        compare_data=(GAP_VALUE << 8) | 0x00,
        compare_mask=0xFFFF,
        compare_ctl=0b0001,      # lane1 control, lane0 data
        compare_ctl_mask=0b0011,
        corrupt_mode=CorruptMode.REPLACE,
        corrupt_data=0x80,
        corrupt_mask=0xFF,
        crc_fixup=True,
    )
    experiment = Experiment(
        "route-msb-corruption",
        duration_ps=10 * MS,
        plan=FaultPlan("L", msb_config, use_serial=False),
        workload_config=WorkloadConfig(send_interval_ps=200 * US,
                                       flood_ping=False),
        testbed_options=TestbedOptions(
            seed=derive_seed(seed, 2, "route-msb-corruption")
        ),
    )
    msb_result = experiment.run()
    consume_errors = msb_result.host_stats["pc"]["consume_errors"]
    table.add(
        msb_result,
        target="source route MSB at destination",
        observed=(
            f"consume errors={consume_errors}, misdeliveries="
            f"{msb_result.active_misdeliveries}, corrupted deliveries="
            f"{msb_result.corrupted_deliveries}"
        ),
        paper="consumed and handled as an error, without incident",
    )

    # --- misrouting: redirect and dead-port route bytes ------------------
    for index, (name, new_route, paper_text) in enumerate((
        ("route-to-wrong-host", 0x82,
         "expected losses; not accepted by incorrect nodes"),
        ("route-to-dead-port", 0x87,
         "expected losses; no error propagation"),
    ), start=3):
        route_config = InjectorConfig(
            match_mode=MatchMode.ON,
            # Window: GAP then the route byte 0x81 (pc -> switch port 1).
            compare_data=(GAP_VALUE << 8) | 0x81,
            compare_mask=0xFFFF,
            compare_ctl=0b0001,
            compare_ctl_mask=0b0011,
            corrupt_mode=CorruptMode.REPLACE,
            corrupt_data=new_route,
            corrupt_mask=0xFF,
            crc_fixup=True,
        )
        experiment = Experiment(
            name,
            duration_ps=10 * MS,
            plan=FaultPlan("R", route_config, use_serial=False),
            workload_config=WorkloadConfig(send_interval_ps=200 * US,
                                           flood_ping=False),
            testbed_options=TestbedOptions(
                seed=derive_seed(seed, index, name)
            ),
        )
        result = experiment.run()
        table.add(
            result,
            target=name,
            observed=(
                f"lost={result.messages_lost}, misaddressed="
                f"{result.total_host_counter('misaddressed_drops')}, "
                f"routing errors="
                f"{result.total_switch_counter('routing_errors')}, "
                f"misdeliveries={result.active_misdeliveries}"
            ),
            paper=paper_text,
        )
    return table


# ---------------------------------------------------------------------------
# §4.3.3 — physical address corruption (and Figure 11)
# ---------------------------------------------------------------------------


def _mac_pattern(testbed: Testbed, host: str) -> bytes:
    """The distinguishing low 4 bytes of a host's 48-bit address."""
    return testbed.network.host(host).interface.mac.to_bytes()[2:]


def sec433_addresses(seed: int = 0) -> Tuple[ResultTable, Dict[str, List[str]]]:
    """§4.3.3: the four address-corruption campaigns.

    Returns the result table and the Figure 11 artifacts (network map
    renders before and during the controller-address conflict).

    Seeds follow the module's rule at indices 0–3:
    ``destination-corruption``, ``own-address-corruption``,
    ``controller-address-conflict``, ``nonexistent-address``.
    """
    table = ResultTable("§4.3.3 — physical address corruption")
    artifacts: Dict[str, List[str]] = {}

    # --- (a) destination corruption, CRC left stale ----------------------
    def _address_swap_run(index: int, name: str, direction: str,
                          crc_fixup: bool, source: str, target: str):
        options = TestbedOptions(seed=derive_seed(seed, index, name))
        probe = Testbed(options)  # to read the auto-assigned addresses
        match = _mac_pattern(probe, source)
        replacement = _mac_pattern(probe, target)
        config = replace_bytes(match, replacement,
                               match_mode=MatchMode.ON, crc_fixup=crc_fixup)
        experiment = Experiment(
            name,
            duration_ps=10 * MS,
            plan=FaultPlan(direction, config, use_serial=False),
            workload_config=WorkloadConfig(send_interval_ps=200 * US,
                                           flood_ping=False),
            testbed_options=options,
        )
        return experiment.run()

    dest = _address_swap_run(0, "destination-corruption", "R", False,
                             "sparc1", "sparc2")
    table.add(
        dest,
        campaign="destination address, stale CRC",
        observed=(
            f"crc drops={dest.total_host_counter('crc_errors')}, "
            f"misdeliveries={dest.active_misdeliveries}, lost="
            f"{dest.messages_lost}"
        ),
        paper="dropped; received by neither node (incorrect CRC-8)",
    )

    # --- (b) own address corrupted (CRC fixed up) ------------------------
    own = _address_swap_run(1, "own-address-corruption", "L", True,
                            "pc", "sparc1")
    own_testbed = own.extras["testbed"]
    still_mapped = "pc" in own_testbed.network.mapper().mcp.map_history[-1].entries
    table.add(
        own,
        campaign="node's own address (valid CRC)",
        observed=(
            f"misaddressed drops={own.host_stats['pc']['misaddressed_drops']}, "
            f"delivered to pc={own.host_stats['pc']['packets_received']}, "
            f"still answers mapping={still_mapped}"
        ),
        paper="unreachable, drops all as misaddressed; mapping unaffected",
    )

    # --- (c) address corrupted to the controller's ------------------------
    options = TestbedOptions(
        seed=derive_seed(seed, 2, "controller-address-conflict")
    )
    testbed = Testbed(options)
    testbed.settle()
    mapper = testbed.network.mapper().mcp
    before = mapper.map_history[-1]
    match = _mac_pattern(testbed, "pc")
    controller = _mac_pattern(testbed, testbed.network.mapper().name)
    assert testbed.device is not None
    testbed.device.configure(
        "R",
        replace_bytes(match, controller, match_mode=MatchMode.ON,
                      crc_fixup=True),
    )
    # Let several corrupted mapping rounds publish damaged tables, then
    # probe the damage: with two nodes claiming the controller's
    # address, the MAC-keyed routing entry for the controller now points
    # at the impostor, so controller-bound traffic is misrouted and
    # dropped as misaddressed — the controller becomes unreachable by
    # address even though the map "looks" populated.
    controller = testbed.network.mapper()
    controller_mac = controller.interface.mac
    testbed.sim.run_for(4 * options.map_interval_ps)
    sparc1_stack = HostStack(testbed.sim,
                             testbed.network.host("sparc1").interface,
                             rng=testbed.rng.fork("probe"))
    controller_stack = HostStack(testbed.sim, controller.interface,
                                 rng=testbed.rng.fork("probe2"))
    sink = MessageSink(controller_stack, 6000)
    pc_misaddressed_before = (
        testbed.network.host("pc").interface.misaddressed_drops
    )
    for _index in range(20):
        sparc1_stack.send_udp(controller_mac, 6000, b"to the controller")
    testbed.sim.run_for(5 * MS)
    misrouted = (
        testbed.network.host("pc").interface.misaddressed_drops
        - pc_misaddressed_before
    )
    conflict_maps = [
        m for m in mapper.map_history if m.round_index > before.round_index
    ]
    conflicts = [m for m in conflict_maps if m.conflict]
    wrong_route = testbed.network.host("sparc1").interface.routing_table.get(
        controller_mac
    )
    result = ExperimentResult(name="controller-address-conflict")
    result.extras["maps"] = conflict_maps
    table.add(
        result,
        campaign="address = controller's address",
        observed=(
            f"conflict rounds={len(conflicts)}/{len(conflict_maps)}, "
            f"controller-bound messages misrouted to impostor="
            f"{misrouted}/20 (delivered={sink.received}), "
            f"controller route now {wrong_route}"
        ),
        paper="routing table badly corrupted; map inconsistent each round",
    )
    artifacts["fig11_before"] = [before.render()]
    artifacts["fig11_after"] = [m.render() for m in conflict_maps[:3]]

    # --- (d) address corrupted to a non-existent one ----------------------
    options = TestbedOptions(
        seed=derive_seed(seed, 3, "nonexistent-address")
    )
    testbed = Testbed(options)
    testbed.settle()
    mapper = testbed.network.mapper().mcp
    match = _mac_pattern(testbed, "pc")
    assert testbed.device is not None
    testbed.device.configure(
        "R",
        replace_bytes(match, b"\x5e\x00\x00\x7f", match_mode=MatchMode.ON,
                      crc_fixup=True),
    )
    testbed.sim.run_for(3 * options.map_interval_ps)
    latest = mapper.map_history[-1]
    pc_mac = testbed.network.host("pc").interface.mac
    entry = latest.entries.get("pc")
    replaced = entry is not None and entry.mac != pc_mac
    old_mac_routable = any(
        pc_mac in host.interface.routing_table
        for name, host in testbed.network.hosts.items() if name != "pc"
    )
    result = ExperimentResult(name="nonexistent-address")
    table.add(
        result,
        campaign="address = non-existent address",
        observed=(
            f"map shows new address={replaced}, old address still "
            f"routable={old_mac_routable}"
        ),
        paper="routing table updated, as if the machine were replaced",
    )
    return table, artifacts


# ---------------------------------------------------------------------------
# §4.3.4 — UDP checksum corruption
# ---------------------------------------------------------------------------


def sec434_udp_checksum(messages: int = 40,
                        seed: int = 0) -> ResultTable:
    """§4.3.4: 16-bit-apart swaps defeat the UDP checksum.

    * swapping "Have" to "veHa" (two aligned 16-bit words exchanged)
      preserves the one's-complement sum, so the corrupted message is
      passed to the application;
    * any other corruption fails the checksum and the datagram is
      dropped by the UDP layer.

    Seeds follow the module's rule at indices 0–1 (swap, then plain
    corruption).
    """
    table = ResultTable("§4.3.4 — UDP checksum corruption")
    cases = [
        ("16-bit-apart swap", b"Have", b"veHa",
         "checksum satisfied; corrupted message passed through"),
        ("plain corruption", b"Have", b"HAVE",
         "checksum fails; packets dropped"),
    ]
    for index, (name, match, replacement, paper_text) in enumerate(cases):
        testbed = Testbed(TestbedOptions(seed=derive_seed(seed, index, name)))
        testbed.settle()
        network = testbed.network
        sender = HostStack(testbed.sim, network.host("pc").interface,
                           rng=testbed.rng.fork("tx"))
        receiver = HostStack(testbed.sim, network.host("sparc1").interface,
                             rng=testbed.rng.fork("rx"))
        sink = MessageSink(receiver, 4242, store_limit=messages)
        assert testbed.device is not None
        testbed.device.configure(
            "R",
            replace_bytes(match, replacement, match_mode=MatchMode.ON,
                          crc_fixup=True),
        )
        for _index in range(messages):
            sender.send_udp(receiver.interface.mac, 4242,
                            b"Have a lot of fun")
        testbed.sim.run_for(20 * MS)
        corrupted = sum(
            1 for m in sink.messages if m == b"veHa a lot of fun"
        )
        result = ExperimentResult(
            name=name,
            messages_sent=messages,
            messages_received=sink.received,
            checksum_drops=receiver.checksum_drops,
        )
        result.corrupted_deliveries = corrupted
        table.add(
            result,
            corruption=name,
            sent=messages,
            delivered=sink.received,
            corrupted_delivered=corrupted,
            checksum_drops=receiver.checksum_drops,
            paper=paper_text,
        )
    return table


# ---------------------------------------------------------------------------
# §3.5 — pass-through transparency
# ---------------------------------------------------------------------------


def sec35_passthrough(duration_ps: int = 10 * MS,
                      seed: int = 0) -> ResultTable:
    """§3.5: the device is transparent in pass-through mode.

    Both Myrinet control and data packets transfer seamlessly, routes
    map through in both directions, and the data transfer rate is
    unchanged.

    The direct/injector runs are a paired comparison: both share the
    single derived seed ``derive_seed(seed, 0, "passthrough")`` so the
    only difference between them is the device in the path.
    """
    table = ResultTable("§3.5 — pass-through transparency")
    run_seed = derive_seed(seed, 0, "passthrough")
    results: Dict[bool, ExperimentResult] = {}
    for with_device in (False, True):
        experiment = Experiment(
            "with-device" if with_device else "without-device",
            duration_ps=duration_ps,
            workload_config=WorkloadConfig(send_interval_ps=100 * US),
            testbed_options=TestbedOptions(seed=run_seed,
                                           with_device=with_device),
        )
        results[with_device] = experiment.run()
    for with_device, result in results.items():
        testbed = result.extras["testbed"]
        mapped = testbed.mmon.all_nodes_in_network()
        table.add(
            result,
            configuration="with injector" if with_device else "direct link",
            sent=result.messages_sent,
            received=result.messages_received,
            loss=f"{result.loss_rate:.2%}",
            msgs_per_s=f"{result.throughput_per_second:.0f}",
            routes_mapped_through=mapped,
        )
    return table

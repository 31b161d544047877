#!/usr/bin/env python
"""A miniature Table 4 campaign: corrupt Myrinet flow-control symbols.

Recreates three rows of the paper's control-symbol corruption campaign
(§4.3.1, Table 4): the network runs at full capacity while the in-path
injector, duty-cycled by the NFTAPE-style campaign runner, corrupts one
control symbol into another.  Losses come from buffer overflows (deleted
STOPs) and merged packets (corrupted GAPs); every observed fault is
passive (§4.4).

Run:  python examples/control_symbol_campaign.py        (~1 minute)
"""

from repro.core.faults import control_symbol_swap
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, GO, IDLE, STOP
from repro.nftape import Campaign, WorkloadConfig
from repro.nftape.classify import classify_result
from repro.nftape.experiment import TestbedOptions
from repro.runtime import CampaignSpec, ExperimentSpec, PlanSpec
from repro.sim.timebase import MS, US

ROWS = [
    ("STOP", STOP, "IDLE", IDLE),   # delete STOPs -> receiver overflow
    ("GAP", GAP, "GO", GO),         # delete packet tails -> merges
    ("GO", GO, "STOP", STOP),       # resume becomes stall
]


def main() -> None:
    experiments = []
    for mask_name, mask, repl_name, repl in ROWS:
        plan = PlanSpec(
            "duty_cycle", "RL",
            control_symbol_swap(mask, repl, MatchMode.ON),
            on_ps=1 * MS,
            off_ps=5 * MS,
            use_serial=False,
        )
        experiments.append(ExperimentSpec(
            f"{mask_name}->{repl_name}",
            duration_ps=12 * MS,
            plan=plan,
            workload=WorkloadConfig(send_interval_ps=4 * US),
            testbed=TestbedOptions(host_kwargs={"rx_drain_factor": 2.0}),
        ))
    campaign = Campaign.from_spec(
        CampaignSpec("mini Table 4", experiments),
        on_progress=lambda text: print(f"  ... {text}"),
    )

    table = campaign.run()
    print()
    print(table.render())
    print()
    for result in campaign.results:
        print(f"{result.name:<12} classified: {classify_result(result)}")


if __name__ == "__main__":
    main()

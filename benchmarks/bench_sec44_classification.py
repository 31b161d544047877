"""§4.4 — "Faults Considered Harmful": active/passive classification.

"Using this terminology, the faults observed in our injection campaigns
were all passive.  Data were dropped and lost, but not incorrectly
passed on."  The benchmark replays a representative slice of the
campaigns and classifies every outcome.
"""

from benchmarks.conftest import record_result, scaled_ps
from repro.core.faults import control_symbol_swap
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, GO, IDLE, STOP
from repro.nftape import Campaign, WorkloadConfig
from repro.nftape.classify import FaultClass, classify_result
from repro.nftape.experiment import TestbedOptions
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
from repro.sim.timebase import MS, US

WORKLOAD = WorkloadConfig(send_interval_ps=4 * US)
OPTIONS = TestbedOptions(host_kwargs={"rx_drain_factor": 2.0})


def _experiment(name, plan):
    return ExperimentSpec(
        name, duration_ps=scaled_ps(8 * MS), plan=plan,
        workload=WORKLOAD, testbed=OPTIONS,
    )


def _campaign():
    return Campaign.from_spec(CampaignSpec("§4.4 classification slice", [
        _experiment("stop-deletion", PlanSpec(
            "fault", "RL", control_symbol_swap(STOP, IDLE, MatchMode.ON),
            use_serial=False)),
        _experiment("gap-merge", PlanSpec(
            "duty_cycle", "RL", control_symbol_swap(GAP, GO, MatchMode.ON),
            on_ps=1 * MS, off_ps=3 * MS, use_serial=False)),
        _experiment("go-stall", PlanSpec(
            "fault", "RL", control_symbol_swap(GO, STOP, MatchMode.ON),
            use_serial=False)),
    ]))


def test_sec44_all_observed_faults_are_passive(benchmark):
    campaign = _campaign()
    table = benchmark.pedantic(campaign.run, rounds=1, iterations=1)

    lines = [table.render(), "", "classification detail:"]
    for result in campaign.results:
        classified = classify_result(result)
        lines.append(f"  {result.name:<16} {classified}")
        # The §4.4 headline: no fault passes incorrect data upward.
        assert classified.fault_class is not FaultClass.ACTIVE
        assert result.active_misdeliveries == 0
        assert result.corrupted_deliveries == 0
    # The injected faults did have passive effects.
    assert any(
        classify_result(r).fault_class is FaultClass.PASSIVE
        for r in campaign.results
    )
    record_result("sec44_classification", "\n".join(lines))

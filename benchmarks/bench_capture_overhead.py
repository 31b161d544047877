"""Observation overhead — the same campaign unobserved and observed.

``repro.telemetry`` promises that the disabled path is one slot load per
hook site and that the enabled path only observes.  This benchmark runs
an identical control-symbol campaign twice — same seeds, same SDRAM
monitor configuration, so the simulated work is bit-identical — once
with no session and once under an
:class:`~repro.telemetry.session.ObservationSession` (metrics, spans and
the capture flight recorder), and records both wall times in
``BENCH_capture.json`` at the repo root (the committed snapshot is the
overhead baseline; regenerate with the same ``REPRO_BENCH_SCALE`` to
compare).

The observation-only contract shows up as hard assertions here: both
variants must render the same campaign table, and at full scale the
observed run must fire exactly the kernel events the unobserved
campaign fired when it was first measured.
"""

import json
import pathlib
import time

from benchmarks.conftest import record_result, scaled_ps
from repro.core.faults import control_symbol_swap
from repro.core.monitor import MonitorConfig
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, IDLE
from repro.nftape.campaign import Campaign
from repro.nftape.experiment import TestbedOptions
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
from repro.sim.timebase import MS
from repro.telemetry import ObservationSession

#: Repo-root overhead artifact: variant -> {wall_s, sim_events, ...}.
BENCH_CAPTURE_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_capture.json"
)


def _build_campaign(duration_ps: int) -> Campaign:
    """The CLI demo campaign, fixed at two experiments and base seed 0.

    SDRAM monitors are enabled in *both* variants so the simulated work
    (and therefore the kernel event stream) is identical — the only
    difference between the runs is the observation session.
    """
    experiments = []
    for source, target in [(IDLE, GAP), (GAP, IDLE)]:
        plan = PlanSpec(
            "duty_cycle", "RL",
            control_symbol_swap(source, target, MatchMode.ON),
            on_ps=duration_ps // 8,
            off_ps=duration_ps // 2,
            use_serial=False,
        )
        experiments.append(ExperimentSpec(
            f"{source.name}->{target.name}",
            duration_ps=duration_ps,
            plan=plan,
            testbed=TestbedOptions(
                device_kwargs={
                    "monitor_config": MonitorConfig(
                        enabled=True, pre_symbols=128, post_symbols=128
                    ),
                },
            ),
        ))
    return Campaign.from_spec(
        CampaignSpec("capture overhead campaign", experiments))


#: Kernel events the campaign fires at ``REPRO_BENCH_SCALE=1.0``, as the
#: unobserved variant measured them under a telemetry-only session.
FULL_SCALE_SIM_EVENTS = 834


def _run_variant(duration_ps: int, observed: bool) -> dict:
    """Run the campaign; return its table, wall time and, when
    observed, the kernel event count and recorder stats."""
    campaign = _build_campaign(duration_ps)
    started = time.perf_counter()
    if observed:
        with ObservationSession(label=campaign.name) as session:
            table = campaign.run()
    else:
        table = campaign.run()
    wall_s = time.perf_counter() - started
    row = {"wall_s": round(wall_s, 6), "table": table.render()}
    if observed:
        sim_events = int(session.registry.value("sim.events_fired"))
        recorder = session.recorder
        row.update(
            sim_events=sim_events,
            events_per_s=round(sim_events / wall_s, 1) if wall_s else 0.0,
            lifecycle_events=len(recorder.frames) + recorder.events_dropped,
            corr_ids_assigned=recorder.corr_ids_assigned,
        )
    return row


def test_capture_overhead(benchmark):
    duration_ps = scaled_ps(2 * MS)

    def run_both():
        # Untimed warm-up: the first observed run pays one-time costs
        # (lazy imports, first metric series) that are not overhead.
        _run_variant(duration_ps, observed=True)
        return (
            _run_variant(duration_ps, observed=False),
            _run_variant(duration_ps, observed=True),
        )

    off, on = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # Observation-only: observing must not change the simulation.
    assert off.pop("table") == on.pop("table")
    if duration_ps == 2 * MS:
        assert on["sim_events"] == FULL_SCALE_SIM_EVENTS, on
    # The observed run actually recorded provenance.
    assert on["lifecycle_events"] > 0
    assert on["corr_ids_assigned"] > 0

    ratio = (
        round(on["wall_s"] / off["wall_s"], 3) if off["wall_s"] else 0.0
    )
    document = {
        "generated_by": "benchmarks/bench_capture_overhead.py",
        "schema": "variant -> {wall_s, sim_events, events_per_s, ...}",
        "bench_scale": round(duration_ps / (2 * MS), 3),
        "no_session": off,
        "observation_session": on,
        "wall_ratio_observed_over_unobserved": ratio,
    }
    BENCH_CAPTURE_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        "observation overhead (same campaign, no session vs "
        "ObservationSession)",
        f"  no session:          {off['wall_s']:.3f}s",
        f"  observation session: {on['sim_events']} events in "
        f"{on['wall_s']:.3f}s ({on['events_per_s']:,.0f} events/s), "
        f"{on['lifecycle_events']} lifecycle events, "
        f"{on['corr_ids_assigned']} correlation ids",
        f"  wall ratio observed/unobserved: {ratio}",
    ]
    record_result("capture_overhead", "\n".join(lines))

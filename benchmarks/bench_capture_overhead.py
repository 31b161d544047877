"""Capture overhead — the same campaign with the flight recorder off/on.

``repro.capture`` promises that the disabled path is one slotted
attribute read per hook site and that the enabled path only appends to a
bounded deque.  This benchmark runs an identical control-symbol campaign
twice — same seeds, same SDRAM monitor configuration, so the simulated
work is bit-identical — varying only whether a
:class:`~repro.capture.session.CaptureSession` is active, and records
both wall-clock rates in ``BENCH_capture.json`` at the repo root (the
committed snapshot is the overhead baseline; regenerate with the same
``REPRO_BENCH_SCALE`` to compare).

The observation-only contract shows up as a hard assertion here: both
variants must fire exactly the same number of kernel events.
"""

import json
import pathlib

from benchmarks.conftest import record_result, scaled_ps
from repro.capture import CaptureSession
from repro.core.faults import control_symbol_swap
from repro.core.monitor import MonitorConfig
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, IDLE
from repro.nftape.campaign import Campaign
from repro.nftape.experiment import TestbedOptions
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
from repro.sim.timebase import MS
from repro.telemetry import TelemetrySession

#: Repo-root overhead artifact: variant -> {wall_s, sim_events, ...}.
BENCH_CAPTURE_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_capture.json"
)


def _build_campaign(duration_ps: int) -> Campaign:
    """The CLI demo campaign, fixed at two experiments and base seed 0.

    SDRAM monitors are enabled in *both* variants so the simulated work
    (and therefore the kernel event stream) is identical — the only
    difference between the runs is the flight recorder.
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


def _run_variant(duration_ps: int, with_capture: bool) -> dict:
    """Run the campaign; return wall/sim rates (+ recorder stats)."""
    campaign = _build_campaign(duration_ps)
    # A telemetry session provides the wall clock (the SIM001
    # allowance) and the kernel event count for this variant alone.
    session = TelemetrySession(label=f"capture={'on' if with_capture else 'off'}")
    if with_capture:
        capture = CaptureSession(label=campaign.name)
        with session, capture:
            campaign.run()
    else:
        with session:
            campaign.run()
    wall_s = session.wall_s or 0.0
    sim_events = int(session.registry.value("sim.events_fired"))
    row = {
        "wall_s": round(wall_s, 6),
        "sim_events": sim_events,
        "events_per_s": round(sim_events / wall_s, 1) if wall_s else 0.0,
    }
    if with_capture:
        recorder = capture.recorder
        row["lifecycle_events"] = (
            len(recorder.events) + recorder.events_dropped
        )
        row["corr_ids_assigned"] = recorder.corr_ids_assigned
    return row


def test_capture_overhead(benchmark):
    duration_ps = scaled_ps(2 * MS)

    def run_both():
        return (
            _run_variant(duration_ps, with_capture=False),
            _run_variant(duration_ps, with_capture=True),
        )

    off, on = benchmark.pedantic(run_both, rounds=1, iterations=1)

    # Observation-only: enabling capture must not change the simulation.
    assert off["sim_events"] == on["sim_events"], (off, on)
    # The enabled path actually recorded provenance.
    assert on["lifecycle_events"] > 0
    assert on["corr_ids_assigned"] > 0

    ratio = (
        round(on["wall_s"] / off["wall_s"], 3) if off["wall_s"] else 0.0
    )
    document = {
        "generated_by": "benchmarks/bench_capture_overhead.py",
        "schema": "variant -> {wall_s, sim_events, events_per_s, ...}",
        "bench_scale": round(duration_ps / (2 * MS), 3),
        "capture_off": off,
        "capture_on": on,
        "wall_ratio_on_over_off": ratio,
    }
    BENCH_CAPTURE_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        "capture overhead (same campaign, flight recorder off vs on)",
        f"  off: {off['sim_events']} events in {off['wall_s']:.3f}s "
        f"({off['events_per_s']:,.0f} events/s)",
        f"  on:  {on['sim_events']} events in {on['wall_s']:.3f}s "
        f"({on['events_per_s']:,.0f} events/s), "
        f"{on['lifecycle_events']} lifecycle events, "
        f"{on['corr_ids_assigned']} correlation ids",
        f"  wall ratio on/off: {ratio}",
    ]
    record_result("capture_overhead", "\n".join(lines))

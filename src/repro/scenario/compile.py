"""The scenario compiler: declarative documents → campaign specs.

:func:`compile_scenario` is a **pure function** from a
:class:`~repro.scenario.model.ScenarioDoc` (or its plain-dict form) to a
:class:`~repro.runtime.spec.CampaignSpec`.  It allocates nothing global,
draws no randomness of its own (SEU seeds are *derived* from the
scenario seed with the campaign seed rule), and therefore compiles the
same document to an equal spec every time — which is what lets library
scenarios be gated by golden digests.

Compilation errors are :class:`~repro.errors.ScenarioError` with a
JSON-pointer location, same as the codec: the caller cannot tell (and
does not care) whether a document died in parsing or in compilation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.faults import control_symbol_swap
from repro.core.monitor import MonitorConfig
from repro.errors import ConfigurationError, ScenarioError
from repro.hw.registers import MatchMode
from repro.myrinet.network import (
    FabricSpec,
    line_fabric,
    star_fabric,
    tree_fabric,
)
from repro.myrinet.symbols import GAP, GO, IDLE, STOP
from repro.nftape.experiment import TestbedOptions
from repro.nftape.workload import WorkloadConfig
from repro.runtime.seeding import derive_seed
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
from repro.scenario.codec import scenario_from_json
from repro.scenario.model import (
    FaultSpec,
    ScenarioDoc,
    ScenarioExperiment,
    TrafficSpec,
)
from repro.sim.timebase import MS, US

__all__ = [
    "MAX_FABRIC_HOSTS",
    "MAX_FABRIC_SWITCHES",
    "compile_scenario",
]

#: Budget caps: fabrics compile to full simulations, and settling a
#: network grows with hosts × switches — beyond this the document is
#: rejected rather than silently compiling an hours-long campaign.
MAX_FABRIC_HOSTS = 12
MAX_FABRIC_SWITCHES = 6

_SYMBOLS = {"STOP": STOP, "GO": GO, "GAP": GAP, "IDLE": IDLE}

#: Per-kind traffic presets (fields a TrafficSpec override can replace).
_TRAFFIC_PRESETS: Dict[str, Dict[str, Any]] = {
    "paper": {},
    "udp_flood": {"send_interval_us": 4.0, "payload_size": 64},
    "ping_pong": {"send_interval_us": 1000.0, "flood_ping": True},
    "heavy_tail": {"send_interval_us": 500.0, "burst_max": 16,
                   "burst_alpha": 1.3},
    "mapping_storm": {"map_interval_ms": 2.0},
}


def _ps(value_us: float) -> int:
    """Microseconds (possibly fractional) → integer picoseconds."""
    return int(round(value_us * US))


def _ps_ms(value_ms: float) -> int:
    return int(round(value_ms * MS))


def _build_fabric_spec(doc: ScenarioDoc) -> Optional[FabricSpec]:
    topology = doc.topology
    location = "/topology"
    if topology.kind == "paper":
        return None
    if topology.kind == "star":
        fabric = star_fabric(topology.hosts, ports=topology.ports)
    elif topology.kind == "line":
        fabric = line_fabric(topology.switches, topology.hosts_per_switch,
                             ports=topology.ports)
    elif topology.kind == "tree":
        fabric = tree_fabric(topology.leaves, topology.hosts_per_leaf,
                             ports=topology.ports)
    elif topology.kind == "custom":
        if topology.custom is None:
            raise ScenarioError(
                f"{location}/custom", "a custom topology needs a fabric"
            )
        fabric = topology.custom
    else:
        raise ScenarioError(
            f"{location}/kind", f"unknown topology kind {topology.kind!r}"
        )
    try:
        fabric.validate()
    except ConfigurationError as exc:
        raise ScenarioError(location, str(exc)) from None
    if len(fabric.hosts) > MAX_FABRIC_HOSTS:
        raise ScenarioError(
            location,
            f"{len(fabric.hosts)} hosts exceeds the fabric budget of "
            f"{MAX_FABRIC_HOSTS}"
        )
    if len(fabric.switches) > MAX_FABRIC_SWITCHES:
        raise ScenarioError(
            location,
            f"{len(fabric.switches)} switches exceeds the fabric budget "
            f"of {MAX_FABRIC_SWITCHES}"
        )
    return fabric


def _merge_traffic(base: TrafficSpec,
                   override: Optional[TrafficSpec]) -> TrafficSpec:
    """Experiment-level traffic replaces the scenario-level model."""
    if override is None:
        return base
    return override


def _effective_traffic(traffic: TrafficSpec, location: str) -> Dict[str, Any]:
    """Preset values with the spec's explicit overrides applied."""
    if traffic.kind not in _TRAFFIC_PRESETS:
        raise ScenarioError(
            f"{location}/kind", f"unknown traffic kind {traffic.kind!r}"
        )
    values = dict(_TRAFFIC_PRESETS[traffic.kind])
    for key in ("payload_size", "send_interval_us", "burst_max",
                "burst_alpha", "flood_ping", "map_interval_ms"):
        override = getattr(traffic, key)
        if override is not None:
            values[key] = override
    return values


def _build_workload(values: Dict[str, Any]) -> WorkloadConfig:
    kwargs: Dict[str, Any] = {}
    if "payload_size" in values:
        kwargs["payload_size"] = int(values["payload_size"])
    if "send_interval_us" in values:
        kwargs["send_interval_ps"] = _ps(values["send_interval_us"])
    if "flood_ping" in values:
        kwargs["flood_ping"] = bool(values["flood_ping"])
    if "burst_max" in values:
        kwargs["burst_max"] = int(values["burst_max"])
    if "burst_alpha" in values:
        kwargs["burst_alpha"] = float(values["burst_alpha"])
    return WorkloadConfig(**kwargs)


def _build_plan(fault: FaultSpec, location: str, *,
                scenario_seed: int, experiment_index: int,
                experiment_name: str) -> PlanSpec:
    config = None
    if fault.kind != "seu":
        if fault.swap is not None and fault.config is not None:
            raise ScenarioError(
                location, "give either swap or config, not both"
            )
        if fault.swap is not None:
            source, target = fault.swap
            for position, name in enumerate(fault.swap):
                if name not in _SYMBOLS:
                    raise ScenarioError(
                        f"{location}/swap/{position}",
                        f"unknown control symbol {name!r}; expected one "
                        f"of {sorted(_SYMBOLS)}"
                    )
            match_mode = (
                MatchMode.ONCE if fault.kind == "fault"
                and fault.rearm_interval_us is not None
                else MatchMode.ON
            )
            config = control_symbol_swap(
                _SYMBOLS[source], _SYMBOLS[target], match_mode
            )
        elif fault.config is not None:
            config = fault.config
        else:
            raise ScenarioError(
                location,
                f"fault kind {fault.kind!r} needs a swap or a config"
            )
    elif fault.swap is not None or fault.config is not None:
        raise ScenarioError(
            location, "seu faults synthesize their own configs; "
            "drop swap/config"
        )
    seed = fault.seed
    if seed is None:
        seed = derive_seed(
            scenario_seed, experiment_index,
            f"{experiment_name}:{fault.id}",
        )
    try:
        return PlanSpec(
            kind=fault.kind,
            direction=fault.direction,
            config=config,
            use_serial=fault.use_serial,
            rearm_interval_ps=(
                None if fault.rearm_interval_us is None
                else _ps(fault.rearm_interval_us)
            ),
            on_ps=_ps(fault.on_us),
            off_ps=_ps(fault.off_us),
            interval_ps=_ps(fault.interval_us),
            mean_interval_ps=_ps(fault.mean_interval_us),
            seed=seed,
            flip_control_bit_probability=(
                fault.flip_control_bit_probability
            ),
        )
    except ConfigurationError as exc:
        raise ScenarioError(location, str(exc)) from None


def _check_faults(experiment: ScenarioExperiment, location: str) -> None:
    seen_ids: Dict[str, int] = {}
    seen_directions: Dict[str, str] = {}
    for index, fault in enumerate(experiment.faults):
        if fault.id in seen_ids:
            raise ScenarioError(
                f"{location}/faults/{index}/id",
                f"duplicate injector id {fault.id!r} "
                f"(first used at {location}/faults/{seen_ids[fault.id]})"
            )
        seen_ids[fault.id] = index
        for direction in fault.direction:
            if direction in seen_directions:
                raise ScenarioError(
                    f"{location}/faults/{index}/direction",
                    f"injector direction {direction!r} already driven by "
                    f"fault {seen_directions[direction]!r}; simultaneous "
                    "faults need distinct directions"
                )
            seen_directions[direction] = fault.id


def _sweep_points(
    experiment: ScenarioExperiment,
) -> List[Tuple[str, Optional[str], Optional[float]]]:
    """``(name, swept_field, value)`` rows, one per compiled experiment."""
    if experiment.sweep is None:
        return [(experiment.name, None, None)]
    points = []
    for value in experiment.sweep.values:
        rendered = int(value) if float(value).is_integer() else value
        points.append((
            f"{experiment.name}@{experiment.sweep.field}={rendered}",
            experiment.sweep.field,
            float(value),
        ))
    return points


def _apply_sweep_to_fault(fault: FaultSpec, field_name: str,
                          value: float) -> FaultSpec:
    if field_name == "on_us":
        return dataclasses.replace(fault, on_us=value)
    if field_name == "off_us":
        return dataclasses.replace(fault, off_us=value)
    if field_name == "interval_us":
        return dataclasses.replace(fault, interval_us=value)
    if field_name == "mean_interval_us":
        return dataclasses.replace(fault, mean_interval_us=value)
    return fault


def compile_scenario(
    doc: Union[ScenarioDoc, Dict[str, Any]],
) -> CampaignSpec:
    """Compile a scenario document into a runnable campaign spec.

    Accepts either the dataclass form or plain JSON data (which goes
    through the strict codec first).  Pure and deterministic: equal
    documents compile to equal specs.
    """
    if isinstance(doc, dict):
        doc = scenario_from_json(doc)
    if not isinstance(doc, ScenarioDoc):
        raise ScenarioError(
            "/", f"expected a scenario document, got {type(doc).__name__}"
        )
    if not doc.experiments:
        raise ScenarioError("/experiments", "scenario has no experiments")

    fabric = _build_fabric_spec(doc)
    instrumented_host = doc.topology.instrumented_host
    if fabric is not None:
        if instrumented_host is None:
            instrumented_host = fabric.hosts[0]
        elif instrumented_host not in fabric.hosts:
            raise ScenarioError(
                "/topology/instrumented_host",
                f"{instrumented_host!r} is not one of the fabric's hosts"
            )
    elif instrumented_host is None:
        instrumented_host = "pc"

    device_kwargs: Dict[str, Any] = {}
    if doc.capture:
        # ~96-byte wire packets must fit in the windows for the offline
        # decoder to reassemble them whole.
        device_kwargs["monitor_config"] = MonitorConfig(
            enabled=True, pre_symbols=128, post_symbols=128
        )

    specs: List[ExperimentSpec] = []
    experiment_index = 0
    for doc_index, experiment in enumerate(doc.experiments):
        location = f"/experiments/{doc_index}"
        if not experiment.name:
            raise ScenarioError(f"{location}/name", "must not be empty")
        _check_faults(experiment, location)
        traffic = _merge_traffic(doc.traffic, experiment.traffic)
        traffic_location = (
            f"{location}/traffic" if experiment.traffic is not None
            else "/traffic"
        )
        for name, swept_field, swept_value in _sweep_points(experiment):
            values = _effective_traffic(traffic, traffic_location)
            duration_ms = (
                experiment.duration_ms
                if experiment.duration_ms is not None
                else doc.duration_ms
            )
            drain_ms = (
                experiment.drain_ms
                if experiment.drain_ms is not None
                else doc.drain_ms
            )
            faults = experiment.faults
            if swept_field is not None and swept_value is not None:
                if swept_field == "duration_ms":
                    duration_ms = swept_value
                elif swept_field in ("payload_size", "send_interval_us",
                                     "burst_max"):
                    values[swept_field] = swept_value
                else:
                    faults = tuple(
                        _apply_sweep_to_fault(f, swept_field, swept_value)
                        for f in faults
                    )

            map_interval_ms = values.pop("map_interval_ms", None)
            testbed_kwargs: Dict[str, Any] = {
                "seed": doc.seed,
                "instrumented_host": instrumented_host,
                "settle_ps": _ps_ms(doc.settle_ms),
                "device_kwargs": dict(device_kwargs),
            }
            if doc.host_rx_drain_factor is not None:
                testbed_kwargs["host_kwargs"] = {
                    "rx_drain_factor": doc.host_rx_drain_factor,
                }
            if fabric is not None:
                testbed_kwargs["topology"] = fabric
                # Fabric campaigns re-map often enough that experiments
                # see routes without waiting out the paper's interval.
                testbed_kwargs["map_interval_ps"] = 25 * MS
            if map_interval_ms is not None:
                testbed_kwargs["map_interval_ps"] = _ps_ms(map_interval_ms)

            plans = tuple(
                _build_plan(
                    fault, f"{location}/faults/{fault_index}",
                    scenario_seed=doc.seed,
                    experiment_index=experiment_index,
                    experiment_name=name,
                )
                for fault_index, fault in enumerate(faults)
            )
            params: Dict[str, Any] = {
                "scenario": doc.name,
                "traffic": traffic.kind,
                "topology": doc.topology.kind,
            }
            if plans:
                params["faults"] = ",".join(f.id for f in faults)
            if swept_field is not None:
                params["sweep_field"] = swept_field
                params["sweep_value"] = swept_value
            params.update(experiment.params)
            specs.append(ExperimentSpec(
                name=name,
                duration_ps=_ps_ms(duration_ms),
                plan=plans[0] if plans else None,
                extra_plans=plans[1:],
                workload=_build_workload(values),
                testbed=TestbedOptions(**testbed_kwargs),
                drain_ps=_ps_ms(drain_ms),
                params=params,
            ))
            experiment_index += 1
    return CampaignSpec(doc.name, specs, base_seed=doc.seed)

"""The scenario document model — frozen, declarative, compiler-facing.

A *scenario* is one level above a campaign: it names a topology, a
traffic model, and a set of fault plans in domain vocabulary ("a line
fabric of three switches", "UDP flood", "swap STOP into GO on a duty
cycle") and leaves the translation into concrete
:class:`~repro.runtime.spec.CampaignSpec` machinery to
:func:`repro.scenario.compile.compile_scenario`.  Every class here is a
frozen dataclass holding scalars and tuples only, so documents hash,
compare, and pickle exactly like the campaign specs they compile into.

Authors normally write scenarios as YAML-subset text (see
:mod:`repro.scenario.yamlish`) or JSON and go through
:func:`repro.scenario.codec.scenario_from_json`; the dataclasses are the
canonical in-memory form both share.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.hw.registers import InjectorConfig
from repro.myrinet.network import FabricSpec

__all__ = [
    "SCENARIO_VERSION",
    "TOPOLOGY_KINDS",
    "TRAFFIC_KINDS",
    "FAULT_KINDS",
    "SWEEP_FIELDS",
    "TopologySpec",
    "TrafficSpec",
    "FaultSpec",
    "SweepSpec",
    "ScenarioExperiment",
    "ScenarioDoc",
    "with_fault_windows",
]

#: Scenario document format version (the ``scenario:`` header field).
SCENARIO_VERSION = 1

#: Topology vocabularies the compiler understands.
TOPOLOGY_KINDS = ("paper", "star", "line", "tree", "custom")

#: Traffic models, each a preset over the all-pairs workload.
TRAFFIC_KINDS = ("paper", "udp_flood", "ping_pong", "heavy_tail",
                 "mapping_storm")

#: Fault kinds — the :data:`repro.runtime.spec.PLAN_KINDS` vocabulary.
FAULT_KINDS = ("fault", "duty_cycle", "inject_now", "seu")

#: Fields a :class:`SweepSpec` may vary.
SWEEP_FIELDS = ("duration_ms", "on_us", "off_us", "interval_us",
                "mean_interval_us", "payload_size", "send_interval_us",
                "burst_max")


@dataclass(frozen=True, eq=True)
class TopologySpec:
    """Which fabric the scenario runs on.

    ``kind`` selects the generator; only the fields that apply to the
    selected kind are consulted (``hosts`` for ``star``; ``switches`` /
    ``hosts_per_switch`` for ``line``; ``leaves`` / ``hosts_per_leaf``
    for ``tree``; ``custom`` carries an explicit
    :class:`~repro.myrinet.network.FabricSpec`).  ``paper`` is the
    Figure 10 three-node LAN.
    """

    kind: str = "paper"
    hosts: int = 4
    switches: int = 2
    hosts_per_switch: int = 2
    leaves: int = 2
    hosts_per_leaf: int = 2
    ports: int = 8
    instrumented_host: Optional[str] = None
    custom: Optional[FabricSpec] = None


@dataclass(frozen=True, eq=True)
class TrafficSpec:
    """Which load the hosts generate while faults are active.

    ``kind`` picks a preset; the optional fields override individual
    preset knobs (``None`` keeps the preset value).
    """

    kind: str = "paper"
    payload_size: Optional[int] = None
    send_interval_us: Optional[float] = None
    burst_max: Optional[int] = None
    burst_alpha: Optional[float] = None
    flood_ping: Optional[bool] = None
    #: ``mapping_storm``: how often the mapper re-maps the network.
    map_interval_ms: Optional[float] = None


@dataclass(frozen=True, eq=True)
class FaultSpec:
    """One named fault injector activation within an experiment.

    ``swap`` is sugar for the paper's control-symbol corruption
    (``("STOP", "GO")`` compiles through
    :func:`repro.core.faults.control_symbol_swap`); ``config`` carries an
    explicit injector register file instead.  ``seu`` faults need
    neither — they synthesize per-flip configurations and derive their
    rng seed from the scenario seed when ``seed`` is left ``None``.
    """

    id: str
    kind: str = "fault"
    direction: str = "R"
    swap: Optional[Tuple[str, str]] = None
    config: Optional[InjectorConfig] = None
    use_serial: bool = False
    rearm_interval_us: Optional[float] = None
    on_us: float = 1000.0
    off_us: float = 3000.0
    interval_us: float = 1000.0
    mean_interval_us: float = 2000.0
    seed: Optional[int] = None
    flip_control_bit_probability: float = 0.0


@dataclass(frozen=True, eq=True)
class SweepSpec:
    """Expand an experiment over a parameter axis (one value each)."""

    field: str
    values: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True, eq=True)
class ScenarioExperiment:
    """One experiment template: faults + optional overrides + sweep."""

    name: str
    faults: Tuple[FaultSpec, ...] = ()
    traffic: Optional[TrafficSpec] = None
    duration_ms: Optional[float] = None
    drain_ms: Optional[float] = None
    sweep: Optional[SweepSpec] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))


@dataclass(frozen=True, eq=True)
class ScenarioDoc:
    """A complete scenario document (the in-memory form of the DSL)."""

    name: str
    description: str = ""
    seed: int = 0
    capture: bool = False
    topology: TopologySpec = field(default_factory=TopologySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    duration_ms: float = 10.0
    drain_ms: float = 5.0
    settle_ms: float = 5.0
    experiments: Tuple[ScenarioExperiment, ...] = ()
    #: Hosts' receive drain period in link character periods (the
    #: interface's ``rx_drain_factor``); ``None`` keeps its default.
    host_rx_drain_factor: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", tuple(self.experiments))


def with_fault_windows(doc: ScenarioDoc, on_us: float,
                       off_us: float) -> ScenarioDoc:
    """``doc`` with every fault's duty-cycle windows set to
    ``on_us``/``off_us`` — how ``campaign`` and ``table4_spec`` run a
    library document at a caller-chosen scale."""
    return dataclasses.replace(doc, experiments=tuple(
        dataclasses.replace(experiment, faults=tuple(
            dataclasses.replace(fault, on_us=on_us, off_us=off_us)
            for fault in experiment.faults
        ))
        for experiment in doc.experiments
    ))

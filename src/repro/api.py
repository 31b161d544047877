"""repro.api — the stable public surface of the reproduction.

Import from here, not from the implementation packages: the names in
``__all__`` are the ones guaranteed across minor versions, whatever
internal layering changes underneath.  :data:`API_VERSION` names the
surface contract — it bumps only when a name in the **stable** tier of
``docs/api.md`` changes meaning or disappears; additions are free.  One
import serves the ways of using the repository:

* **drive the device directly** — :class:`Simulator`,
  :class:`FaultInjectorDevice`, :class:`InjectorSession`,
  :func:`build_paper_testbed`, and the fault-model helpers
  (:func:`replace_bytes`, :func:`control_symbol_swap`);
* **describe what to run declaratively** — write a scenario document
  (topology + traffic + fault plans; see docs/scenarios.md) and
  :func:`compile_scenario` it into a :class:`CampaignSpec`; the
  built-in library is reachable through :func:`list_scenarios` /
  :func:`load_scenario`, and documents round-trip as JSON via
  :func:`scenario_to_json` / :func:`scenario_from_json`;
* **run campaigns** — describe experiments as data with
  :class:`ExperimentSpec` / :class:`PlanSpec`, collect them in a
  :class:`CampaignSpec`, and execute through
  :meth:`Campaign.run <repro.nftape.campaign.Campaign.run>` with a
  :class:`SerialExecutor` or a sharded :class:`PooledExecutor` —
  pull-queue workers pushing into a queryable sqlite
  :class:`ResultStore`, with crashed/hung workers re-issued by lease
  (bit-identical results at any worker count — see docs/runtime.md);
* **regenerate the paper** — the ``table*``/``sec*`` entry points, one
  per table/figure of the evaluation, each taking the same
  ``seed: int = 0`` base seed (per-experiment seeds derive from it via
  :func:`derive_seed`);
* **observe a run** — wrap it in an :class:`ObservationSession` for
  metrics, spans and the ``capture.rcap`` flight record (see
  docs/telemetry.md and docs/capture.md);
* **analyze what ran** — feed a campaign's artifact directory to
  :func:`analyze_artifacts` for a ranked-root-cause
  :class:`IncidentReport`, and archive/query reports through
  :class:`InsightStore` (see docs/insight.md);
* **watch it live** — subscribe to executor lifecycle events through
  :class:`EventBus` / :class:`EventBusSession`, or run the whole thing
  as a service: :class:`MonitorServer` accepts CampaignSpec JSON
  (:func:`spec_to_json` / :func:`spec_from_json`) or scenario documents
  over HTTP and streams events as NDJSON/SSE (see docs/server.md).

The insight and server names load on first access, so importing this
module to run a campaign does not start up ``asyncio`` or the capture
decoder.

Example::

    from repro.api import (
        Campaign, CampaignSpec, ExperimentSpec, PlanSpec,
        PooledExecutor, control_symbol_swap, MatchMode,
    )

    from repro.api import compile_scenario, load_scenario
    table = Campaign.from_spec(
        compile_scenario(load_scenario("paper-sec35"))).run()
"""

from __future__ import annotations

import importlib
from typing import Any, List

#: The public-surface contract version ("v<major>"); see docs/api.md.
API_VERSION = "v5"

from repro.core import FaultInjectorDevice, InjectorSession
from repro.core.faults import control_symbol_swap, replace_bytes
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet import build_paper_testbed
from repro.myrinet.mapping import paper_oracle
from repro.nftape.campaign import Campaign, default_row
from repro.nftape.classify import classify_result
from repro.nftape.experiment import Experiment, Testbed, TestbedOptions
from repro.nftape.paper import (
    sec35_passthrough,
    sec431_throughput,
    sec432_packet_types,
    sec433_addresses,
    sec434_udp_checksum,
    table2_latency,
    table4_control_symbols,
    table4_spec,
)
from repro.nftape.results import ExperimentResult, ResultTable
from repro.nftape.workload import WorkloadConfig
from repro.runtime import (
    CampaignSpec,
    EventBus,
    EventBusSession,
    ExperimentSpec,
    PlanSpec,
    PooledExecutor,
    ResultStore,
    SerialExecutor,
    derive_seed,
    spec_digest,
    spec_from_json,
    spec_to_json,
)
from repro.scenario import (
    FaultSpec,
    ScenarioDoc,
    ScenarioExperiment,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    compile_scenario,
    list_scenarios,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.sim import DeterministicRng, Simulator
from repro.telemetry import ObservationSession

__all__ = [
    # surface contract
    "API_VERSION",
    # simulation substrate
    "Simulator",
    "DeterministicRng",
    # the device and its host-side session
    "FaultInjectorDevice",
    "InjectorSession",
    "InjectorConfig",
    "MatchMode",
    "CorruptMode",
    "replace_bytes",
    "control_symbol_swap",
    "build_paper_testbed",
    # test beds and experiments
    "Testbed",
    "TestbedOptions",
    "build_testbed",
    "Experiment",
    "WorkloadConfig",
    "ExperimentResult",
    "ResultTable",
    "classify_result",
    # declarative scenarios (docs/scenarios.md)
    "ScenarioDoc",
    "ScenarioExperiment",
    "TopologySpec",
    "TrafficSpec",
    "FaultSpec",
    "SweepSpec",
    "compile_scenario",
    "scenario_to_json",
    "scenario_from_json",
    "list_scenarios",
    "load_scenario",
    # declarative campaigns and executors
    "Campaign",
    "default_row",
    "CampaignSpec",
    "ExperimentSpec",
    "PlanSpec",
    "SerialExecutor",
    "PooledExecutor",
    "ResultStore",
    "derive_seed",
    "spec_digest",
    "spec_to_json",
    "spec_from_json",
    # the observation session and the live event bus
    "ObservationSession",
    "EventBus",
    "EventBusSession",
    # monitoring-as-a-service (docs/server.md)
    "MonitorServer",
    # offline incident correlation (docs/insight.md)
    "analyze_artifacts",
    "IncidentReport",
    "InsightStore",
    "paper_oracle",
    # the paper's evaluation, one entry point per table/figure
    "table2_latency",
    "table4_spec",
    "table4_control_symbols",
    "sec35_passthrough",
    "sec431_throughput",
    "sec432_packet_types",
    "sec433_addresses",
    "sec434_udp_checksum",
]


def build_testbed(**options: Any) -> Testbed:
    """A fresh known-good-state test bed from keyword options.

    Thin convenience over ``Testbed(TestbedOptions(**options))`` — the
    keywords are exactly the
    :class:`~repro.nftape.experiment.TestbedOptions` fields (``seed``,
    ``with_device``, ``host_kwargs``, …)::

        testbed = build_testbed(seed=7, with_device=True)
        testbed.settle()
    """
    return Testbed(TestbedOptions(**options))


#: Names whose implementation is imported on first access: the insight
#: engine (which decodes captures) and the asyncio server are not on a
#: campaign's path, so ``import repro.api`` does not pay for them.
_LAZY = {
    "analyze_artifacts": "repro.insight",
    "IncidentReport": "repro.insight",
    "InsightStore": "repro.insight",
    "MonitorServer": "repro.server",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))

"""Declarative scenarios: the front door of the campaign runtime.

``repro.scenario`` turns *scenario documents* — topology + traffic model
+ fault plans, written as YAML-subset text, JSON, or frozen dataclasses
— into the :class:`~repro.runtime.spec.CampaignSpec` objects the rest of
the system already runs, records, serves, and analyzes.  The package
splits cleanly:

* :mod:`repro.scenario.model` — the frozen document dataclasses;
* :mod:`repro.scenario.codec` — strict JSON codec with JSON-pointer
  error locations;
* :mod:`repro.scenario.yamlish` — stdlib YAML-subset loader;
* :mod:`repro.scenario.compile` — the pure document → campaign compiler;
* :mod:`repro.scenario.library` — named built-in scenarios, each pinned
  by a golden compile digest;
* :mod:`repro.scenario.golden` — the digest corpus behind the CI gate.
"""

from repro.scenario.compile import (
    MAX_FABRIC_HOSTS,
    MAX_FABRIC_SWITCHES,
    compile_scenario,
)
from repro.scenario.codec import scenario_from_json, scenario_to_json
from repro.scenario.library import list_scenarios, load_scenario
from repro.scenario.model import (
    SCENARIO_VERSION,
    FaultSpec,
    ScenarioDoc,
    ScenarioExperiment,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    with_fault_windows,
)

__all__ = [
    "SCENARIO_VERSION",
    "MAX_FABRIC_HOSTS",
    "MAX_FABRIC_SWITCHES",
    "ScenarioDoc",
    "ScenarioExperiment",
    "TopologySpec",
    "TrafficSpec",
    "FaultSpec",
    "SweepSpec",
    "compile_scenario",
    "scenario_from_json",
    "scenario_to_json",
    "list_scenarios",
    "load_scenario",
    "with_fault_windows",
]

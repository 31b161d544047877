"""The one field-driven codec behind spec and scenario documents.

* a table of malformed documents for both codecs, each pinned to its
  exception type, location and a message fragment;
* the strictness rules both share: string booleans, string numbers
  and nested kwargs are rejected with the field's path, on decode as on
  encode;
* the scenario library's JSON, pinned (``sort_keys``) in
  ``tests/golden/codec_library_documents.json``;
* hypothesis round trips of generated campaign specs and scenario
  documents through plain JSON.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.faults import control_symbol_swap
from repro.core.monitor import MonitorConfig
from repro.errors import ConfigurationError, ScenarioError
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.network import line_fabric, star_fabric, tree_fabric
from repro.myrinet.symbols import GAP, STOP
from repro.nftape.experiment import TestbedOptions
from repro.nftape.workload import WorkloadConfig
from repro.runtime.spec import (
    PLAN_KINDS,
    CampaignSpec,
    ExperimentSpec,
    PlanSpec,
)
from repro.runtime.spec_codec import spec_from_json, spec_to_json
from repro.scenario import (
    FaultSpec,
    ScenarioDoc,
    ScenarioExperiment,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    list_scenarios,
    load_scenario,
    scenario_from_json,
    scenario_to_json,
)
from repro.scenario.model import (
    FAULT_KINDS,
    SWEEP_FIELDS,
    TOPOLOGY_KINDS,
    TRAFFIC_KINDS,
)
from repro.sim.timebase import MS

GOLDEN = Path(__file__).parent / "golden" / "codec_library_documents.json"


def _spec_document():
    plan = PlanSpec("fault", "RL",
                    control_symbol_swap(GAP, STOP, MatchMode.ON),
                    use_serial=False)
    return spec_to_json(CampaignSpec("malformed", [ExperimentSpec(
        "a", 1 * MS, plan=plan, workload=WorkloadConfig(),
        testbed=TestbedOptions(topology=line_fabric(2, 1)),
    )]))


def _scenario_document():
    return {"scenario": 1, "name": "t", "experiments": [{"name": "e"}]}


def _parent(doc, pointer):
    *keys, last = pointer.split("/")
    for key in keys:
        doc = doc[int(key) if isinstance(doc, list) else key]
    return doc, int(last) if isinstance(doc, list) else last


def put(pointer, value):
    def mutate(doc):
        node, key = _parent(doc, pointer)
        node[key] = value
    return mutate


def drop(pointer):
    def mutate(doc):
        node, key = _parent(doc, pointer)
        del node[key]
    return mutate


def replace(value):
    return lambda doc: value


def _build(base, mutate):
    doc = base()
    replaced = mutate(doc)
    return doc if replaced is None else replaced


E0 = "experiments/0"
PLAN = f"{E0}/plan"
TESTBED = f"{E0}/testbed"
FABRIC = f"{TESTBED}/topology"
WORKLOAD = f"{E0}/workload"


def _plan_moved_to_extra(doc):
    experiment = doc["experiments"][0]
    experiment["extra_plans"] = [experiment["plan"]]
    experiment["plan"] = None


def _second_trunk(doc):
    trunks = doc["experiments"][0]["testbed"]["topology"]["trunks"]
    trunks.append(["sw0", 5, "sw1", 5])


# (id, mutation, fragments of the ConfigurationError message)
SPEC_CASES = [
    ("not-object", replace([1, 2, 3]), ["JSON object"]),
    ("missing-name", drop("name"), ["spec.name", "required"]),
    ("bad-version", put("version", 99), ["version 99", "not supported"]),
    ("experiments-not-list", put("experiments", {}),
     ["spec.experiments", "list"]),
    ("experiment-not-object", put(E0, 3),
     ["spec.experiments[0]", "JSON object"]),
    ("unknown-experiment-field", put(f"{E0}/surprise", 1),
     ["spec.experiments[0]: unknown field(s) ['surprise']"]),
    ("unknown-plan-field", put(f"{PLAN}/surprise", 1),
     ["spec.experiments[0].plan: unknown field(s) ['surprise']"]),
    ("unknown-testbed-field", put(f"{TESTBED}/surprise", 1),
     ["spec.experiments[0].testbed: unknown field(s) ['surprise']"]),
    ("unknown-config-field", put(f"{PLAN}/config/surprise", 1),
     ["spec.experiments[0].plan.config", "unknown field(s) ['surprise']"]),
    ("bad-match-mode", put(f"{PLAN}/config/match_mode", "sometimes"),
     ["spec.experiments[0].plan.config",
      "'sometimes' is not a valid MatchMode"]),
    ("bad-corrupt-mode", put(f"{PLAN}/config/corrupt_mode", 3),
     ["spec.experiments[0].plan.config", "3 is not a valid CorruptMode"]),
    ("config-out-of-range", put(f"{PLAN}/config/compare_data", 2 ** 40),
     ["compare_data 0x10000000000 outside 32-bit range"]),
    ("duration-string", put(f"{E0}/duration_ps", "fast"),
     ["spec.experiments[0].duration_ps", "got str"]),
    ("duration-bool", put(f"{E0}/duration_ps", True),
     ["spec.experiments[0].duration_ps", "got bool"]),
    ("duration-missing", drop(f"{E0}/duration_ps"),
     ["spec.experiments[0].duration_ps", "required"]),
    ("drain-float", put(f"{E0}/drain_ps", 1.5),
     ["spec.experiments[0].drain_ps", "got float"]),
    ("plan-kind-missing", drop(f"{PLAN}/kind"),
     ["spec.experiments[0].plan.kind", "required"]),
    ("plan-kind-unknown", put(f"{PLAN}/kind", "teleport"),
     ["unknown plan kind 'teleport'"]),
    ("plan-direction-bad", put(f"{PLAN}/direction", "X"),
     ["plan direction must be 'R', 'L', or 'RL', got 'X'"]),
    ("plan-probability-string",
     put(f"{PLAN}/flip_control_bit_probability", "high"),
     ["spec.experiments[0].plan.flip_control_bit_probability", "got str"]),
    ("plan-seed-float", put(f"{PLAN}/seed", 1.5),
     ["spec.experiments[0].plan.seed", "got float"]),
    ("workload-alpha-string", put(f"{WORKLOAD}/burst_alpha", "x"),
     ["spec.experiments[0].workload.burst_alpha", "got str"]),
    ("workload-forbidden-not-list", put(f"{WORKLOAD}/forbidden_bytes", "ab"),
     ["spec.experiments[0].workload.forbidden_bytes", "list"]),
    ("workload-burst-zero", put(f"{WORKLOAD}/burst_max", 0),
     ["burst_max must be >= 1"]),
    ("fabric-cycle", _second_trunk,
     ["spec.experiments[0].testbed.topology: trunk 1", "cycle"]),
    ("fabric-hosts-not-list", put(f"{FABRIC}/hosts", "h"),
     ["spec.experiments[0].testbed.topology.hosts", "list"]),
    ("fabric-switch-row-short", put(f"{FABRIC}/switches", [["sw0"]]),
     ["spec.experiments[0].testbed.topology.switches", "2"]),
    ("fabric-links-missing", drop(f"{FABRIC}/host_links"),
     ["spec.experiments[0].testbed.topology.host_links", "required"]),
    ("device-kwargs-not-object", put(f"{TESTBED}/device_kwargs", [1]),
     ["spec.experiments[0].testbed.device_kwargs",
      "JSON object, got list"]),
    ("extra-plans-not-list", put(f"{E0}/extra_plans", {"kind": "fault"}),
     ["spec.experiments[0].extra_plans", "list"]),
    ("extra-plans-without-plan", _plan_moved_to_extra,
     ["extra_plans without a primary plan"]),
    ("params-not-object", put(f"{E0}/params", [1]),
     ["spec.experiments[0].params", "JSON object, got list"]),
    ("base-seed-string", put("base_seed", "x"),
     ["spec.base_seed", "got str"]),
]

C0 = "experiments/0"
F0 = f"{C0}/faults/0"


def _fault(**fields):
    return put(f"{C0}/faults", [{"id": "f", **fields}])


def _custom(**fabric):
    return put("topology", {"kind": "custom", "custom": {
        "hosts": ["h"], "switches": [], "host_links": [], **fabric}})


# (id, mutation, ScenarioError location, message fragment)
SCENARIO_CASES = [
    ("not-object", replace([]), "/", "got list"),
    ("unknown-top-level", put("flavor", "spicy"), "/",
     "unknown field(s) ['flavor']"),
    ("bad-version", put("scenario", 99), "/scenario", "not supported"),
    ("version-string", put("scenario", "1"), "/scenario",
     "expected int, got str"),
    ("name-missing", drop("name"), "/name", "is required"),
    ("name-int", put("name", 5), "/name", "expected str, got int"),
    ("seed-bool", put("seed", True), "/seed", "expected int, got bool"),
    ("capture-string", put("capture", "yes"), "/capture",
     "expected bool, got str"),
    ("duration-string", put("duration_ms", "x"), "/duration_ms",
     "expected float, got str"),
    ("drain-factor-zero", put("host_rx_drain_factor", 0),
     "/host_rx_drain_factor", "must be > 0"),
    ("experiments-empty", put("experiments", []), "/experiments",
     "non-empty"),
    ("experiments-missing", drop("experiments"), "/experiments",
     "non-empty"),
    ("experiments-string", put("experiments", "x"), "/experiments", "list"),
    ("experiment-not-object", put(C0, 3), "/experiments/0", "got int"),
    ("experiment-unknown-field", put(f"{C0}/surprise", 1),
     "/experiments/0", "unknown field(s) ['surprise']"),
    ("topology-kind", put("topology", {"kind": "torus"}), "/topology/kind",
     "'torus'"),
    ("topology-hosts-string", put("topology", {"kind": "star", "hosts": "x"}),
     "/topology/hosts", "expected int, got str"),
    ("topology-custom-wrong-kind",
     put("topology", {"kind": "star", "custom": {
         "hosts": ["h"], "switches": [], "host_links": []}}),
     "/topology/custom", "only kind 'custom' takes a custom fabric"),
    ("topology-custom-missing", put("topology", {"kind": "custom"}),
     "/topology/custom", ""),
    ("custom-hosts-string", _custom(hosts="h"), "/topology/custom/hosts",
     "list"),
    ("custom-unknown-field", _custom(wires=[]), "/topology/custom",
     "unknown field(s) ['wires']"),
    ("traffic-kind", put("traffic", {"kind": "carrier"}), "/traffic/kind",
     "'carrier'"),
    ("traffic-flood-string", put("traffic", {"flood_ping": "false"}),
     "/traffic/flood_ping", "expected bool, got str"),
    ("experiment-traffic-kind", put(f"{C0}/traffic", {"kind": "carrier"}),
     "/experiments/0/traffic/kind", "'carrier'"),
    ("fault-id-missing", put(f"{C0}/faults", [{"kind": "fault"}]),
     f"/{F0}/id", "is required"),
    ("fault-kind", _fault(kind="gamma"), f"/{F0}/kind", "'gamma'"),
    ("fault-swap-short", _fault(swap=["STOP"]), f"/{F0}/swap", ""),
    ("faults-not-list", put(f"{C0}/faults", {"id": "f"}),
     "/experiments/0/faults", "list"),
    ("fault-unknown-field", _fault(zap=1), f"/{F0}",
     "unknown field(s) ['zap']"),
    ("fault-config-unknown", _fault(config={"zap": 1}), f"/{F0}/config",
     "unknown field(s) ['zap']"),
    ("fault-use-serial-string", _fault(use_serial="false"),
     f"/{F0}/use_serial", "expected bool, got str"),
    ("fault-on-us-string", _fault(on_us="x"), f"/{F0}/on_us",
     "expected float, got str"),
    ("fault-seed-float", _fault(seed=1.5), f"/{F0}/seed",
     "expected int, got float"),
    ("sweep-field", put(f"{C0}/sweep", {"field": "warp", "values": [1]}),
     "/experiments/0/sweep/field", "'warp'"),
    ("sweep-values-empty", put(f"{C0}/sweep", {"field": "on_us",
                                              "values": []}),
     "/experiments/0/sweep/values", "non-empty list of numbers"),
    ("sweep-values-missing", put(f"{C0}/sweep", {"field": "on_us"}),
     "/experiments/0/sweep/values", "non-empty list of numbers"),
    ("sweep-unknown-field",
     put(f"{C0}/sweep", {"field": "on_us", "values": [1], "step": 2}),
     "/experiments/0/sweep", "unknown field(s) ['step']"),
    ("params-nested", put(f"{C0}/params", {"a": [1]}),
     "/experiments/0/params/a", "scalars only"),
    ("params-not-object", put(f"{C0}/params", [1]),
     "/experiments/0/params", "got list"),
    # Located one node deeper than the hand-written codec placed them.
    ("fault-config-match-mode", _fault(config={"match_mode": "sometimes"}),
     f"/{F0}/config/match_mode", "'sometimes' is not a valid MatchMode"),
    ("fault-swap-not-strings", _fault(swap=["STOP", 1]), f"/{F0}/swap/1",
     "got int"),
    ("sweep-values-strings",
     put(f"{C0}/sweep", {"field": "on_us", "values": ["a"]}),
     "/experiments/0/sweep/values/0", "got str"),
    ("sweep-values-bool",
     put(f"{C0}/sweep", {"field": "on_us", "values": [True]}),
     "/experiments/0/sweep/values/0", "got bool"),
    ("custom-switch-row-short", _custom(switches=[["s"]]),
     "/topology/custom/switches/0", "2"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("mutate, fragments", [
        pytest.param(mutate, fragments, id=name)
        for name, mutate, fragments in SPEC_CASES
    ])
    def test_spec_document(self, mutate, fragments):
        with pytest.raises(ConfigurationError) as err:
            spec_from_json(_build(_spec_document, mutate))
        for fragment in fragments:
            assert fragment in str(err.value)

    @pytest.mark.parametrize("mutate, location, fragment", [
        pytest.param(mutate, location, fragment, id=name)
        for name, mutate, location, fragment in SCENARIO_CASES
    ])
    def test_scenario_document(self, mutate, location, fragment):
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(_build(_scenario_document, mutate))
        assert err.value.location == location
        assert fragment in str(err.value)

    def test_the_base_documents_decode(self):
        spec_from_json(_spec_document())
        scenario_from_json(_scenario_document())


class TestStrictness:
    """Input the hand-written decoders coerced or let through."""

    @pytest.mark.parametrize("pointer, value, path", [
        (f"{PLAN}/use_serial", "false", "plan.use_serial"),
        (f"{PLAN}/config/crc_fixup", "no", "plan.config.crc_fixup"),
        (f"{WORKLOAD}/flood_ping", "false", "workload.flood_ping"),
        (f"{TESTBED}/with_device", "false", "testbed.with_device"),
        (f"{WORKLOAD}/forbidden_bytes", ["7"],
         "workload.forbidden_bytes[0]"),
    ], ids=["use_serial", "crc_fixup", "flood_ping", "with_device",
            "forbidden_byte"])
    def test_spec_rejects_strings_for_bools_and_ints(self, pointer, value,
                                                     path):
        document = _build(_spec_document, put(pointer, value))
        with pytest.raises(ConfigurationError) as err:
            spec_from_json(document)
        assert str(err.value).startswith(f"spec.experiments[0].{path}: ")

    @pytest.mark.parametrize("pointer, value", [
        (f"{TESTBED}/host_kwargs", {"mtu": [1]}),
        (f"{TESTBED}/switch_kwargs", {"mtu": {"b": 1}}),
        (f"{TESTBED}/device_kwargs", {"mtu": [1]}),
        (f"{WORKLOAD}/stack_kwargs", {"mtu": {"y": 1}}),
        (f"{E0}/params", {"mtu": [1]}),
    ], ids=["host", "switch", "device", "stack", "params"])
    def test_spec_rejects_nested_kwargs_on_decode(self, pointer, value):
        document = _build(_spec_document, put(pointer, value))
        field = pointer.rsplit("/", 1)[-1]
        with pytest.raises(ConfigurationError,
                           match=rf"{field}\.mtu: holds JSON scalars only"):
            spec_from_json(document)

    def test_scenario_injector_config_rejects_a_string_bool(self):
        document = _build(_scenario_document, _fault(config={
            "crc_fixup": "no"}))
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(document)
        assert err.value.location == f"/{F0}/config/crc_fixup"

    def test_scenario_params_are_scalar_on_encode(self):
        doc = ScenarioDoc("t", experiments=(ScenarioExperiment(
            "e", params={"nested": [1]}),))
        with pytest.raises(ScenarioError) as err:
            scenario_to_json(doc)
        assert err.value.location == "/experiments/0/params/nested"


class TestSameOutput:
    def test_library_documents_match_the_pinned_json(self):
        pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert sorted(pinned) == list_scenarios()
        for name in list_scenarios():
            produced = json.dumps(scenario_to_json(load_scenario(name)),
                                  sort_keys=True)
            assert produced == json.dumps(pinned[name], sort_keys=True), name

    def test_absent_plan_config_is_the_default_injector(self):
        document = _spec_document()
        plan = document["experiments"][0]["plan"]
        del plan["config"]
        assert spec_from_json(document).experiments[0].plan.config \
            == InjectorConfig()
        plan["kind"], plan["config"] = "seu", None
        assert spec_from_json(document).experiments[0].plan.config is None


# ----------------------------------------------------------------------
# round trips of generated documents
# ----------------------------------------------------------------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     st.text(max_size=6))
_KWARGS = st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3)
_U32 = st.integers(0, 2 ** 32 - 1)
_U4 = st.integers(0, 15)
_DIRECTIONS = st.sampled_from(["R", "L", "RL"])
_FABRICS = st.sampled_from([star_fabric(3), line_fabric(2, 2),
                            tree_fabric(2, 1)])

_CONFIGS = st.builds(
    InjectorConfig,
    match_mode=st.sampled_from(MatchMode), compare_data=_U32,
    compare_mask=_U32, compare_ctl=_U4, compare_ctl_mask=_U4,
    corrupt_mode=st.sampled_from(CorruptMode), corrupt_data=_U32,
    corrupt_mask=_U32, corrupt_ctl=_U4, corrupt_ctl_mask=_U4,
    crc_fixup=st.booleans(),
)


@st.composite
def _plans(draw):
    kind = draw(st.sampled_from(sorted(PLAN_KINDS)))
    config = draw(st.none() | _CONFIGS if kind == "seu" else _CONFIGS)
    return PlanSpec(
        kind, draw(_DIRECTIONS), config, use_serial=draw(st.booleans()),
        rearm_interval_ps=draw(st.none() | st.integers(0, 10 ** 12)),
        on_ps=draw(st.integers(0, 10 ** 12)),
        mean_interval_ps=draw(st.integers(1, 10 ** 12)),
        seed=draw(st.integers(0, 2 ** 63)),
        flip_control_bit_probability=draw(st.floats(0, 1)),
    )


_WORKLOADS = st.builds(
    WorkloadConfig,
    payload_size=st.integers(0, 4096), send_interval_ps=st.integers(1),
    flood_ping=st.booleans(),
    forbidden_bytes=st.sets(st.integers(0, 255), max_size=4),
    stack_kwargs=st.dictionaries(st.text(max_size=6), st.integers(),
                                 max_size=2),
    burst_max=st.integers(1, 16), burst_alpha=st.floats(0.1, 5),
)


@st.composite
def _testbeds(draw):
    device_kwargs = draw(_KWARGS)
    if draw(st.booleans()):
        device_kwargs["monitor_config"] = MonitorConfig(
            draw(st.booleans()), draw(st.integers(0, 256)),
            draw(st.integers(0, 256)))
    return TestbedOptions(
        seed=draw(st.integers()), instrumented_host=draw(st.text(max_size=6)),
        with_device=draw(st.booleans()), device_kwargs=device_kwargs,
        host_kwargs=draw(_KWARGS), switch_kwargs=draw(_KWARGS),
        long_timeout_periods=draw(st.none() | st.integers(0, 1000)),
        topology=draw(st.none() | _FABRICS),
    )


@st.composite
def _experiments(draw):
    plan = draw(st.none() | _plans())
    extra = draw(st.lists(_plans(), max_size=2)) if plan else []
    return ExperimentSpec(
        draw(st.text(max_size=8)), draw(st.integers(0, 10 ** 12)),
        plan=plan, workload=draw(st.none() | _WORKLOADS),
        testbed=draw(st.none() | _testbeds()),
        drain_ps=draw(st.integers(0, 10 ** 12)), params=draw(_KWARGS),
        extra_plans=extra,
    )


_CAMPAIGNS = st.builds(
    CampaignSpec, st.text(max_size=8),
    st.lists(_experiments(), max_size=3), base_seed=st.integers(),
)

#: The sizing fields each topology kind writes.
_KIND_SIZES = {"star": ("hosts", "ports"),
               "line": ("switches", "hosts_per_switch", "ports"),
               "tree": ("leaves", "hosts_per_leaf", "ports")}


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    sizes = {name: draw(st.integers(1, 16))
             for name in _KIND_SIZES.get(kind, ())}
    custom = draw(_FABRICS) if kind == "custom" else None
    return TopologySpec(kind=kind, custom=custom,
                        instrumented_host=draw(st.none() | st.text(max_size=4)),
                        **sizes)


def _maybe(strategy):
    return st.none() | strategy


_TRAFFIC = st.builds(
    TrafficSpec, kind=st.sampled_from(TRAFFIC_KINDS),
    payload_size=_maybe(st.integers(0, 4096)),
    send_interval_us=_maybe(_FLOATS), burst_max=_maybe(st.integers(1, 9)),
    burst_alpha=_maybe(_FLOATS), flood_ping=_maybe(st.booleans()),
    map_interval_ms=_maybe(_FLOATS),
)

_FAULTS = st.builds(
    FaultSpec, id=st.text(max_size=6), kind=st.sampled_from(FAULT_KINDS),
    direction=_DIRECTIONS,
    swap=_maybe(st.tuples(st.text(max_size=4), st.text(max_size=4))),
    config=_maybe(_CONFIGS), use_serial=st.booleans(),
    rearm_interval_us=_maybe(_FLOATS), on_us=_FLOATS, off_us=_FLOATS,
    interval_us=_FLOATS, mean_interval_us=_FLOATS,
    seed=_maybe(st.integers()), flip_control_bit_probability=_FLOATS,
)

_SCENARIO_EXPERIMENTS = st.builds(
    ScenarioExperiment, name=st.text(max_size=6),
    faults=st.lists(_FAULTS, max_size=2).map(tuple),
    traffic=_maybe(_TRAFFIC), duration_ms=_maybe(_FLOATS),
    drain_ms=_maybe(_FLOATS),
    sweep=_maybe(st.builds(
        SweepSpec, field=st.sampled_from(SWEEP_FIELDS),
        values=st.lists(_FLOATS, min_size=1, max_size=3).map(tuple))),
    params=_KWARGS,
)

_SCENARIOS = st.builds(
    ScenarioDoc, name=st.text(max_size=6), description=st.text(max_size=6),
    seed=st.integers(), capture=st.booleans(), topology=_topologies(),
    traffic=_TRAFFIC, duration_ms=_FLOATS, drain_ms=_FLOATS,
    settle_ms=_FLOATS,
    experiments=st.lists(_SCENARIO_EXPERIMENTS, min_size=1,
                         max_size=3).map(tuple),
    host_rx_drain_factor=_maybe(st.floats(0.01, 100)),
)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_CAMPAIGNS)
    def test_campaign_specs(self, spec):
        document = spec_to_json(spec)
        wire = json.loads(json.dumps(document))
        assert wire == document
        assert spec_from_json(wire) == spec
        assert spec_from_json(copy.deepcopy(document)) == spec

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_SCENARIOS)
    def test_scenario_documents(self, doc):
        document = scenario_to_json(doc)
        wire = json.loads(json.dumps(document))
        assert wire == document
        assert scenario_from_json(wire) == doc

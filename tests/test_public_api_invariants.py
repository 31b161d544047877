"""Public-API surface checks and cross-cutting invariants."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.sim", "repro.sim.kernel", "repro.sim.rng", "repro.sim.trace",
    "repro.sim.timebase", "repro.sim.process",
    "repro.myrinet", "repro.myrinet.symbols", "repro.myrinet.crc8",
    "repro.myrinet.packet", "repro.myrinet.link", "repro.myrinet.flow",
    "repro.myrinet.slack", "repro.myrinet.frames", "repro.myrinet.switch",
    "repro.myrinet.interface", "repro.myrinet.mcp", "repro.myrinet.mapping",
    "repro.myrinet.network", "repro.myrinet.monitor",
    "repro.myrinet.addresses",
    "repro.hw", "repro.hw.clock", "repro.hw.fifo", "repro.hw.compare",
    "repro.hw.registers", "repro.hw.injector", "repro.hw.uart",
    "repro.hw.spi", "repro.hw.comm", "repro.hw.decoder",
    "repro.hw.outputgen", "repro.hw.sdram", "repro.hw.phy",
    "repro.hw.synthesis", "repro.hw.selftest",
    "repro.core", "repro.core.device", "repro.core.session",
    "repro.core.faults", "repro.core.triggers", "repro.core.crcfix",
    "repro.core.monitor", "repro.core.stats",
    "repro.fc", "repro.fc.encoding", "repro.fc.ordered_sets",
    "repro.fc.crc32", "repro.fc.frame", "repro.fc.node", "repro.fc.tap",
    "repro.fc.sequence",
    "repro.hostsim", "repro.hostsim.checksum", "repro.hostsim.ip",
    "repro.hostsim.udp", "repro.hostsim.sockets", "repro.hostsim.apps",
    "repro.nftape", "repro.nftape.campaign", "repro.nftape.experiment",
    "repro.nftape.workload", "repro.nftape.plan", "repro.nftape.results",
    "repro.nftape.classify", "repro.nftape.report",
    "repro.nftape.random_faults", "repro.nftape.paper",
    "repro.runtime", "repro.runtime.spec", "repro.runtime.seeding",
    "repro.runtime.executors",
    "repro.runtime.artifacts", "repro.runtime.worker",
    "repro.runtime.fabric", "repro.runtime.store",
    "repro.insight", "repro.insight.model", "repro.insight.correlate",
    "repro.insight.rank", "repro.insight.store",
    "repro.insight.store_ingest",
    "repro.scenario", "repro.scenario.model", "repro.scenario.codec",
    "repro.scenario.yamlish", "repro.scenario.compile",
    "repro.scenario.library", "repro.scenario.golden",
    "repro.golden", "repro.errors", "repro.cli", "repro.api",
]

# The repro.api contract: exactly these names, no more, no fewer.
# Adding a name is an intentional API change — extend this set in the
# same commit.  Removing or renaming one requires an API_VERSION bump
# (see docs/api.md for the tier of each name).
API_NAMES = {
    "API_VERSION",
    # simulation substrate
    "Simulator", "DeterministicRng",
    # the device and its host-side session
    "FaultInjectorDevice", "InjectorSession", "InjectorConfig",
    "MatchMode", "CorruptMode", "replace_bytes", "control_symbol_swap",
    "build_paper_testbed",
    # test beds and experiments
    "Testbed", "TestbedOptions", "build_testbed", "Experiment",
    "WorkloadConfig", "ExperimentResult", "ResultTable",
    "classify_result",
    # declarative scenarios
    "ScenarioDoc", "ScenarioExperiment", "TopologySpec", "TrafficSpec",
    "FaultSpec", "SweepSpec", "compile_scenario", "scenario_to_json",
    "scenario_from_json", "list_scenarios", "load_scenario",
    # declarative campaigns and executors
    "Campaign", "default_row", "CampaignSpec", "ExperimentSpec",
    "PlanSpec", "SerialExecutor", "PooledExecutor",
    "ResultStore", "derive_seed", "spec_digest",
    "spec_to_json", "spec_from_json",
    # the observation session and the live event bus
    "ObservationSession", "EventBus", "EventBusSession",
    # monitoring-as-a-service
    "MonitorServer",
    # offline incident correlation
    "analyze_artifacts", "IncidentReport", "InsightStore",
    "paper_oracle",
    # the paper's evaluation
    "table2_latency", "table4_spec", "table4_control_symbols",
    "sec35_passthrough", "sec431_throughput", "sec432_packet_types",
    "sec433_addresses", "sec434_udp_checksum",
}


class TestApiSurface:
    def test_exported_name_set_is_pinned(self):
        import repro.api as api
        assert set(api.__all__) == API_NAMES

    def test_every_export_resolves(self):
        import repro.api as api
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_version_string(self):
        # v2 removed the data-path pipeline selectors and the
        # ``pipeline=`` option of FaultInjectorDevice/TestbedOptions;
        # v3 removed FabricExecutor (PooledExecutor is the lease queue)
        # and the executors' journal/retry/start-method options;
        # v4 removed the live campaign flavour (Campaign(name).add) and
        # the CampaignSpec build/append/materialize helpers;
        # v5 replaced TelemetrySession and CaptureSession with one
        # ObservationSession.
        import repro.api as api
        assert api.API_VERSION == "v5"


#: Modules a campaign never touches; ``import repro.api`` must not load
#: them (the insight and server names resolve on first access).
DEFERRED_MODULES = ("asyncio", "multiprocessing", "repro.insight",
                    "repro.server")

_FRESH_IMPORT_PROBE = """
import json, sys
import repro.api as api
loaded = sorted(m for m in {deferred!r} if m in sys.modules)
star = {{}}
exec("from repro.api import *", star)
from repro.insight import IncidentReport, InsightStore, analyze_artifacts
from repro.server import MonitorServer
print(json.dumps({{
    "loaded": loaded,
    "resolved": {{
        "analyze_artifacts": api.analyze_artifacts is analyze_artifacts,
        "IncidentReport": api.IncidentReport is IncidentReport,
        "InsightStore": api.InsightStore is InsightStore,
        "MonitorServer": api.MonitorServer is MonitorServer,
    }},
    "dir": sorted(dir(api)),
    "star": sorted(star),
}}))
"""


def test_import_defers_modules_a_campaign_does_not_use():
    """A fresh ``import repro.api`` loads neither the insight engine,
    the asyncio server nor ``multiprocessing``, and the lazy names still
    resolve to the implementation objects (star import included)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = _FRESH_IMPORT_PROBE.format(deferred=DEFERRED_MODULES)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["loaded"] == []
    assert report["resolved"] == dict.fromkeys(
        ("analyze_artifacts", "IncidentReport", "InsightStore",
         "MonitorServer"), True)
    assert API_NAMES <= set(report["dir"])
    assert API_NAMES <= set(report["star"])


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_module_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 20


@pytest.mark.parametrize("name", [m for m in PUBLIC_MODULES
                                  if "." in m and "paper" not in m])
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    members = (
        [getattr(module, item) for item in exported]
        if exported else
        [obj for attr, obj in vars(module).items()
         if not attr.startswith("_")
         and (inspect.isclass(obj) or inspect.isfunction(obj))
         and getattr(obj, "__module__", None) == name]
    )
    for obj in members:
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, (
                f"{name}.{getattr(obj, '__name__', obj)} lacks a docstring"
            )


def test_top_level_convenience_exports():
    assert repro.FaultInjectorDevice is not None
    assert repro.InjectorSession is not None
    assert repro.Simulator is not None
    assert repro.build_paper_testbed is not None
    assert repro.__version__


class TestSwitchSyndromePreservation:
    @settings(max_examples=30, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=80),
        position=st.integers(min_value=1, max_value=200),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_corruption_survives_the_hop_detectably(self, payload,
                                                    position, flip):
        """Any single-byte corruption upstream of a switch is still
        CRC-detectable downstream — the per-hop CRC update never
        launders errors (except corruption of the route byte itself,
        which the switch consumes)."""
        from repro.myrinet.crc8 import crc8
        from repro.myrinet.link import Link
        from repro.myrinet.packet import MyrinetPacket, PACKET_TYPE_DATA
        from repro.myrinet.switch import MyrinetSwitch
        from repro.myrinet.symbols import GAP, Burst, data_symbols
        from repro.sim import Simulator

        sim = Simulator()
        switch = MyrinetSwitch(sim, num_ports=4)
        frames = []

        class _Sink:
            def on_burst(self, burst, channel):
                current = []
                for symbol in burst.symbols():
                    if symbol.is_data:
                        current.append(symbol.value)
                    elif symbol == GAP and current:
                        frames.append(bytes(current))
                        current = []

        links = []
        for port in range(2):
            link = Link(sim, f"l{port}", char_period_ps=12_500,
                        propagation_ps=0)
            link.attach_a(_Sink())
            switch.attach_link(port, link, "b")
            links.append(link)

        packet = MyrinetPacket.for_route([1], PACKET_TYPE_DATA, payload)
        raw = bytearray(packet.to_bytes())
        index = 1 + (position % (len(raw) - 1))  # never the route byte
        raw[index] ^= flip
        burst = data_symbols(bytes(raw))
        burst.append(GAP)
        links[0].a_to_b.send(Burst.from_symbols(burst))
        sim.run()
        assert len(frames) == 1
        assert crc8(frames[0]) != 0  # syndrome preserved across the hop

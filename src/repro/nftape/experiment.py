"""Test-bed lifecycle and single-experiment orchestration.

"To ensure the repeatability of the experiments, each campaign began
with the network in a known good state, in which all routing information
was correct and every node was correctly participating in the network"
(paper §4.2).  :class:`Testbed` enforces exactly that: every experiment
builds a fresh simulator, network, device and serial session from one
seed, settles the MCP mapping, and verifies the known-good predicate
through the :class:`~repro.myrinet.monitor.Mmon` view before any load or
fault is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.capture.instrument import capture_experiment as _capture_experiment
from repro.core.device import FaultInjectorDevice
from repro.core.session import InjectorSession
from repro.errors import CampaignError
from repro.myrinet.monitor import Mmon
from repro.myrinet.network import (
    FabricSpec,
    MyrinetNetwork,
    build_fabric,
    build_paper_testbed,
)
from repro.nftape.results import ExperimentResult
from repro.nftape.workload import AllPairsWorkload, WorkloadConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.timebase import MS, US
from repro.telemetry import instrument as _telemetry
from repro.telemetry.spans import span
from repro.telemetry.state import STATE as _STATE


@dataclass
class TestbedOptions:
    """Reproducible test-bed parameters.

    (Not a pytest class, despite the name.)

    The MCP interval defaults to 100 ms rather than the paper's 1 s so
    that scaled-duration campaigns still see remapping; paper-scale runs
    pass ``map_interval_ps=SECOND`` explicitly.
    """

    __test__ = False  # keep pytest from collecting this

    seed: int = 0
    instrumented_host: str = "pc"
    with_device: bool = True
    char_period_ps: int = 12_500
    map_interval_ps: int = 100 * MS
    mcp_reply_timeout_ps: int = 300 * US
    mcp_initial_delay_ps: int = 1 * MS
    settle_ps: int = 5 * MS
    pipeline_depth: int = 20
    device_kwargs: Dict[str, Any] = field(default_factory=dict)
    host_kwargs: Dict[str, Any] = field(default_factory=dict)
    switch_kwargs: Dict[str, Any] = field(default_factory=dict)
    long_timeout_periods: Optional[int] = None
    #: ``None`` builds the paper's Figure 10 LAN; a :class:`FabricSpec`
    #: builds that multi-switch fabric instead (instrumented_host must
    #: then name one of the fabric's hosts).
    topology: Optional[FabricSpec] = None


class Testbed:
    """A freshly built, settled, verified instance of the Figure 10 LAN."""

    __test__ = False  # keep pytest from collecting this

    def __init__(self, options: Optional[TestbedOptions] = None) -> None:
        self.options = options or TestbedOptions()
        self.sim = Simulator()
        self.rng = DeterministicRng(self.options.seed)
        self.device: Optional[FaultInjectorDevice] = None
        self.session: Optional[InjectorSession] = None
        if self.options.with_device:
            self.device = FaultInjectorDevice(
                self.sim,
                pipeline_depth=self.options.pipeline_depth,
                **self.options.device_kwargs,
            )
            self.session = InjectorSession(self.sim, self.device)
        host_kwargs = dict(self.options.host_kwargs)
        switch_kwargs = dict(self.options.switch_kwargs)
        if self.options.long_timeout_periods is not None:
            host_kwargs.setdefault(
                "long_timeout_periods", self.options.long_timeout_periods
            )
            switch_kwargs.setdefault(
                "long_timeout_periods", self.options.long_timeout_periods
            )
        build_kwargs = dict(
            device=self.device,
            instrumented_host=self.options.instrumented_host,
            rng=self.rng.fork("network"),
            host_kwargs=host_kwargs,
            switch_kwargs=switch_kwargs,
            char_period_ps=self.options.char_period_ps,
            map_interval_ps=self.options.map_interval_ps,
            mcp_reply_timeout_ps=self.options.mcp_reply_timeout_ps,
            mcp_initial_delay_ps=self.options.mcp_initial_delay_ps,
        )
        if self.options.topology is not None:
            self.network: MyrinetNetwork = build_fabric(
                self.sim, self.options.topology, **build_kwargs
            )
        else:
            self.network = build_paper_testbed(self.sim, **build_kwargs)
        self.mmon = Mmon(self.network)

    def settle(self, verify: bool = True) -> None:
        """Run until the network reaches the known good state."""
        self.network.settle(self.options.settle_ps)
        if not verify:
            return
        for _attempt in range(5):
            if self.mmon.all_nodes_in_network():
                return
            self.sim.run_for(self.options.map_interval_ps)
        raise CampaignError(
            "test bed failed to reach the known good state: "
            + (self.mmon.render())
        )

    def drain_session(self, step_ps: int = 1 * MS, limit_ps: int = 200 * MS) -> None:
        """Run until the serial session has no commands in flight."""
        if self.session is None:
            return
        waited = 0
        while not self.session.idle and waited < limit_ps:
            self.sim.run_for(step_ps)
            waited += step_ps
        if not self.session.idle:
            raise CampaignError("serial session did not drain in time")

    def total_injections(self) -> int:
        if self.device is None:
            return 0
        return sum(
            self.device.injector(d).injections for d in ("R", "L")
        )


class Experiment:
    """One fault-injection experiment: fresh test bed, load, fault, result."""

    def __init__(
        self,
        name: str,
        duration_ps: int,
        plan: Optional[object] = None,
        workload_config: Optional[WorkloadConfig] = None,
        testbed_options: Optional[TestbedOptions] = None,
        drain_ps: int = 5 * MS,
        params: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.duration_ps = duration_ps
        self.plan = plan
        self.workload_config = workload_config or WorkloadConfig()
        self.testbed_options = testbed_options or TestbedOptions()
        self.drain_ps = drain_ps
        self.params = params or {}

    def run(self) -> ExperimentResult:
        """Run the experiment on a fresh test bed.

        Phases are bracketed in telemetry spans (``experiment`` nesting
        ``settle``/``injection``/``workload``/``drain``); each span
        records both wall time and sim time.  With no observation session
        active every ``span`` call is a shared no-op.
        """
        with span("experiment", name=self.name,
                  duration_ps=self.duration_ps):
            testbed = Testbed(self.testbed_options)
            with span("settle", sim=testbed.sim,
                      seed=self.testbed_options.seed):
                testbed.settle()
            if self.plan is not None:
                with span("injection", sim=testbed.sim, phase="install"):
                    self.plan.install(testbed)
                    testbed.drain_session()
            workload = AllPairsWorkload(
                testbed.network,
                self.workload_config,
                rng=testbed.rng.fork("workload"),
            )
            with span("workload", sim=testbed.sim):
                workload.start()
                if self.plan is not None:
                    self.plan.start(testbed)
                testbed.sim.run_for(self.duration_ps)
                workload.stop()
                if self.plan is not None:
                    self.plan.stop(testbed)
            with span("drain", sim=testbed.sim):
                testbed.sim.run_for(self.drain_ps)
            result = self._collect(testbed, workload)
            if _STATE.recorder is not None:
                # Still inside the experiment span: the marker records
                # this experiment's span id, SDRAM windows, and verdict.
                _capture_experiment(
                    testbed, result, seed=self.testbed_options.seed
                )
            if _STATE.registry is not None:
                self._publish_telemetry(testbed, result)
            return result

    def _publish_telemetry(self, testbed: Testbed,
                           result: ExperimentResult) -> None:
        """Sample per-experiment counters into the active registry."""
        registry = _STATE.registry
        _telemetry.sample_simulator(testbed.sim)
        if testbed.device is not None:
            # Fresh device per experiment: accumulate totals so the
            # campaign-level series aggregate across experiments.
            _telemetry.sample_device(testbed.device, accumulate=True)
        registry.counter("workload.messages_sent").inc(result.messages_sent)
        registry.counter("workload.messages_received").inc(
            result.messages_received
        )
        registry.counter("workload.misdeliveries").inc(
            result.active_misdeliveries
        )
        registry.counter("workload.corrupted_deliveries").inc(
            result.corrupted_deliveries
        )
        registry.counter("workload.send_failures").inc(result.send_failures)
        registry.counter("workload.checksum_drops").inc(result.checksum_drops)

    def _collect(self, testbed: Testbed,
                 workload: AllPairsWorkload) -> ExperimentResult:
        result = ExperimentResult(
            name=self.name,
            params=dict(self.params),
            duration_ps=self.duration_ps,
            messages_sent=workload.messages_sent,
            messages_received=workload.messages_received,
            injections=testbed.total_injections(),
            active_misdeliveries=workload.misdeliveries,
            corrupted_deliveries=workload.corrupted_deliveries,
            send_failures=workload.send_failures,
            checksum_drops=workload.checksum_drops,
        )
        for name, host in testbed.network.hosts.items():
            result.host_stats[name] = host.interface.stats
        for name, switch in testbed.network.switches.items():
            result.switch_stats[name] = switch.stats
        result.extras["testbed"] = testbed
        result.extras["workload"] = workload
        return result

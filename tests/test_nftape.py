"""Unit tests for the NFTAPE campaign framework."""

import pytest

from repro.core.faults import control_symbol_swap, replace_bytes
from repro.errors import CampaignError
from repro.hw.registers import MatchMode
from repro.myrinet.symbols import GAP, GO, STOP
from repro.nftape import (
    AllPairsWorkload,
    Campaign,
    DutyCyclePlan,
    Experiment,
    ExperimentResult,
    FaultClass,
    FaultPlan,
    InjectNowPlan,
    ResultTable,
    Testbed,
    WorkloadConfig,
    classify_result,
)
from repro.nftape.experiment import TestbedOptions
from repro.nftape.workload import WORKLOAD_PORT
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.sim.timebase import MS, US


class TestResults:
    def _result(self, **kwargs):
        defaults = dict(name="r", messages_sent=100, messages_received=90)
        defaults.update(kwargs)
        return ExperimentResult(**defaults)

    def test_loss_rate(self):
        result = self._result()
        assert result.messages_lost == 10
        assert result.loss_rate == pytest.approx(0.10)

    def test_loss_rate_empty(self):
        assert ExperimentResult(name="empty").loss_rate == 0.0

    def test_throughput(self):
        result = self._result(duration_ps=10 ** 12)  # one second
        assert result.throughput_per_second == pytest.approx(90)

    def test_counter_totals(self):
        result = self._result(
            host_stats={"a": {"crc_errors": 2}, "b": {"crc_errors": 3}},
            switch_stats={"s": {"long_timeouts": 1}},
        )
        assert result.total_host_counter("crc_errors") == 5
        assert result.total_switch_counter("long_timeouts") == 1

    def test_table_render_and_markdown(self):
        table = ResultTable("title")
        table.add(self._result(), run="one", loss="10%")
        table.add(self._result(), run="two", loss="0%", extra=5)
        text = table.render()
        assert "title" in text and "one" in text and "extra" in text
        markdown = table.to_markdown()
        assert markdown.startswith("### title")
        assert "| run |" in markdown

    def test_empty_table(self):
        assert "<no rows>" in ResultTable("t").render()
        assert "_(no rows)_" in ResultTable("t").to_markdown()


class TestClassification:
    def test_no_effects(self):
        result = ExperimentResult(name="clean", messages_sent=10,
                                  messages_received=10)
        assert classify_result(result).fault_class is FaultClass.NONE

    def test_losses_are_passive(self):
        result = ExperimentResult(name="lossy", messages_sent=10,
                                  messages_received=5)
        classified = classify_result(result)
        assert classified.fault_class is FaultClass.PASSIVE
        assert "5 messages lost" in str(classified)

    def test_misdelivery_is_active(self):
        result = ExperimentResult(name="bad", messages_sent=10,
                                  messages_received=10,
                                  active_misdeliveries=1)
        assert classify_result(result).fault_class is FaultClass.ACTIVE

    def test_corrupted_delivery_is_active(self):
        result = ExperimentResult(name="bad", corrupted_deliveries=2)
        assert classify_result(result).fault_class is FaultClass.ACTIVE

    def test_counter_evidence_is_passive(self):
        result = ExperimentResult(
            name="state", host_stats={"h": {"crc_errors": 1}}
        )
        classified = classify_result(result)
        assert classified.fault_class is FaultClass.PASSIVE
        assert any("crc_errors" in e for e in classified.evidence)


class TestTestbed:
    def test_reaches_known_good_state(self):
        testbed = Testbed(TestbedOptions(seed=3))
        testbed.settle()
        assert testbed.mmon.all_nodes_in_network()
        assert testbed.device is not None
        assert testbed.session is not None

    def test_without_device(self):
        testbed = Testbed(TestbedOptions(with_device=False))
        testbed.settle()
        assert testbed.device is None
        assert testbed.total_injections() == 0

    def test_same_seed_reproduces_event_counts(self):
        counts = []
        for _run in range(2):
            testbed = Testbed(TestbedOptions(seed=42))
            testbed.settle()
            counts.append(testbed.sim.events_fired)
        assert counts[0] == counts[1]

    def test_mmon_snapshot(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        snapshot = testbed.mmon.snapshot()
        assert set(snapshot.host_stats) == {"pc", "sparc1", "sparc2"}
        assert snapshot.network_map is not None
        text = testbed.mmon.render()
        assert "mmon @" in text
        assert "switch" in text


class TestWorkload:
    def test_all_pairs_baseline_lossless(self):
        testbed = Testbed(TestbedOptions(seed=1))
        testbed.settle()
        workload = AllPairsWorkload(
            testbed.network,
            WorkloadConfig(send_interval_ps=200 * US, flood_ping=False),
        )
        workload.start()
        testbed.sim.run_for(5 * MS)
        workload.stop()
        testbed.sim.run_for(2 * MS)
        assert workload.messages_sent > 100
        assert workload.messages_received == workload.messages_sent
        assert workload.misdeliveries == 0
        assert workload.corrupted_deliveries == 0

    def test_payload_corruption_caught_by_udp_checksum(self):
        """Filler corruption with a fixed link CRC still fails the UDP
        checksum: the loss is PASSIVE (dropped), not active."""
        testbed = Testbed(TestbedOptions(seed=2))
        testbed.settle()
        assert testbed.device is not None
        testbed.device.configure(
            "R", replace_bytes(b"!", b"?", match_mode=MatchMode.ON,
                               crc_fixup=True),
        )
        workload = AllPairsWorkload(
            testbed.network,
            WorkloadConfig(send_interval_ps=200 * US, flood_ping=False,
                           forbidden_bytes=set(range(0x20, 0x40)) - {0x21}),
        )
        workload.start()
        testbed.sim.run_for(5 * MS)
        workload.stop()
        testbed.sim.run_for(2 * MS)
        assert workload.checksum_drops > 0
        assert workload.corrupted_deliveries == 0

    def test_sink_flags_checksum_evading_corruption(self):
        """If a corruption evades every checksum (the §4.3.4 swap), the
        validating sink still detects it as an active fault."""
        from repro.nftape.workload import _FillerCache, _ValidatingSink
        testbed = Testbed(TestbedOptions(seed=2))
        testbed.settle()
        from repro.hostsim.sockets import HostStack
        stack = HostStack(testbed.sim,
                          testbed.network.host("pc").interface)
        alphabet = list(range(0x20, 0x7F))
        sink = _ValidatingSink(stack, _FillerCache(alphabet, 16))
        mac = stack.interface.mac
        # A well-formed payload for this sink...
        good = mac.to_bytes() + (1).to_bytes(4, "big") + bytes(
            alphabet[(1 * 31 + i * 7) % len(alphabet)] for i in range(16)
        )
        sink._on_message(mac, None, 0, good)
        assert sink.corrupted == 0
        # ...and the same payload with two filler words exchanged.
        swapped = bytearray(good)
        swapped[10:12], swapped[12:14] = good[12:14], good[10:12]
        sink._on_message(mac, None, 0, bytes(swapped))
        assert sink.corrupted == 1
        # Misdelivery detection: payload intended for another node.
        other = testbed.network.host("sparc1").interface.mac
        sink._on_message(mac, None, 0, other.to_bytes() + good[6:])
        assert sink.misdeliveries == 1


class TestPlans:
    def test_fault_plan_direct_install(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        plan = FaultPlan("RL", control_symbol_swap(STOP, GO, MatchMode.ON),
                         use_serial=False)
        plan.install(testbed)
        assert testbed.device.injector("R").armed
        assert testbed.device.injector("L").armed
        plan.stop(testbed)
        assert not testbed.device.injector("R").armed

    def test_fault_plan_serial_install(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        plan = FaultPlan("R", replace_bytes(b"ab", b"cd",
                                            match_mode=MatchMode.ONCE))
        plan.install(testbed)
        testbed.drain_session()
        config = testbed.device.injector("R").config
        assert config.match_mode is MatchMode.ONCE

    def test_rearm_requires_once_mode(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        plan = FaultPlan("R", control_symbol_swap(STOP, GO, MatchMode.ON),
                         rearm_interval_ps=1 * MS, use_serial=False)
        with pytest.raises(CampaignError):
            plan.start(testbed)

    def test_rearm_reenables_once_trigger(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        config = replace_bytes(b"ab", b"cd", match_mode=MatchMode.ONCE)
        plan = FaultPlan("R", config, rearm_interval_ps=1 * MS,
                         use_serial=False)
        plan.install(testbed)
        injector = testbed.device.injector("R")
        injector._once_fired = True  # pretend the trigger fired
        plan.start(testbed)
        testbed.sim.run_for(2 * MS)
        assert injector.armed
        plan.stop(testbed)

    def test_duty_cycle_plan_toggles(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        plan = DutyCyclePlan("R", control_symbol_swap(STOP, GO, MatchMode.ON),
                             on_ps=1 * MS, off_ps=1 * MS, use_serial=False)
        plan.install(testbed)
        assert not testbed.device.injector("R").armed
        plan.start(testbed)
        states = []
        for _step in range(4):
            states.append(testbed.device.injector("R").armed)
            testbed.sim.run_for(1 * MS)
        plan.stop(testbed)
        assert True in states and False in states
        assert not testbed.device.injector("R").armed

    def test_inject_now_plan_pulses(self):
        testbed = Testbed(TestbedOptions())
        testbed.settle()
        plan = InjectNowPlan("R", replace_bytes(b"xx", b"yy"),
                             interval_ps=1 * MS, use_serial=False)
        plan.install(testbed)
        plan.start(testbed)
        testbed.sim.run_for(3 * MS + 500 * US)
        plan.stop(testbed)
        # Pulses landed even with no matching traffic: forced injections
        # fire on whatever crosses (or nothing if the link is idle).
        assert testbed.device.injector("R")._inject_now or \
            testbed.device.injector("R").forced_injections >= 0


class TestExperimentAndCampaign:
    def test_baseline_experiment_is_clean(self):
        experiment = Experiment(
            "baseline", duration_ps=4 * MS,
            workload_config=WorkloadConfig(send_interval_ps=300 * US,
                                           flood_ping=False),
        )
        result = experiment.run()
        assert result.messages_sent > 0
        assert result.loss_rate == 0.0
        assert classify_result(result).fault_class is FaultClass.NONE

    def test_fault_experiment_loses_messages(self):
        plan = FaultPlan("RL", control_symbol_swap(GAP, GO, MatchMode.ON),
                         use_serial=False)
        experiment = Experiment(
            "gap->go", duration_ps=4 * MS, plan=plan,
            workload_config=WorkloadConfig(send_interval_ps=300 * US,
                                           flood_ping=False),
        )
        result = experiment.run()
        assert result.injections > 0
        assert result.loss_rate > 0.05
        assert classify_result(result).fault_class is FaultClass.PASSIVE

    def test_campaign_runs_all_and_tabulates(self):
        campaign = Campaign.from_spec(CampaignSpec("mini", [
            ExperimentSpec(
                name, duration_ps=2 * MS,
                workload=WorkloadConfig(send_interval_ps=500 * US,
                                        flood_ping=False),
            )
            for name in ("one", "two")
        ]))
        table = campaign.run()
        assert len(table.rows) == 2
        assert len(campaign.results) == 2
        rendered = table.render()
        assert "one" in rendered and "two" in rendered


class TestFillerCache:
    """Cached filler bytes equal the per-byte rule they replace."""

    def test_cache_matches_per_byte_rule(self):
        from repro.nftape.workload import _FillerCache, _filler_byte

        alphabet = [b for b in range(0x20, 0x7F) if b not in (0x41, 0x5A)]
        cache = _FillerCache(alphabet, 54)
        for seq in list(range(300)) + [10**6 + 7, 2**31 - 1]:
            assert cache(seq) == bytes(
                _filler_byte(seq, i, alphabet) for i in range(54))

    def test_matches_short_exact_and_over_length_fillers(self):
        from repro.nftape.workload import _FillerCache, _filler_byte

        alphabet = list(range(0x20, 0x7F))
        cache = _FillerCache(alphabet, 8)
        seq = 12345
        good = bytes(_filler_byte(seq, i, alphabet) for i in range(12))
        # Over-length fillers (12 > 8) take the per-byte fallback.
        for length in (0, 3, 8, 12):
            assert cache.matches(seq, good[:length])
            if length:
                bad = bytearray(good[:length])
                bad[-1] ^= 0x01
                assert not cache.matches(seq, bytes(bad))

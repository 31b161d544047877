"""Unit tests for link-level flow control (paper §4.3.1 semantics)."""

import pytest

from repro.errors import ConfigurationError
from repro.myrinet.flow import (
    LONG_TIMEOUT_PERIODS,
    SHORT_TIMEOUT_PERIODS,
    PortFlowControl,
    StopRefresher,
    TxFlowState,
    long_timeout_ps,
    short_timeout_ps,
)
from repro.myrinet.link import Channel, Link
from repro.myrinet.symbols import GAP, GO, STOP

CHAR = 12_500
DECAY = SHORT_TIMEOUT_PERIODS * CHAR


def test_paper_timeout_constants():
    assert SHORT_TIMEOUT_PERIODS == 16
    assert LONG_TIMEOUT_PERIODS == 4_000_000
    assert short_timeout_ps(CHAR) == 200_000           # 200 ns
    assert long_timeout_ps(CHAR) == 50_000_000_000     # 50 ms at 80 MB/s


class TestTxFlowState:
    def test_initially_unblocked(self, sim):
        state = TxFlowState(sim, CHAR)
        assert not state.blocked()
        assert state.earliest_resume() == sim.now

    def test_stop_blocks(self, sim):
        state = TxFlowState(sim, CHAR)
        state.on_stop_symbol()
        assert state.blocked()
        assert state.stops_received == 1

    def test_go_resumes_immediately(self, sim):
        state = TxFlowState(sim, CHAR)
        state.on_stop_symbol()
        state.on_go_symbol()
        assert not state.blocked()
        assert state.gos_received == 1

    def test_decay_on_quiet_link(self, sim):
        """Erroneous STOP on a quiet link recovers in 16 char periods."""
        state = TxFlowState(sim, CHAR)
        state.on_stop_symbol()
        sim.run_for(DECAY)
        assert state.blocked()  # exactly at the boundary: still stopped
        sim.run_for(1)
        assert not state.blocked()
        assert state.timeout_recoveries == 1

    def test_activity_resets_the_counter(self, sim):
        """Paper: "If a symbol is received, the counter is reset" — a
        STOP is sticky while the reverse channel carries traffic."""
        state = TxFlowState(sim, CHAR)
        state.on_stop_symbol()
        for _ in range(5):
            sim.run_for(DECAY // 2)
            state.note_activity()
        assert state.blocked()
        sim.run_for(DECAY + 1)
        assert not state.blocked()

    def test_activity_without_stop_is_harmless(self, sim):
        state = TxFlowState(sim, CHAR)
        state.note_activity()
        assert not state.blocked()

    def test_direct_hold_and_release(self, sim):
        state = TxFlowState(sim, CHAR)
        state.hold()
        assert state.blocked()
        assert state.earliest_resume() is None
        sim.run_for(10 * DECAY)
        assert state.blocked()  # direct holds never decay
        state.release()
        assert not state.blocked()

    def test_unblock_callback_on_go(self, sim):
        state = TxFlowState(sim, CHAR)
        fired = []
        state.notify_unblocked(lambda: fired.append(sim.now))
        state.on_stop_symbol()
        state.on_go_symbol()
        assert fired == [0]

    def test_unblock_callback_on_release(self, sim):
        state = TxFlowState(sim, CHAR)
        fired = []
        state.notify_unblocked(lambda: fired.append(1))
        state.hold()
        state.release()
        assert fired == [1]

    def test_control_symbol_dispatch(self, sim):
        state = TxFlowState(sim, CHAR)
        state.on_control_symbol(STOP)
        assert state.blocked()
        state.on_control_symbol(GO)
        assert not state.blocked()
        state.on_control_symbol(GAP)  # not flow control: ignored
        assert not state.blocked()

    def test_earliest_resume_tracks_last_activity(self, sim):
        state = TxFlowState(sim, CHAR)
        state.on_stop_symbol()
        resume1 = state.earliest_resume()
        sim.run_for(DECAY // 2)
        state.note_activity()
        assert state.earliest_resume() > resume1


class _Sink:
    def __init__(self):
        self.symbols = []

    def on_burst(self, burst, channel):
        self.symbols.extend(burst.symbols())


class TestStopRefresher:
    def test_bursts_hold_remote_stopped(self, sim):
        link = Link(sim, "l", char_period_ps=CHAR, propagation_ps=0)
        sink = _Sink()
        tx = link.attach_a(_Sink())
        link.attach_b(sink)
        refresher = StopRefresher(sim, tx, burst_length=16)
        refresher.start()
        sim.run_for(10 * DECAY)
        stops = [s for s in sink.symbols if s == STOP]
        # One 16-symbol burst per decay interval: continuous coverage.
        assert len(stops) >= 16 * 9
        assert refresher.active

    def test_stop_sends_single_go(self, sim):
        link = Link(sim, "l", char_period_ps=CHAR, propagation_ps=0)
        sink = _Sink()
        tx = link.attach_a(_Sink())
        link.attach_b(sink)
        refresher = StopRefresher(sim, tx, burst_length=16)
        refresher.start()
        sim.run_for(2 * DECAY)
        refresher.stop()
        sim.run_for(2 * DECAY)
        gos = [s for s in sink.symbols if s == GO]
        assert len(gos) == 1
        assert not refresher.active
        assert refresher.gos_sent == 1

    def test_start_stop_idempotent(self, sim):
        link = Link(sim, "l", char_period_ps=CHAR, propagation_ps=0)
        tx = link.attach_a(_Sink())
        link.attach_b(_Sink())
        refresher = StopRefresher(sim, tx)
        refresher.stop()  # never started: no GO
        assert refresher.gos_sent == 0
        refresher.start()
        refresher.start()
        refresher.stop()
        refresher.stop()
        assert refresher.gos_sent == 1

    def test_burst_length_validated(self, sim):
        link = Link(sim, "l")
        tx = link.attach_a(_Sink())
        with pytest.raises(ConfigurationError):
            StopRefresher(sim, tx, burst_length=0)


class TestPortFlowControl:
    def test_symbols_transport_backpressure(self, sim):
        link = Link(sim, "l", char_period_ps=CHAR, propagation_ps=0)
        sink = _Sink()
        tx = link.attach_a(_Sink())
        link.attach_b(sink)
        flow = PortFlowControl(sim, tx, transport="symbols")
        flow.set_backpressure(True)
        sim.run_for(2 * DECAY)
        assert any(s == STOP for s in sink.symbols)
        flow.set_backpressure(False)
        sim.run_for(2 * DECAY)
        assert any(s == GO for s in sink.symbols)

    def test_direct_transport_flips_remote_state(self, sim):
        link = Link(sim, "l")
        tx = link.attach_a(_Sink())
        remote = TxFlowState(sim, CHAR)
        flow = PortFlowControl(sim, tx, transport="direct",
                               remote_tx_state=remote)
        flow.set_backpressure(True)
        assert remote.blocked()
        flow.set_backpressure(False)
        assert not remote.blocked()

    def test_direct_transport_via_getter(self, sim):
        link = Link(sim, "l")
        tx = link.attach_a(_Sink())
        remote = TxFlowState(sim, CHAR)
        flow = PortFlowControl(sim, tx, transport="direct",
                               remote_tx_state_getter=lambda: remote)
        flow.set_backpressure(True)
        assert remote.blocked()

    def test_direct_needs_remote(self, sim):
        link = Link(sim, "l")
        tx = link.attach_a(_Sink())
        with pytest.raises(ConfigurationError):
            PortFlowControl(sim, tx, transport="direct")

    def test_unknown_transport_rejected(self, sim):
        link = Link(sim, "l")
        tx = link.attach_a(_Sink())
        with pytest.raises(ConfigurationError):
            PortFlowControl(sim, tx, transport="smoke-signals")

    def test_backpressure_idempotent(self, sim):
        link = Link(sim, "l", char_period_ps=CHAR, propagation_ps=0)
        sink = _Sink()
        tx = link.attach_a(_Sink())
        link.attach_b(sink)
        flow = PortFlowControl(sim, tx, transport="symbols")
        flow.set_backpressure(True)
        flow.set_backpressure(True)
        assert flow.backpressure_active
        flow.set_backpressure(False)
        flow.set_backpressure(False)
        sim.run_for(3 * DECAY)
        assert sum(1 for s in sink.symbols if s == GO) == 1

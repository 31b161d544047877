"""Differential oracle: the run-batched switch against its per-symbol form.

``tests/fixtures/switch_prechange.py`` is the switch as it stood before
forwarding, slack buffering and replay were batched into data runs.  Both
switches are driven with identical traffic and must deliver identical
per-port output streams (burst boundaries and delivery times included),
identical ``port_stats()`` and the same number of simulator events.

Traffic is a seeded soup of frames: mostly valid routes with some bad
route bytes, lost GAPs, interleaved STOP/GO/IDLE, a GAP with a 1->0 fault
and an undecodable control value, chopped into random bursts, plus direct
holds on switch outputs long enough to trip the drain timeout.  Small
slack and outbox capacities make ``waitbuf_drops``/``outbox_drops`` fire;
short long-timeouts run the wait- and drain-timeout paths.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.myrinet.crc8 import crc8_update
from repro.myrinet.flow import TxFlowState
from repro.myrinet.link import Link
from repro.myrinet.switch import _CRC_ZERO_POW, MyrinetSwitch
from repro.myrinet.symbols import (
    GAP, GAP_VALUE, GO_VALUE, IDLE_VALUE, STOP_VALUE, control_symbol,
    data_symbol,
)
from repro.sim import Simulator
from tests.fixtures.switch_prechange import MyrinetSwitch as PrechangeSwitch

PORTS = 4
CHAR = 12_500
#: Sim time the traffic is spread over, and the settle time after it.
SPAN_CHARS = 400
SETTLE_CHARS = 3_000
#: Control values mixed into frames: 0x08 is GAP with a 1->0 fault,
#: 0x55 decodes to nothing.
_CONTROL_VALUES = (GAP_VALUE, STOP_VALUE, GO_VALUE, IDLE_VALUE, 0x08, 0x55)
_COUNTERS = (
    "frames_forwarded", "routing_errors", "long_timeouts", "wait_timeouts",
    "symbols_dropped", "outbox_drops", "waitbuf_drops", "discard_drops",
    "undecodable_controls",
)


def _frame(rng):
    route = rng.randrange(PORTS) if rng.random() < 0.8 else rng.randrange(256)
    symbols = [(True, route)]
    symbols += [(True, rng.randrange(256)) for _ in range(rng.randint(0, 48))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        symbols.insert(rng.randint(0, len(symbols)),
                       (False, rng.choice(_CONTROL_VALUES)))
    if rng.random() < 0.9:  # otherwise the GAP is lost
        symbols.append((False, GAP_VALUE))
    return symbols


def _traffic(rng):
    """``("send", at, port, bursts)`` and ``("hold", at, port, chars)``."""
    events = []
    for _ in range(rng.randint(1, 14)):
        at = rng.randint(0, SPAN_CHARS)
        port = rng.randrange(PORTS)
        if rng.random() < 0.12:
            events.append(("hold", at, port, rng.choice((5, 60, 400, 2_000))))
            continue
        symbols = []
        for _ in range(rng.randint(1, 3)):
            symbols += _frame(rng)
        cuts = sorted(rng.sample(range(1, len(symbols)),
                                 min(len(symbols) - 1, rng.randint(0, 4))))
        bounds = [0] + cuts + [len(symbols)]
        events.append(("send", at, port,
                       [symbols[a:b] for a, b in zip(bounds, bounds[1:])]))
    return events


def _symbol(is_data, value):
    return data_symbol(value) if is_data else control_symbol(value)


class _Recorder:
    def __init__(self, sim):
        self._sim = sim
        self.bursts = []

    def on_burst(self, burst, channel):
        self.bursts.append(
            (self._sim.now, tuple((s.is_data, s.value) for s in burst)))


def _run(switch_cls, config, events):
    transport, slack, outbox, timeout = config
    sim = Simulator()
    switch = switch_cls(
        sim, num_ports=PORTS, slack_capacity=slack,
        high_water=max(1, slack * 3 // 4), low_water=slack // 4,
        outbox_capacity=outbox, long_timeout_periods=timeout,
    )
    recorders, txs = [], []
    for port in range(PORTS):
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        recorders.append(_Recorder(sim))
        txs.append(link.attach_a(recorders[-1]))
        link.register_tx_state("a", TxFlowState(sim, CHAR))
        switch.attach_link(port, link, "b", flow_transport=transport)

    def send(port, bursts):
        for burst in bursts:
            txs[port].send([_symbol(*pair) for pair in burst])

    for kind, at, port, arg in events:
        if kind == "send":
            sim.schedule(at * CHAR, lambda p=port, b=arg: send(p, b))
        else:
            state = switch.port_flow(port).tx_state
            sim.schedule(at * CHAR, state.hold)
            sim.schedule((at + arg) * CHAR, state.release)
    sim.run_for((SPAN_CHARS + SETTLE_CHARS) * CHAR)
    return (
        [recorder.bursts for recorder in recorders],
        [switch.port_stats(port) for port in range(PORTS)],
        sim.events_fired,
    )


def _assert_same(config, events):
    new = _run(MyrinetSwitch, config, events)
    old = _run(PrechangeSwitch, config, events)
    assert new == old, (config, events)
    return new


_TRANSPORTS = st.sampled_from(["symbols", "direct"])
_SLACKS = st.sampled_from([3, 8, 40, 1_024])
_OUTBOXES = st.sampled_from([None, 2, 6, 24])
_TIMEOUTS = st.sampled_from([40, 150, 600, 4_000_000])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), transport=_TRANSPORTS, slack=_SLACKS,
       outbox=_OUTBOXES, timeout=_TIMEOUTS)
def test_batched_switch_matches_prechange_switch(seed, transport, slack,
                                                 outbox, timeout):
    _assert_same((transport, slack, outbox, timeout),
                 _traffic(random.Random(seed)))


def test_oracle_traffic_exercises_every_counter():
    """Non-vacuity: over a fixed batch every counter fires somewhere, so
    the property above compares every drop and timeout path."""
    configs = [
        ("symbols", 3, 2, 40), ("direct", 8, 6, 150),
        ("symbols", 40, None, 600), ("direct", 1_024, 24, 4_000_000),
    ]
    totals = Counter()
    for seed in range(48):
        _streams, stats, _events = _assert_same(
            configs[seed % len(configs)], _traffic(random.Random(seed)))
        for port_stats in stats:
            totals.update(port_stats)
    for name in _COUNTERS:
        assert totals[name] > 0, (name, totals)


def test_crc_zero_power_table_matches_iterated_update():
    iterated = list(range(256))  # every CRC after n zero bytes
    for n in range(401):
        assert list(_CRC_ZERO_POW[n % 127]) == iterated, n
        iterated = [crc8_update(crc, 0) for crc in iterated]


def test_buffer_holds_only_data_and_canonical_gap():
    """``_drop_buffered_head_frame`` tests ``symbol is GAP``: a faulted
    GAP (0x08) must be parked in the slack buffer as the canonical GAP."""
    sim = Simulator()
    switch = MyrinetSwitch(sim, num_ports=PORTS, long_timeout_periods=10**6)
    recorders, txs = [], []
    for port in range(PORTS):
        link = Link(sim, f"l{port}", char_period_ps=CHAR, propagation_ps=0)
        recorders.append(_Recorder(sim))
        txs.append(link.attach_a(recorders[-1]))
        switch.attach_link(port, link, "b", flow_transport="symbols")
    # Port 0 claims output 2 and never ends its frame; port 1 then waits.
    txs[0].send([data_symbol(2)] + [data_symbol(7)] * 4)
    sim.run_for(10 * CHAR)
    txs[1].send([data_symbol(2), data_symbol(9), control_symbol(0x08),
                 data_symbol(2)])
    sim.run_for(50 * CHAR)
    parked = list(switch._ports[1].buffer)
    assert parked == [data_symbol(9), GAP, data_symbol(2)]
    assert parked[1] is GAP

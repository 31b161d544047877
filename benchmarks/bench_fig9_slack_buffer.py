"""Figure 9 — the Myrinet slack buffer.

Sweeps fill/drain cycles across the high- and low-water marks and
measures the buffer's throughput; asserts the hysteresis behaviour the
flow-control results depend on (STOP at high water, GO at low water,
drops only past capacity).

The buffer is :class:`~repro.myrinet.slack.LaneSlackBuffer`, the one
every switch input port holds.  As in the switch, the consumer takes the
parked lanes whole and charges what it still holds (there: the claimed
output's outbox) to the watermarks while it drains.
"""

from benchmarks.conftest import record_result
from repro.myrinet.slack import LaneSlackBuffer, RateDrainedSlackBuffer
from repro.sim import Simulator

#: One data symbol as value and D/C flag lanes.
SYMBOL = (b"\x5a", b"\x01")


def test_fig9_watermark_hysteresis(benchmark):
    def run():
        events = []
        buffer = LaneSlackBuffer(capacity=1024, high_water=512,
                                 low_water=192,
                                 on_backpressure=events.append)
        stops_at, goes_at = set(), set()
        for _cycle in range(100):
            while not buffer.pressured:
                buffer.push(*SYMBOL)
                buffer.check_watermarks(buffer.occupancy)
            stops_at.add(buffer.occupancy)
            backlog = len(buffer.take()[0])
            while buffer.pressured:
                backlog -= 1
                buffer.check_watermarks(backlog)
            goes_at.add(backlog)
        return buffer, events, stops_at, goes_at

    buffer, events, stops_at, goes_at = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert buffer.stop_crossings == 100
    assert buffer.go_crossings == 100
    assert buffer.symbols_dropped == 0
    assert events == [True, False] * 100
    assert (stops_at, goes_at) == ({512}, {192})
    record_result(
        "fig9_slack_buffer",
        "Figure 9 slack buffer: 100 fill/drain cycles, "
        f"{buffer.stop_crossings} STOP crossings at high water (512), "
        f"{buffer.go_crossings} GO crossings at low water (192), "
        "0 drops below capacity",
    )


def test_fig9_overflow_only_past_capacity(benchmark):
    def run():
        buffer = LaneSlackBuffer(capacity=1024, high_water=512,
                                 low_water=192)
        for _index in range(2048):
            buffer.push(*SYMBOL)
        return buffer

    buffer = benchmark.pedantic(run, rounds=1, iterations=1)
    assert buffer.occupancy == 1024
    assert buffer.symbols_dropped == 1024


def test_fig9_rate_drained_buffer_throughput(benchmark):
    def run():
        sim = Simulator()
        crossings = []
        buffer = RateDrainedSlackBuffer(
            sim, drain_period_ps=25_000, capacity=1024, high_water=512,
            low_water=192, on_backpressure=crossings.append,
        )
        for _burst in range(200):
            buffer.push_burst(128)
            sim.run_for(2_000_000)  # 2 us between bursts: drains 80
        sim.run()
        return buffer, crossings

    buffer, crossings = benchmark.pedantic(run, rounds=1, iterations=1)
    assert buffer.stop_crossings >= 1
    assert buffer.go_crossings >= 1


def test_push_take_throughput(benchmark):
    buffer = LaneSlackBuffer(capacity=4096, high_water=2048, low_water=512)

    def run():
        for _index in range(1000):
            buffer.push(*SYMBOL)
        buffer.take()

    benchmark(run)

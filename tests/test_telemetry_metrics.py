"""Unit tests for the telemetry metric primitives and registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.events_fired")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_inc_rejects_negative(self):
        counter = MetricsRegistry().counter("a.b")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_set_total_is_idempotent_and_monotonic(self):
        counter = MetricsRegistry().counter("injector.matches")
        counter.set_total(10)
        counter.set_total(10)  # re-sampling the same source is fine
        counter.set_total(25)
        assert counter.value == 25
        with pytest.raises(ConfigurationError):
            counter.set_total(5)

    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("device.bursts", direction="R").inc(3)
        registry.counter("device.bursts", direction="L").inc(5)
        assert registry.value("device.bursts", direction="R") == 3
        assert registry.value("device.bursts", direction="L") == 5
        # Label order must not matter for series identity.
        a = registry.counter("x.y", p="1", q="2")
        b = registry.counter("x.y", q="2", p="1")
        assert a is b


class TestGauge:
    def test_set_tracks_watermarks(self):
        gauge = MetricsRegistry().gauge("device.fifo.depth")
        for value in (3, 9, 1, 4):
            gauge.set(value)
        assert gauge.value == 4
        assert gauge.high == 9
        assert gauge.low == 1
        assert gauge.samples == 4

    def test_inc_dec(self):
        gauge = MetricsRegistry().gauge("sim.queue_depth")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 3
        assert gauge.high == 5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("h.test", (), buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]  # last is the +Inf tail
        assert histogram.count == 4
        assert histogram.total == 5555
        assert histogram.mean == pytest.approx(5555 / 4)

    def test_cumulative_ends_with_inf(self):
        histogram = Histogram("h.test", (), buckets=(250, 500))
        histogram.observe(100)
        histogram.observe(300)
        histogram.observe(9999)
        pairs = histogram.cumulative()
        assert pairs == [(250.0, 1), (500.0, 2), (float("inf"), 3)]

    def test_boundary_is_inclusive(self):
        histogram = Histogram("h.test", (), buckets=(250,))
        histogram.observe(250)
        assert histogram.counts[0] == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h.test", (), buckets=())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           st.lists(st.one_of(st.floats(allow_nan=True),
                              st.integers(-10 ** 7, 10 ** 7)), max_size=20))
    def test_each_value_lands_in_its_first_bound_at_or_above(self, bounds,
                                                             values):
        """The bucket of ``v`` is the first bound with ``v <= bound``;
        NaN, which is below no bound, and larger values land in +Inf."""
        histogram = Histogram("h.test", (), buckets=bounds)
        expected = [0] * (len(histogram.buckets) + 1)
        for value in values:
            histogram.observe(value)
            expected[next((i for i, bound in enumerate(histogram.buckets)
                           if value <= bound), len(histogram.buckets))] += 1
        assert histogram.counts == expected

    def test_default_bucket_constants_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert list(LATENCY_NS_BUCKETS) == sorted(LATENCY_NS_BUCKETS)
        assert 250 in LATENCY_NS_BUCKETS  # the paper's pipeline claim


class TestHistogramQuantiles:
    def test_empty_histogram_estimates_zero(self):
        histogram = Histogram("h.test", (), buckets=(10, 100))
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.99) == 0.0

    def test_interpolates_inside_the_crossing_bucket(self):
        """Ten observations in (100, 200]: the median interpolates to
        the middle of that bucket, histogram_quantile-style."""
        histogram = Histogram("h.test", (), buckets=(100, 200))
        for _ in range(10):
            histogram.observe(150)
        assert histogram.quantile(0.5) == pytest.approx(150.0)
        assert histogram.quantile(0.1) == pytest.approx(110.0)
        assert histogram.quantile(1.0) == pytest.approx(200.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram("h.test", (), buckets=(100, 200))
        for _ in range(4):
            histogram.observe(50)
        assert histogram.quantile(0.5) == pytest.approx(50.0)

    def test_inf_tail_clamps_to_largest_finite_bound(self):
        histogram = Histogram("h.test", (), buckets=(10, 100))
        histogram.observe(5)
        histogram.observe(10_000)  # lands in the +Inf tail
        assert histogram.quantile(0.99) == 100.0

    def test_out_of_range_q_rejected(self):
        histogram = Histogram("h.test", (), buckets=(10,))
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(ConfigurationError):
                histogram.quantile(bad)

    def test_quantiles_names_follow_the_points(self):
        histogram = Histogram("h.test", (), buckets=(100,))
        histogram.observe(50)
        named = histogram.quantiles()
        assert set(named) == {"p50", "p95", "p99"}
        assert histogram.quantiles(points=(0.999,)).keys() == {"p99_9"}

    def test_quantiles_monotonic_over_points(self):
        histogram = Histogram("h.test", (), buckets=(10, 100, 1000))
        for value in (5, 8, 50, 80, 500, 800, 900):
            histogram.observe(value)
        named = histogram.quantiles()
        assert named["p50"] <= named["p95"] <= named["p99"]

    def test_survives_a_to_from_dict_round_trip(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.lat", buckets=(10, 100))
        for value in (5, 50, 70):
            histogram.observe(value)
        rebuilt = MetricsRegistry.from_dict(registry.to_dict()).get("h.lat")
        assert rebuilt.quantile(0.5) == histogram.quantile(0.5)

    def test_as_dict_unchanged_by_quantile_support(self):
        """metrics.json stays byte-identical: quantiles are derived at
        read time, never serialized."""
        histogram = Histogram("h.test", (), buckets=(10,))
        histogram.observe(5)
        histogram.quantile(0.5)
        assert set(histogram.as_dict()) == {
            "kind", "name", "labels", "buckets", "counts", "sum", "count",
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert len(registry) == 1

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ConfigurationError):
            registry.gauge("a.b")
        with pytest.raises(ConfigurationError):
            registry.histogram("a.b")

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("Bad.Name", "1abc", "a..b", "a-b", ""):
            with pytest.raises(ConfigurationError):
                registry.counter(bad)

    def test_iteration_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("z.z")
        registry.counter("a.a", q="2")
        registry.counter("a.a", q="1")
        names = [(m.name, m.labels) for m in registry]
        assert names == sorted(names)

    def test_value_default_for_missing(self):
        registry = MetricsRegistry()
        assert registry.value("no.such", default=7) == 7
        assert registry.get("no.such") is None
        assert len(registry) == 0  # get/value never create

    def test_round_trip_to_from_dict(self):
        registry = MetricsRegistry()
        registry.counter("c.one").inc(12)
        registry.counter("c.two", direction="R").inc(3)
        gauge = registry.gauge("g.depth")
        gauge.set(8)
        gauge.set(2)
        histogram = registry.histogram("h.lat", buckets=(10, 100))
        histogram.observe(5)
        histogram.observe(50)
        histogram.observe(5000)

        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_dict() == registry.to_dict()
        assert rebuilt.value("c.one") == 12
        assert rebuilt.value("c.two", direction="R") == 3
        h2 = rebuilt.get("h.lat")
        assert isinstance(h2, Histogram)
        assert h2.cumulative() == histogram.cumulative()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry.from_dict(
                {"series": [{"kind": "summary", "name": "x.y", "value": 1}]}
            )

    def test_metric_kinds_exposed(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("k.c"), Counter)
        assert isinstance(registry.gauge("k.g"), Gauge)
        assert isinstance(registry.histogram("k.h"), Histogram)

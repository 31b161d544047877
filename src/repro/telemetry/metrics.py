"""Metric primitives and the registry that owns them.

The design follows the paper's own statistics gatherer (§3.2): counters
cheap enough to leave enabled, sampled and exported out-of-band.  Three
metric kinds cover everything the reproduction needs:

* :class:`Counter` — monotonically increasing totals
  (``sim.events_fired``, ``injector.injections``);
* :class:`Gauge` — point-in-time values with high/low watermarks
  (``device.fifo.depth``, ``sim.queue_depth``);
* :class:`Histogram` — fixed-bucket distributions
  (``device.added_latency_ns`` against the paper's ~250 ns claim).

Series are identified by a dotted lowercase name plus an optional label
set (``counter("device.injections", direction="R")``), mirroring the
Prometheus data model so the text exporter is a straight transcription.

Metric values are *observations only*: nothing in this module reads a
clock or schedules events, so registries can be live inside a simulated
campaign without perturbing it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_NS_BUCKETS",
    "RUN_EVENT_BUCKETS",
]

#: Generic magnitude buckets (1-2-5 decades).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)

#: Added-latency buckets in nanoseconds, centred on the paper's ~250 ns
#: pipeline transit claim (footnote 5) and Table 2's sub-microsecond rows.
LATENCY_NS_BUCKETS: Tuple[float, ...] = (
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
)

#: Events-per-``run()`` buckets for the kernel step histogram.
RUN_EVENT_BUCKETS: Tuple[float, ...] = (
    1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: A frozen, ordered label set — the second half of a series key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared name/label plumbing for all metric kinds."""

    kind = "metric"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def as_dict(self) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def set_total(self, total: float) -> None:
        """Bridge a cumulative source counter (e.g. ``injector.stats``).

        The bridged total may only move forward; re-sampling the same
        source is idempotent.
        """
        if total < self.value:
            raise ConfigurationError(
                f"counter {self.name} cannot rewind from "
                f"{self.value} to {total}"
            )
        self.value = total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict(),
            "value": self.value,
        }


class Gauge(_Metric):
    """A point-in-time value with high/low watermarks."""

    kind = "gauge"
    __slots__ = ("value", "high", "low", "samples")

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value: float = 0
        self.high: Optional[float] = None
        self.low: Optional[float] = None
        self.samples: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        if self.high is None or value > self.high:
            self.high = value
        if self.low is None or value < self.low:
            self.low = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.set(self.value - amount)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict(),
            "value": self.value,
            "high": self.high,
            "low": self.low,
            "samples": self.samples,
        }


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  ``counts[i]`` is the number of observations ``<=
    buckets[i]`` (non-cumulative storage; the exporter accumulates).
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(
                f"histogram {name} needs at least one bucket bound"
            )
        self.buckets: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # +Inf tail
        self.total: float = 0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation (NaN lands in the ``+Inf`` tail)."""
        buckets = self.buckets
        index = bisect_left(buckets, value) if value == value \
            else len(buckets)
        self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate from the fixed buckets.

        Classic Prometheus ``histogram_quantile`` semantics: find the
        bucket where the cumulative count crosses ``q * count`` and
        interpolate linearly inside it (bucket observations are assumed
        uniform).  Edge rules keep the estimate finite and reproducible:

        * an empty histogram estimates ``0.0``;
        * a rank landing in the ``+Inf`` tail clamps to the largest
          finite bound (there is no upper edge to interpolate toward);
        * the first bucket interpolates from ``0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(
                f"quantile must be within [0, 1], got {q!r}"
            )
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for i, bound in enumerate(self.buckets):
            previous = running
            running += self.counts[i]
            if running >= rank:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                in_bucket = running - previous
                if in_bucket == 0:
                    return bound
                return lower + (bound - lower) * (rank - previous) / in_bucket
        return self.buckets[-1]

    def quantiles(
        self, points: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, float]:
        """Named quantile estimates, ``{"p50": ..., "p95": ..., ...}``.

        The default points are the p50/p95/p99 triple the CLI summary
        and the insight feature extractor consume.
        """
        out: Dict[str, float] = {}
        for q in points:
            label = format(q * 100, "g").replace(".", "_")
            out[f"p{label}"] = self.quantile(q)
        return out

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.label_dict(),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Namespaced home for every metric series of one telemetry session.

    Series are created on first use and returned on every subsequent
    call, so instrumentation sites never need registration boilerplate::

        registry.counter("sim.events_fired").inc(fired)
        registry.gauge("device.fifo.depth", direction="R").set(depth)
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelKey], _Metric] = {}

    # ------------------------------------------------------------------
    # series accessors
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        existing = self._series.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ConfigurationError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        self._check_name(name)
        metric = Histogram(name, key[1], buckets or DEFAULT_BUCKETS)
        self._series[key] = metric
        return metric

    def _get(self, cls: type, name: str, labels: Dict[str, Any]) -> Any:
        key = (name, _label_key(labels))
        existing = self._series.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name} already registered as {existing.kind}"
                )
            return existing
        self._check_name(name)
        metric = cls(name, key[1])
        self._series[key] = metric
        return metric

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(
                f"bad metric name {name!r}: want dotted lowercase like "
                "'sim.events_fired'"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[_Metric]:
        """Metrics in deterministic (name, labels) order."""
        for key in sorted(self._series):
            yield self._series[key]

    def get(self, name: str, **labels: Any) -> Optional[_Metric]:
        """The series if it exists, else ``None`` (never creates)."""
        return self._series.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0, **labels: Any) -> float:
        """Scalar value of a counter/gauge series, or ``default``."""
        metric = self.get(name, **labels)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # serialization (metrics.json / `repro.cli metrics`)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every series, deterministically ordered."""
        return {"series": [metric.as_dict() for metric in self]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for entry in data.get("series", []):
            name = entry["name"]
            labels = entry.get("labels", {})
            kind = entry.get("kind")
            if kind == "counter":
                registry.counter(name, **labels).set_total(entry["value"])
            elif kind == "gauge":
                gauge = registry.gauge(name, **labels)
                gauge.value = entry["value"]
                gauge.high = entry.get("high")
                gauge.low = entry.get("low")
                gauge.samples = entry.get("samples", 0)
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, buckets=entry["buckets"], **labels
                )
                histogram.counts = list(entry["counts"])
                histogram.total = entry["sum"]
                histogram.count = entry["count"]
            else:
                raise ConfigurationError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )
        return registry

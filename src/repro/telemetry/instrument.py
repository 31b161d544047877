"""Instrumentation bridges between the simulation stack and the registry.

Two kinds of function live here:

* **hot hooks** (:func:`kernel_run`, :func:`device_burst`,
  :func:`injection`) — called from instrumented code *after* it checked
  ``STATE.registry is not None``, at run/burst/injection granularity (never per
  event).  Each binds its series once per registry and keeps the handles
  on the observed component, so the enabled cost is attribute loads plus
  ``inc``/``set``/``observe``;
* **samplers** (:func:`sample_simulator`, :func:`sample_device`,
  :func:`publish_direction_stats`) — pull cumulative counters out of
  existing components (``injector.stats``, ``DirectionStats``) into the
  registry at phase boundaries.

Everything here only *observes*.  No function reads a clock, schedules
an event, or mutates simulation state — the determinism sanitizer test
replays an identical-seed campaign with telemetry on and off and
requires bit-identical kernel digests.

This module deliberately avoids importing the simulation packages; the
hooks are duck-typed so no import cycle forms (``sim.kernel`` imports
us, not the other way around).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.telemetry.metrics import (
    LATENCY_NS_BUCKETS,
    RUN_EVENT_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.state import STATE

__all__ = [
    "kernel_run",
    "device_burst",
    "injection",
    "sample_simulator",
    "sample_device",
    "publish_direction_stats",
]


# ---------------------------------------------------------------------------
# hot hooks (caller has already checked STATE.registry is not None)
# ---------------------------------------------------------------------------


def _bound(owner: Any, registry: MetricsRegistry) -> Dict[Any, Any]:
    """``owner``'s metric handles for ``registry`` (empty after a switch).

    A hot hook resolves each series once per registry and keeps the
    metric object on the component it observes, so later calls skip
    the registry's label-sorting lookup.  The cache is keyed on the
    registry's identity: a new session rebinds on its first call.
    """
    cached = getattr(owner, "_metric_handles", None)
    if cached is None or cached[0] is not registry:
        cached = (registry, {})
        owner._metric_handles = cached
    return cached[1]


def kernel_run(sim: Any, fired: int) -> None:
    """Account one ``Simulator.run``/``run_until`` batch.

    ``sim.events_fired`` accumulates exactly because each batch reports
    the events it fired; the queue-depth gauge tracks high watermarks
    across batches; the per-run histogram shows how bursty the kernel's
    work is.
    """
    registry = STATE.registry
    handles = _bound(sim, registry)
    metrics = handles.get(None)
    if metrics is None:
        metrics = handles[None] = (
            registry.counter("sim.events_fired"),
            registry.gauge("sim.queue_depth"),
            registry.gauge("sim.now_ps"),
            registry.histogram("sim.run_events", buckets=RUN_EVENT_BUCKETS),
        )
    events_fired, queue_depth, now_ps, run_events = metrics
    events_fired.inc(fired)
    queue_depth.set(sim.pending)
    now_ps.set(sim.now)
    run_events.observe(fired)


def device_burst(
    device: Any, direction: str, symbols_in: int, symbols_out: int
) -> None:
    """Account one burst through the fault-injector device.

    The added-latency observation is the device's full per-burst cost:
    pipeline transit plus the output re-serialization modelled in
    :mod:`repro.core.device` — comparable against the paper's ~250 ns
    pipeline claim and Table 2's end-to-end rows.  A direction's series
    are created on its first burst, as the registry would.
    """
    registry = STATE.registry
    handles = _bound(device, registry)
    metrics = handles.get(direction)
    if metrics is None:
        metrics = handles[direction] = (
            registry.counter("device.bursts", direction=direction),
            registry.counter("device.symbols_in", direction=direction),
            registry.counter("device.symbols_out", direction=direction),
            registry.gauge("device.fifo.depth", direction=direction),
            registry.gauge("device.fifo.high_watermark",
                           direction=direction),
            registry.histogram("device.added_latency_ns",
                               buckets=LATENCY_NS_BUCKETS),
        )
    bursts, counted_in, counted_out, depth, high_watermark, latency = metrics
    bursts.inc()
    counted_in.inc(symbols_in)
    counted_out.inc(symbols_out)
    fifo = device.injector(direction).fifo
    depth.set(fifo.occupancy)
    high_watermark.set(fifo.high_watermark)
    latency.observe(
        (device.pipeline_latency_ps
         + symbols_out * getattr(device, "_char_period_ps", 0)) / 1_000.0
    )


def injection(injector: Any, event: Any) -> None:
    """Account one trigger firing (pattern match or forced inject).

    ``injector.lanes_unreachable`` is created by the first firing that
    has unreachable lanes, and each ``kind`` by its first firing.
    """
    registry = STATE.registry
    handles = _bound(injector, registry)
    name = injector.name
    kind = "forced" if event.forced else "matched"
    fired = handles.get(kind)
    if fired is None:
        fired = handles[kind] = registry.counter(
            "injector.injections", injector=name, kind=kind)
    fired.inc()
    rewritten = handles.get("lanes_rewritten")
    if rewritten is None:
        rewritten = handles["lanes_rewritten"] = registry.counter(
            "injector.lanes_rewritten", injector=name)
    rewritten.inc(event.lanes_rewritten)
    if event.lanes_unreachable:
        unreachable = handles.get("lanes_unreachable")
        if unreachable is None:
            unreachable = handles["lanes_unreachable"] = registry.counter(
                "injector.lanes_unreachable", injector=name)
        unreachable.inc(event.lanes_unreachable)


# ---------------------------------------------------------------------------
# phase-boundary samplers
# ---------------------------------------------------------------------------


def sample_simulator(sim: Any, registry: MetricsRegistry = None) -> None:  # type: ignore[assignment]
    """Snapshot kernel gauges (queue depth, clock) into the registry."""
    if registry is None:
        registry = STATE.registry
    if registry is None:
        return
    registry.gauge("sim.queue_depth").set(sim.pending)
    registry.gauge("sim.now_ps").set(sim.now)


def sample_device(
    device: Any,
    registry: MetricsRegistry = None,  # type: ignore[assignment]
    accumulate: bool = False,
) -> None:
    """Bridge the device's cumulative counters into the registry.

    Two sampling disciplines:

    * ``accumulate=False`` (default) — the same *live* device is
      re-sampled over its lifetime; ``Counter.set_total`` keeps the
      bridge idempotent;
    * ``accumulate=True`` — a *fresh* device is sampled exactly once at
      the end of its life (the per-experiment pattern, where every
      experiment rebuilds the test bed); totals are added so a campaign
      aggregates across experiments.
    """
    if registry is None:
        registry = STATE.registry
    if registry is None:
        return

    def bridge(name: str, total: float, **labels: Any) -> None:
        counter = registry.counter(name, **labels)
        if accumulate:
            counter.inc(total)
        else:
            counter.set_total(total)

    for direction in ("R", "L"):
        injector = device.injector(direction)
        labels = dict(device=device.name, direction=direction)
        stats = injector.stats
        bridge("injector.symbols_processed", stats["symbols_processed"],
               **labels)
        bridge("injector.matches", stats["compare_matches"], **labels)
        bridge("injector.injections_total", stats["injections"], **labels)
        bridge("injector.fifo_rewrites", stats["fifo_rewrites"], **labels)
        registry.gauge("device.fifo.high_watermark", **labels).set(
            injector.fifo.high_watermark
        )
        publish_direction_stats(
            device.statistics(direction).stats,
            registry=registry,
            accumulate=accumulate,
            **labels,
        )
    bridge("device.bursts_forwarded", device.bursts_forwarded,
           device=device.name)
    registry.gauge("device.pipeline_latency_ns", device=device.name).set(
        device.pipeline_latency_ps / 1_000.0
    )
    sdram = getattr(device, "sdram", None)
    if sdram is not None:
        # Capture loss must be visible, not silent: stores, drops by
        # cause, shed bytes, and the worst write-queue backlog seen.
        stats = sdram.stats
        bridge("sdram.records_stored", stats["records_stored"],
               device=device.name)
        bridge("sdram.records_dropped_capacity",
               stats["records_dropped_capacity"], device=device.name)
        bridge("sdram.records_dropped_bandwidth",
               stats["records_dropped_bandwidth"], device=device.name)
        bridge("sdram.bytes_dropped", stats["bytes_dropped"],
               device=device.name)
        registry.gauge("sdram.bytes_used", device=device.name).set(
            stats["bytes_used"]
        )
        registry.gauge("sdram.peak_backlog_ps", device=device.name).set(
            stats["peak_backlog_ps"]
        )


def publish_direction_stats(
    stats: Any,
    registry: MetricsRegistry = None,  # type: ignore[assignment]
    accumulate: bool = False,
    **labels: Any,
) -> None:
    """Bridge one :class:`~repro.core.stats.DirectionStats` snapshot."""
    if registry is None:
        registry = STATE.registry
    if registry is None:
        return

    def bridge(name: str, total: float, **extra: Any) -> None:
        counter = registry.counter(name, **{**labels, **extra})
        if accumulate:
            counter.inc(total)
        else:
            counter.set_total(total)

    bridge("stats.symbols", stats.symbols)
    bridge("stats.data_symbols", stats.data_symbols)
    bridge("stats.frames", stats.frames)
    bridge("stats.crc_bad_frames", stats.crc_bad_frames)
    for symbol_name, count in sorted(stats.control_symbols.items()):
        bridge("stats.control_symbols", count, symbol=symbol_name)
    for packet_type, count in sorted(stats.packet_types.items()):
        bridge("stats.packet_types", count, type=str(packet_type))

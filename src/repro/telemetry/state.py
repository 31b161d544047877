"""The global observation switchboard.

Observation must be *leave-enabled cheap* and *disabled free*.  Every
hook in the hot layers (the event kernel, the device burst path, host
transmit and receive, switch forwarding, the executors' lifecycle
events) guards its recording call with a single slot load on the
module-level :data:`STATE` singleton.  Each slot holds one live sink, or
``None`` when that kind of observation is off:

* ``registry`` — the :class:`~repro.telemetry.metrics.MetricsRegistry`;
* ``spans`` — the :class:`~repro.telemetry.spans.SpanTracker`;
* ``recorder`` — the capture
  :class:`~repro.capture.provenance.FlightRecorder`;
* ``bus`` — the live :class:`~repro.runtime.events.EventBus`.

Hook sites test a slot with ``is not None``, never by truthiness: an
empty ``MetricsRegistry`` has length 0 and is falsy.  With every slot
``None`` the instrumented code takes one predictable branch and does
nothing else — no allocation, no dict lookup, no wall-clock read.  The
determinism tests pin this down: an identical-seed campaign produces
the same kernel event digest observed, unobserved, and before any of
this existed.

:meth:`Switchboard.swap` is the one save/restore routine.
:class:`~repro.telemetry.session.ObservationSession`,
:class:`~repro.runtime.events.EventBusSession` and the monitoring
server install their sinks with it and hand back what it returned on
exit, so installs nest and each restores only the slots it set.

This module deliberately imports nothing from the simulation stack so
any layer may import it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Switchboard", "STATE"]


class Switchboard:
    """The process-wide observation sinks, one slot each.

    ``__slots__`` keeps each check a straight slot load — the only cost
    instrumented code pays when observation is off.
    """

    __slots__ = ("registry", "spans", "recorder", "bus")

    def __init__(self) -> None:
        # Typed ``Any``: hooks read a slot only after the call site
        # tested it, so the sinks' own types are the contract.
        self.registry: Any = None
        self.spans: Any = None
        self.recorder: Any = None
        self.bus: Any = None

    def swap(self, **sinks: Any) -> Dict[str, Any]:
        """Install ``sinks`` into their slots; return what they displaced.

        Passing the returned mapping back to ``swap`` restores the
        displaced sinks.
        """
        previous = {name: getattr(self, name) for name in sinks}
        for name, sink in sinks.items():
            setattr(self, name, sink)
        return previous


#: The singleton every instrumentation site reads.
STATE = Switchboard()

"""Live campaign event bus: bounded, drop-counting, thread-safe.

The paper's premise is *live* monitoring — the adaptive monitor watches
the link in real time, not after the fact.  This module is the software
analogue for the campaign engine itself: executors publish typed
lifecycle events onto a process-wide :class:`EventBus` that
subscribers — the ``repro.cli campaign --follow`` printer, the
:mod:`repro.server` streaming endpoints — consume concurrently while
the campaign runs.

The bus lives under the same contract as telemetry and capture, and the
same golden-digest gates prove it:

* **disabled is free** — every emission site guards on a single slotted
  attribute read (:data:`EVENTS`.``active``); with no bus installed the
  instrumented code takes one predictable branch and does nothing else;
* **enabled only observes** — publishing appends to bounded ring
  buffers and never blocks: a slow or absent subscriber costs the
  executor nothing beyond a dropped-event count.  No subscriber can
  stall, reorder, or perturb the campaign.

Event shape (one JSON object per event, NDJSON-friendly)::

    {"seq": 3, "campaign": "cli control-symbol campaign",
     "kind": "experiment_finished", "index": 1, "name": "GAP->IDLE", ...}

``seq`` is a **monotone per-campaign sequence number** assigned under
the bus lock at publish time — subscribers detect their own losses by
gaps, and the server's replay endpoint orders on it.

Lifecycle kinds (see :data:`EVENT_KINDS`): ``campaign_started``,
``experiment_started`` / ``experiment_finished`` /
``experiment_restored`` / ``experiment_retried`` (a worker crashed
or timed out and the experiment was re-issued with the same derived
seed; ``reason`` says which — *not* a second ``experiment_started``) /
``experiment_failed``, ``snapshot`` (periodic counter *deltas* since
the previous snapshot), ``shard_merged``, ``campaign_finished``,
``campaign_failed``, and ``heartbeat``.

Wall-clock note: this module carries the :mod:`repro.runtime` SIM001
allowance — events timestamp *host* observation time for subscribers
and never feed simulated time.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventBus",
    "Subscription",
    "EventBusSession",
    "EVENTS",
    "events_active",
    "emit",
]

#: Every event kind the engine publishes (subscribers may filter on it;
#: unknown kinds are forward-compatible — consumers must tolerate them).
EVENT_KINDS = (
    "campaign_queued",
    "campaign_started",
    "experiment_started",
    "experiment_finished",
    "experiment_restored",
    "experiment_retried",
    "experiment_failed",
    "snapshot",
    "shard_merged",
    "insight_ready",
    "campaign_finished",
    "campaign_failed",
    "heartbeat",
)

#: Kinds that terminate a campaign's event stream (the server's
#: streaming endpoint closes a follow once one of these has been sent).
TERMINAL_KINDS = ("campaign_finished", "campaign_failed")

#: Default per-campaign history ring size (replay window).
DEFAULT_HISTORY = 4096
#: Default per-subscription queue size.
DEFAULT_SUBSCRIPTION_DEPTH = 1024


class Event:
    """One published lifecycle event (immutable by convention)."""

    __slots__ = ("seq", "campaign", "kind", "payload")

    def __init__(self, seq: int, campaign: str, kind: str,
                 payload: Dict[str, Any]) -> None:
        self.seq = seq
        self.campaign = campaign
        self.kind = kind
        self.payload = payload

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-safe projection (payload keys flattened in)."""
        doc: Dict[str, Any] = {
            "seq": self.seq,
            "campaign": self.campaign,
            "kind": self.kind,
        }
        doc.update(self.payload)
        return doc

    def to_json(self) -> str:
        """One NDJSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, campaign={self.campaign!r}, " \
               f"kind={self.kind!r})"


class Subscription:
    """One subscriber's bounded event queue.

    Obtained from :meth:`EventBus.subscribe`.  The queue is a ring: when
    a subscriber falls more than ``depth`` events behind, the *oldest*
    queued events are evicted and counted in :attr:`dropped` — the
    publisher never blocks and never sees the slow consumer.
    """

    def __init__(self, bus: "EventBus", campaign: Optional[str],
                 depth: int) -> None:
        self._bus = bus
        self.campaign = campaign
        self._queue: Deque[Event] = deque(maxlen=max(1, depth))
        self._cond = threading.Condition()
        self.closed = False
        #: Events evicted from this subscription's ring (consumer lag).
        self.dropped = 0

    # -- publisher side (called under the bus lock) --------------------

    def _offer(self, event: Event) -> None:
        if self.closed:
            return
        if self.campaign is not None and event.campaign != self.campaign:
            return
        with self._cond:
            if len(self._queue) == self._queue.maxlen:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(event)
            self._cond.notify_all()

    # -- consumer side --------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[Event]:
        """Pop the next event, blocking up to ``timeout`` seconds.

        Returns ``None`` on timeout or once the subscription is closed
        and drained.
        """
        with self._cond:
            if not self._queue:
                if self.closed:
                    return None
                self._cond.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def drain(self) -> List[Event]:
        """Pop everything currently queued without blocking."""
        with self._cond:
            events = list(self._queue)
            self._queue.clear()
        return events

    def close(self) -> None:
        """Detach from the bus; wakes any blocked :meth:`get`."""
        self._bus._unsubscribe(self)
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def __iter__(self) -> Iterator[Event]:
        """Drain-until-closed iteration (blocking)."""
        while True:
            event = self.get(timeout=0.2)
            if event is not None:
                yield event
            elif self.closed and not self._queue:
                return

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class EventBus:
    """Process-wide fan-out of campaign lifecycle events.

    Thread-safe: executors publish from worker/runner threads while
    subscribers drain from the asyncio server loop or the CLI printer.
    All buffers are bounded; overflow is counted, never blocking.
    """

    def __init__(self, history: int = DEFAULT_HISTORY) -> None:
        self._lock = threading.Lock()
        self._history_depth = max(1, history)
        self._seq: Dict[str, int] = {}
        self._history: Dict[str, Deque[Event]] = {}
        self._history_dropped: Dict[str, int] = {}
        self._subscribers: List[Subscription] = []
        #: Total events ever published.
        self.published = 0

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------

    def publish(self, campaign: str, kind: str, **payload: Any) -> Event:
        """Assign the next per-campaign seq and fan the event out.

        Never blocks: every sink is a bounded ring.  Returns the
        published event (tests and callers may inspect the seq).
        """
        with self._lock:
            seq = self._seq.get(campaign, 0)
            self._seq[campaign] = seq + 1
            event = Event(seq, campaign, kind, payload)
            ring = self._history.get(campaign)
            if ring is None:
                ring = deque(maxlen=self._history_depth)
                self._history[campaign] = ring
            if len(ring) == ring.maxlen:
                ring.popleft()
                self._history_dropped[campaign] = (
                    self._history_dropped.get(campaign, 0) + 1
                )
            ring.append(event)
            self.published += 1
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            subscription._offer(event)
        return event

    # ------------------------------------------------------------------
    # subscribe / replay
    # ------------------------------------------------------------------

    def subscribe(
        self,
        campaign: Optional[str] = None,
        depth: int = DEFAULT_SUBSCRIPTION_DEPTH,
        replay: bool = False,
    ) -> Subscription:
        """Attach a bounded subscription (optionally one campaign only).

        With ``replay=True`` the campaign's retained history is queued
        first, so a late subscriber sees the stream from the oldest
        retained event (monotone ``seq`` lets it detect the gap to 0).
        """
        subscription = Subscription(self, campaign, depth)
        with self._lock:
            backlog: List[Event] = []
            if replay:
                if campaign is not None:
                    backlog = list(self._history.get(campaign, ()))
                else:
                    for ring in self._history.values():
                        backlog.extend(ring)
                    backlog.sort(key=lambda e: (e.campaign, e.seq))
            self._subscribers.append(subscription)
        for event in backlog:
            subscription._offer(event)
        return subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass  # simlint: disable=ERR001 -- double-close is idempotent

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def history(self, campaign: str) -> List[Event]:
        """The retained events of one campaign, oldest first."""
        with self._lock:
            return list(self._history.get(campaign, ()))

    def campaigns(self) -> List[str]:
        """Campaign labels that have published at least one event."""
        with self._lock:
            return sorted(self._seq)

    def last_seq(self, campaign: str) -> int:
        """Events published so far for ``campaign`` (next seq)."""
        with self._lock:
            return self._seq.get(campaign, 0)

    @property
    def dropped(self) -> int:
        """Total events lost anywhere: history eviction + slow readers."""
        with self._lock:
            history_dropped = sum(self._history_dropped.values())
            subscriber_dropped = sum(
                s.dropped for s in self._subscribers
            )
        return history_dropped + subscriber_dropped


class _EventsState:
    """The process-wide emission switch (same idiom as telemetry STATE).

    ``__slots__`` keeps the ``active`` check a straight slot load — the
    only cost the executors pay when no bus is installed.
    """

    __slots__ = ("active", "bus")

    def __init__(self) -> None:
        self.active: bool = False
        self.bus: Optional[EventBus] = None

    def activate(self, bus: EventBus) -> None:
        self.bus = bus
        self.active = True

    def deactivate(self) -> None:
        self.active = False
        self.bus = None


#: The singleton every emission site reads.
EVENTS = _EventsState()


def events_active() -> bool:
    """True while an event bus is installed."""
    return EVENTS.active


def emit(campaign: str, kind: str, **payload: Any) -> Optional[Event]:
    """Publish onto the ambient bus, if one is installed (else free)."""
    if not EVENTS.active:
        return None
    bus = EVENTS.bus
    if bus is None:  # pragma: no cover - defensive
        return None
    return bus.publish(campaign, kind, **payload)


class EventBusSession:
    """Install a bus for a ``with`` block (nests like TelemetrySession).

    ::

        bus = EventBus()
        with EventBusSession(bus):
            with bus.subscribe() as sub:
                campaign.run(...)          # executors publish live
                for event in sub.drain():
                    print(event.to_json())
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 history: int = DEFAULT_HISTORY) -> None:
        self.bus = bus if bus is not None else EventBus(history=history)
        self._previous: Optional[tuple] = None

    def __enter__(self) -> "EventBusSession":
        self._previous = (EVENTS.active, EVENTS.bus)
        EVENTS.activate(self.bus)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is not None:
            active, bus = self._previous
            if active and bus is not None:
                EVENTS.activate(bus)
            else:
                EVENTS.deactivate()
            self._previous = None
        else:  # pragma: no cover - defensive
            EVENTS.deactivate()
        return False

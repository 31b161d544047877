"""The live campaign event bus: bounded fan-out that only observes.

Three layers of proof:

* **mechanics** — monotone per-campaign sequence numbers, bounded
  subscription rings that drop-and-count instead of blocking, history
  replay for late subscribers, session nesting;
* **emission** — serial and pooled executors publish the documented
  lifecycle kinds in the documented order, and every
  ``experiment_finished`` follows its committed result-store row;
* **observation-only** — with a bus installed (and a live subscriber
  attached) the kernel event-stream digest still matches the golden
  pre-telemetry digests, and a campaign's merged artifacts are
  byte-identical to a run with no bus at all.
"""

import json
import sqlite3
import threading

import pytest

from repro.analysis.sanitize import run_probe
from repro.insight import analyze_artifacts
from repro.nftape.campaign import Campaign
from repro.runtime.events import (
    EVENT_KINDS,
    EventBus,
    EventBusSession,
    emit,
)
from repro.runtime.executors import PooledExecutor, SerialExecutor
from repro.runtime.store import spec_digest

from tests.test_runtime import tiny_spec
from tests.test_telemetry_determinism import DURATION_PS, GOLDEN_DIGESTS


pytestmark = pytest.mark.usefixtures("observation_off")


# ----------------------------------------------------------------------
# bus mechanics
# ----------------------------------------------------------------------

class TestEventBus:
    def test_seq_is_monotone_per_campaign(self):
        bus = EventBus()
        assert [bus.publish("a", "heartbeat").seq for _ in range(3)] \
            == [0, 1, 2]
        assert bus.publish("b", "heartbeat").seq == 0
        assert bus.last_seq("a") == 3
        assert bus.campaigns() == ["a", "b"]

    def test_event_json_flattens_payload(self):
        event = EventBus().publish("c", "experiment_finished", index=2,
                                   name="run-2")
        doc = json.loads(event.to_json())
        assert doc == {"seq": 0, "campaign": "c",
                       "kind": "experiment_finished", "index": 2,
                       "name": "run-2"}

    def test_subscription_filters_by_campaign(self):
        bus = EventBus()
        with bus.subscribe(campaign="a") as sub:
            bus.publish("a", "heartbeat")
            bus.publish("b", "heartbeat")
            events = sub.drain()
        assert [e.campaign for e in events] == ["a"]

    def test_overflowing_subscription_drops_oldest_never_blocks(self):
        bus = EventBus()
        sub = bus.subscribe(depth=4)
        for index in range(10):
            bus.publish("c", "snapshot", index=index)
        # The publisher never blocked; the ring kept the newest 4.
        assert sub.dropped == 6
        assert [e.payload["index"] for e in sub.drain()] == [6, 7, 8, 9]
        assert bus.dropped == 6
        sub.close()

    def test_history_ring_eviction_is_counted(self):
        bus = EventBus(history=3)
        for index in range(5):
            bus.publish("c", "snapshot", index=index)
        assert [e.payload["index"] for e in bus.history("c")] == [2, 3, 4]
        assert bus.dropped == 2
        # Sequence numbers survive eviction — readers can see the gap.
        assert bus.history("c")[0].seq == 2

    def test_replay_delivers_history_to_late_subscriber(self):
        bus = EventBus()
        bus.publish("c", "campaign_started")
        bus.publish("c", "campaign_finished")
        with bus.subscribe(campaign="c", replay=True) as sub:
            kinds = [e.kind for e in sub.drain()]
        assert kinds == ["campaign_started", "campaign_finished"]

    def test_closed_subscription_receives_nothing(self):
        bus = EventBus()
        sub = bus.subscribe()
        sub.close()
        bus.publish("c", "heartbeat")
        assert sub.drain() == []
        assert sub.get(timeout=0) is None

    def test_get_wakes_on_publish_from_another_thread(self):
        bus = EventBus()
        sub = bus.subscribe()
        timer = threading.Timer(0.05, bus.publish, args=("c", "heartbeat"))
        timer.start()
        event = sub.get(timeout=5.0)
        assert event is not None and event.kind == "heartbeat"
        sub.close()

    def test_emit_without_bus_is_a_noop(self):
        assert emit("c", "heartbeat") is None


# ----------------------------------------------------------------------
# executor emission
# ----------------------------------------------------------------------

class TestExecutorEmission:
    def test_serial_campaign_publishes_documented_lifecycle(self, tmp_path):
        spec = tiny_spec(n=2, name="events campaign")
        bus = EventBus()
        with EventBusSession(bus):
            Campaign.from_spec(spec).run(executor=SerialExecutor(
                artifacts_dir=tmp_path / "artifacts"))
        kinds = [e.kind for e in bus.history("events campaign")]
        assert kinds == [
            "campaign_started",
            "experiment_started", "experiment_finished", "snapshot",
            "experiment_started", "experiment_finished", "snapshot",
            "shard_merged",
            "campaign_finished",
        ]
        assert set(kinds) <= set(EVENT_KINDS)
        # seq is gapless for an unevicted history.
        assert [e.seq for e in bus.history("events campaign")] \
            == list(range(len(kinds)))

    def test_snapshot_events_carry_counter_deltas_and_totals(self):
        spec = tiny_spec(n=2, name="delta campaign")
        bus = EventBus()
        with EventBusSession(bus):
            Campaign.from_spec(spec).run(executor=SerialExecutor())
        snapshots = [e for e in bus.history("delta campaign")
                     if e.kind == "snapshot"]
        assert len(snapshots) == 2
        first, second = (s.payload for s in snapshots)
        assert first["experiments_done"] == 1
        assert second["experiments_done"] == 2
        for field in ("messages_sent", "messages_received", "injections"):
            assert second["totals"][field] \
                == first["deltas"][field] + second["deltas"][field]

    def test_pooled_campaign_publishes_same_lifecycle_with_merge(
            self, tmp_path):
        spec = tiny_spec(n=3, name="pooled events")
        bus = EventBus()
        with EventBusSession(bus):
            Campaign.from_spec(spec).run(executor=PooledExecutor(
                workers=2, artifacts_dir=tmp_path / "artifacts"))
        kinds = [e.kind for e in bus.history("pooled events")]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("experiment_started") == 3
        assert kinds.count("experiment_finished") == 3
        assert "shard_merged" in kinds
        merged = next(e for e in bus.history("pooled events")
                      if e.kind == "shard_merged")
        assert merged.payload["telemetry_shards"] == 3

    def test_events_label_overrides_the_campaign_key(self):
        spec = tiny_spec(n=1, name="real name")
        bus = EventBus()
        with EventBusSession(bus):
            Campaign.from_spec(spec).run(
                executor=SerialExecutor(events_label="c0042"))
        assert bus.campaigns() == ["c0042"]

    def test_winner_row_is_readable_when_its_event_fires(self, tmp_path):
        """Reader-during-write: by the time ``experiment_finished`` is
        published, the result store already holds that experiment's
        winner row, readable from a second sqlite connection (the store
        commits before the event is emitted)."""
        spec = tiny_spec(n=3, name="flush campaign")
        root = tmp_path / "artifacts"
        digest = spec_digest(spec)
        bus = EventBus()
        observed = []
        failures = []

        def _reader(sub):
            while True:
                event = sub.get(timeout=0.5)
                if event is None:
                    return
                if event.kind != "experiment_finished":
                    continue
                conn = sqlite3.connect(root / "results.sqlite",
                                       timeout=5.0)
                try:
                    done = {idx for idx, in conn.execute(
                        "SELECT idx FROM results WHERE spec_digest = ? "
                        "AND winner = 1", (digest,))}
                finally:
                    conn.close()
                if event.payload["index"] not in done:
                    failures.append(event.payload["index"])
                observed.append(event.payload["index"])

        sub = bus.subscribe(campaign="flush campaign")
        thread = threading.Thread(target=_reader, args=(sub,))
        with EventBusSession(bus):
            thread.start()
            Campaign.from_spec(spec).run(
                executor=SerialExecutor(artifacts_dir=root))
        sub.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert failures == []
        assert sorted(observed) == [0, 1, 2]


# ----------------------------------------------------------------------
# observation-only: golden digests + byte-identical artifacts
# ----------------------------------------------------------------------

class TestObservationOnly:
    def test_enabled_bus_reproduces_the_golden_digest(self):
        """An installed bus (with a live subscriber) does not perturb
        the kernel event stream: same pre-telemetry golden digest."""
        bus = EventBus()
        with EventBusSession(bus):
            with bus.subscribe():
                result = run_probe(seed=7, duration_ps=DURATION_PS)
        assert result.digest == GOLDEN_DIGESTS[7], (
            "an active event bus perturbed the simulation: "
            f"{result.summary()}"
        )

    def test_artifacts_identical_with_bus_off_on_and_subscribed(
            self, tmp_path):
        """Bus off / bus on / bus on + slow subscriber: byte-identical
        merged artifacts and insight digests."""
        def run(root, session):
            spec = tiny_spec(n=2, name="ab campaign")
            executor = SerialExecutor(artifacts_dir=root)
            if session is None:
                table = Campaign.from_spec(spec).run(executor=executor)
            else:
                with session:
                    table = Campaign.from_spec(spec).run(executor=executor)
            return table.render()

        off = run(tmp_path / "off", None)
        on = run(tmp_path / "on", EventBusSession())
        bus = EventBus()
        with bus.subscribe(depth=2):  # deliberately lossy subscriber
            subscribed = run(tmp_path / "sub", EventBusSession(bus))

        assert off == on == subscribed
        captures = [
            (tmp_path / name / "capture" / "capture.rcap").read_bytes()
            for name in ("off", "on", "sub")
        ]
        assert captures[0] == captures[1] == captures[2]
        digests = [analyze_artifacts(tmp_path / name).digest()
                   for name in ("off", "on", "sub")]
        assert digests[0] == digests[1] == digests[2]

"""The observation switchboard, its installs, and the artifacts they write.

One :class:`~repro.telemetry.state.Switchboard` carries every
observation sink.  Three things install sinks on it —
:class:`ObservationSession`, :class:`EventBusSession` and the
monitoring server — and all three must nest, restore the outer sinks,
and leave every slot empty once the outermost install exits, also when
the block raises.

The artifacts an observed pooled campaign writes are pinned byte for
byte: a seed-0, 2-worker run of the ``seu-sweep`` library scenario (the
shape of the ``sweep`` benchmark, made shorter) writes one
``capture.rcap`` per experiment shard plus the merged one, and a
``metrics.json`` beside each.  The capture files must not move by a
single byte, and the metric values must not move apart from the two
wall-clock series.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.stats import DirectionStats
from repro.nftape.campaign import Campaign
from repro.runtime import PooledExecutor
from repro.runtime.events import EventBusSession, emit
from repro.scenario.compile import compile_scenario
from repro.scenario.library import load_scenario
from repro.server import MonitorServer
from repro.telemetry import ARTIFACT_NAMES, ObservationSession
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import span
from repro.telemetry.state import STATE

pytestmark = pytest.mark.usefixtures("observation_off")

#: Series whose values are wall-clock readings, not simulation output.
WALL_CLOCK_SERIES = ("session.wall_s", "sim.events_per_s")

#: sha256 of every ``.rcap`` under the artifacts root, by relative path.
RCAP_SHA256 = {
    "capture/capture.rcap":
        "c91816f3d29aad8b4322581f642abb606b1b32b336f2ef90d0281cd70bfd898e",
    "experiments/exp-000-seu-mean_interval_us-250/capture/capture.rcap":
        "4920c48d3df2ae3ed5a8db8b540dcf59137212854ea1d5cc3253f5439debc669",
    "experiments/exp-001-seu-mean_interval_us-500/capture/capture.rcap":
        "a744fb2fd5b5064605e30708f3cc679ca946f42dc5b6c62de5f1c470500c735b",
    "experiments/exp-002-seu-mean_interval_us-1000/capture/capture.rcap":
        "2fe9e7b4e48463d09084fd8e18cd11a717c1f2f3c15b77462eb36c62c0940754",
    "experiments/exp-003-seu-mean_interval_us-2000/capture/capture.rcap":
        "41444cda3222d53c388b1f5f110f3e7f0d45800f213f6b80f16768f3aa4cf3e6",
}

#: sha256 of each ``metrics.json``'s series minus the wall-clock ones.
METRICS_SHA256 = {
    "experiments/exp-000-seu-mean_interval_us-250/telemetry/metrics.json":
        "e9c1c8756a0ab5b91972d5975aa4798b5c521756d2c910f5d038def1428a3a04",
    "experiments/exp-001-seu-mean_interval_us-500/telemetry/metrics.json":
        "a0cc0a12560c8af771ae26eb650d42fede49467b48dc2a6cdbb5dfdc6bc40281",
    "experiments/exp-002-seu-mean_interval_us-1000/telemetry/metrics.json":
        "658c53e089e0bc8f0cc597b06460579b8ac9efdd9a10099065e296298069761f",
    "experiments/exp-003-seu-mean_interval_us-2000/telemetry/metrics.json":
        "9f05fe8a71c4b12a065f2132bc01fd44597cab8172582195479c650e85bad7c8",
    "telemetry/metrics.json":
        "7579ee8bfaac2e12dc23d6f35bcc91a03d9fd9f92e94f0a05391caaec81d98e3",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _metric_values(path) -> str:
    document = json.loads(path.read_text())
    series = [
        entry for entry in document["metrics"]["series"]
        if entry["name"] not in WALL_CLOCK_SERIES
    ]
    return _sha256(json.dumps(series, sort_keys=True).encode("utf-8"))


def _slots():
    return {name: getattr(STATE, name) for name in STATE.__slots__}


def _observation(_root):
    session = ObservationSession()
    sinks = {"registry": session.registry, "spans": session.spans,
             "recorder": session.recorder}
    return session, sinks


def _event_bus(_root):
    session = EventBusSession()
    return session, {"bus": session.bus}


def _server_bus(root):
    server = MonitorServer(root=str(root))
    return server, {"bus": server.bus}


@pytest.mark.parametrize("make", [_observation, _event_bus, _server_bus],
                         ids=["ObservationSession", "EventBusSession",
                              "MonitorServer"])
def test_installs_nest_and_restore_the_outer_sinks(make, tmp_path):
    empty = _slots()
    assert set(empty.values()) == {None}
    outer, outer_sinks = make(tmp_path / "outer")
    inner, inner_sinks = make(tmp_path / "inner")
    with outer:
        assert _slots() == {**empty, **outer_sinks}
        with inner:
            assert _slots() == {**empty, **inner_sinks}
            emit("c", "heartbeat")
        # The inner exit restores the outer sinks, not "off".
        assert _slots() == {**empty, **outer_sinks}
        emit("c", "heartbeat")
    assert _slots() == empty
    if "bus" in outer_sinks:
        assert inner_sinks["bus"].published == 1
        assert outer_sinks["bus"].published == 1

    # An exception in the block restores every sink and still writes
    # all four artifact files.
    raising, _ = make(tmp_path / "raising")
    out_dir = tmp_path / "artifacts"
    with pytest.raises(RuntimeError):
        with raising:
            with ObservationSession(out_dir=out_dir):
                with span("doomed"):
                    raise RuntimeError("boom")
    assert _slots() == empty
    written = [out_dir / "telemetry" / name for name in ARTIFACT_NAMES]
    written.append(out_dir / "capture" / "capture.rcap")
    assert all(path.is_file() and path.stat().st_size for path in written)


def test_an_explicit_empty_registry_is_not_the_session_one():
    """An empty registry is falsy; passing one must still target it."""
    stats = DirectionStats()
    stats.symbols = 5
    fresh = MetricsRegistry()
    assert not fresh
    with ObservationSession() as session:
        stats.publish(registry=fresh, direction="R")
    assert fresh.value("stats.symbols", direction="R") == 5
    assert session.registry.value("stats.symbols", direction="R") == 0


def test_pooled_sweep_artifacts_are_pinned(tmp_path):
    doc = dataclasses.replace(
        load_scenario("seu-sweep"), seed=0, duration_ms=2.0, drain_ms=1.0)
    campaign = Campaign.from_spec(compile_scenario(doc))
    root = tmp_path / "artifacts"
    campaign.run(executor=PooledExecutor(workers=2, artifacts_dir=root))

    rcaps = {
        path.relative_to(root).as_posix(): _sha256(path.read_bytes())
        for path in sorted(root.rglob("*.rcap"))
    }
    metrics = {
        path.relative_to(root).as_posix(): _metric_values(path)
        for path in sorted(root.rglob("metrics.json"))
    }
    assert len(rcaps) == len(campaign) + 1
    assert rcaps == RCAP_SHA256
    assert metrics == METRICS_SHA256

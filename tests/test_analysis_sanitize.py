"""Determinism sanitizer and kernel-invariant tests."""

import pytest

from repro.analysis.sanitize import (
    ProbeResult,
    SanitizeReport,
    check_determinism,
    run_probe,
)
from repro.errors import SimulationError
from repro.sim.kernel import Simulator, sanitize_enabled
from repro.sim.timebase import MS
from repro.sim.trace import TraceRecorder


# ----------------------------------------------------------------------
# trace digesting
# ----------------------------------------------------------------------

def test_trace_digest_equal_for_identical_streams():
    a, b = TraceRecorder(), TraceRecorder()
    for recorder in (a, b):
        recorder.record(10, "kernel", "event", "tx", seq=1)
        recorder.record(20, "kernel", "event", "rx", seq=2)
    assert a.digest() == b.digest()
    assert a.digested == 2


def test_trace_digest_diverges_on_any_difference():
    a, b = TraceRecorder(), TraceRecorder()
    a.record(10, "kernel", "event", "tx", seq=1)
    b.record(10, "kernel", "event", "tx", seq=2)  # differing data
    assert a.digest() != b.digest()


def test_trace_digest_diverges_on_order():
    a, b = TraceRecorder(), TraceRecorder()
    a.record(10, "k", "s", "x")
    a.record(10, "k", "s", "y")
    b.record(10, "k", "s", "y")
    b.record(10, "k", "s", "x")
    assert a.digest() != b.digest()


def test_trace_digest_survives_max_events_window():
    """Digest folds dropped events too — bounded memory, full coverage."""
    small = TraceRecorder(max_events=2)
    full = TraceRecorder()
    for i in range(10):
        small.record(i, "k", "s", f"e{i}")
        full.record(i, "k", "s", f"e{i}")
    assert len(small) == 2
    assert small.digested == 10
    assert small.digest() == full.digest()


def test_trace_digest_data_key_order_is_canonical():
    a, b = TraceRecorder(), TraceRecorder()
    a.record(1, "k", "s", "m", x=1, y=2)
    b.record(1, "k", "s", "m", y=2, x=1)
    assert a.digest() == b.digest()


def test_trace_clear_resets_digest():
    recorder = TraceRecorder()
    recorder.record(1, "k", "s", "m")
    recorder.clear()
    assert recorder.digested == 0
    assert recorder.digest() == TraceRecorder().digest()


# ----------------------------------------------------------------------
# kernel tracer hook
# ----------------------------------------------------------------------

def test_tracer_hook_sees_every_fired_event():
    sim = Simulator()
    seen = []
    sim.attach_tracer(lambda event: seen.append((event.time, event.label)))
    sim.schedule(5, lambda: None, label="a")
    sim.schedule(3, lambda: None, label="b")
    cancelled = sim.schedule(4, lambda: None, label="never")
    cancelled.cancel()
    sim.run()
    assert seen == [(3, "b"), (5, "a")]


def test_tracer_detach():
    sim = Simulator()
    seen = []
    sim.attach_tracer(lambda event: seen.append(event.label))
    sim.schedule(1, lambda: None, label="a")
    sim.run()
    sim.attach_tracer(None)
    sim.schedule(1, lambda: None, label="b")
    sim.run()
    assert seen == ["a"]


# ----------------------------------------------------------------------
# REPRO_SANITIZE kernel assertions
# ----------------------------------------------------------------------

def test_sanitize_enabled_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled()


def test_sanitize_rejects_float_delay(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-integer"):
        sim.schedule(1.5, lambda: None)


def test_sanitize_rejects_bool_time(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-integer"):
        sim.schedule_at(True, lambda: None)


def test_sanitize_rejects_uncallable_callback(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    with pytest.raises(SimulationError, match="not callable"):
        sim.schedule(1, "not-a-callback")


def test_sanitize_off_keeps_legacy_leniency(monkeypatch):
    """Without the flag the kernel stays permissive (no perf tax)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = Simulator()
    sim.schedule(1, lambda: None)
    assert sim.run() == 1


def test_sanitize_pop_order_invariant_catches_clock_rewind(monkeypatch):
    from repro.sim.kernel import Event

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    # Corrupt kernel state the way a buggy component would: plant an
    # event dated before the clock, bypassing schedule_at's guard.
    stale = Event(time=5, seq=999, callback=lambda: None, label="stale")
    sim._queue.append((5, 999, stale))
    with pytest.raises(SimulationError, match="heap order"):
        sim.step()


# ----------------------------------------------------------------------
# determinism probes
# ----------------------------------------------------------------------

def _synthetic_probe(divergent: bool):
    """A tiny in-kernel probe; optionally nondeterministic across calls."""
    calls = {"n": 0}

    def probe(seed: int, duration_ps: int) -> ProbeResult:
        calls["n"] += 1
        recorder = TraceRecorder()
        sim = Simulator()
        sim.attach_tracer(
            lambda event: recorder.record(
                event.time, "kernel", "event", event.label, seq=event.seq
            )
        )
        label = f"jitter{calls['n']}" if divergent else "steady"
        for delay in (seed + 1, seed + 2, seed + 3):
            sim.schedule(delay, lambda: None, label=label)
        sim.run_for(duration_ps)
        return ProbeResult(
            seed=seed,
            digest=recorder.digest(),
            events_fired=sim.events_fired,
            final_time_ps=sim.now,
            messages_sent=0,
            messages_received=0,
        )

    return probe


def test_check_determinism_passes_for_stable_probe():
    report = check_determinism(seed=7, runs=3, duration_ps=100,
                               probe=_synthetic_probe(divergent=False))
    assert report.deterministic
    assert len({run.digest for run in report.runs}) == 1
    assert "PASS" in report.render()


def test_check_determinism_catches_planted_divergence():
    """A deliberate seed-divergence must be detected and reported."""
    report = check_determinism(seed=7, runs=2, duration_ps=100,
                               probe=_synthetic_probe(divergent=True))
    assert not report.deterministic
    assert "FAIL" in report.render()


def test_run_probe_sets_and_restores_sanitize_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    observed = {}

    def probe(seed: int, duration_ps: int) -> ProbeResult:
        import os
        observed["flag"] = os.environ.get("REPRO_SANITIZE")
        return ProbeResult(seed=seed, digest="x", events_fired=0,
                           final_time_ps=0, messages_sent=0,
                           messages_received=0)

    run_probe(seed=0, duration_ps=1, probe=probe)
    import os
    assert observed["flag"] == "1"
    assert "REPRO_SANITIZE" not in os.environ


def test_default_probe_replays_bit_identically():
    """The real test-bed campaign digests equal across two replays."""
    report = check_determinism(seed=3, runs=2, duration_ps=1 * MS)
    assert report.deterministic
    first, second = report.runs
    assert first.events_fired == second.events_fired
    assert first.messages_sent == second.messages_sent
    assert first.events_fired > 0


def test_default_probe_differs_across_seeds():
    a = run_probe(seed=1, duration_ps=1 * MS)
    b = run_probe(seed=2, duration_ps=1 * MS)
    assert a.digest != b.digest


@pytest.mark.parametrize("duration_ms, digest, events", [
    (2, "9be2c11d056cd6d0a230152dc7659e17", 417),
    # Long enough for cancelled long timeouts to trigger heap
    # compactions: a rebuild must not move a single event.
    (120, "0eb90c73ee7b6fff12b0fb76250b6fcc", 21_212),
])
def test_default_probe_event_stream_is_pinned(duration_ms, digest, events):
    """The seed-7 probe's fired ``(time, seq, label)`` stream, pinned.

    Kernel and label changes must leave every event's time, sequence
    number and label where it was; these digests were taken before the
    heap compacted its cancelled entries and before labels were built
    once per component.
    """
    result = run_probe(seed=7, duration_ps=duration_ms * MS)
    assert (result.digest, result.events_fired) == (digest, events)


def test_sanitize_report_render_mentions_every_run():
    report = SanitizeReport(seed=0, runs=[
        ProbeResult(seed=0, digest="d", events_fired=1, final_time_ps=10,
                    messages_sent=2, messages_received=2),
    ])
    text = report.render()
    assert "seed=0" in text and "digest=d" in text

"""Property-based invariants of the injector's burst data path.

Seeded, shrinking properties over random burst sequences and random
register files.  The central one is exactness: the fused burst loop
(:meth:`FifoInjector.process_burst`) agrees on every observable with
the explicit two-phase :meth:`FifoInjector.step` cycles it stands in
for.  The suite also pins single-path invariants (length preservation,
disarmed transparency, once-mode at-most-once, determinism).

All generation and ddmin-style shrinking lives in
:mod:`tests.strategies`; no third-party dependencies.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.hw.injector import FifoInjector
from repro.hw.registers import InjectorConfig, MatchMode
from repro.myrinet.symbols import Burst, Symbol, data_symbol, symbol_bytes

from tests.strategies import (
    Bursts,
    describe_bursts,
    gen_burst,
    gen_bursts,
    gen_config,
    minimize,
    run_property,
    shrink_bursts,
)

PIPELINE_DEPTH = 8

Front = Callable[[FifoInjector, List[Symbol]], List[Symbol]]


def _fused(injector: FifoInjector, burst: List[Symbol]) -> List[Symbol]:
    return injector.process_burst(Burst.from_symbols(burst)).symbols()


def _stepped(injector: FifoInjector, burst: List[Symbol]) -> List[Symbol]:
    """``process_burst`` with the fused loop replaced by explicit
    odd/even ``step()`` cycles and a FIFO flush: the cycle-accurate
    reference.  The disarmed bypass is shared, since a disarmed
    injector never clocks its compare registers."""
    if not injector.armed and injector.fifo.empty:
        return injector.process_burst(Burst.from_symbols(burst)).symbols()
    injector.last_burst_rewrites = []
    injector._rewrite_origin = (
        injector._segment_index - injector.fifo.occupancy
    )
    output = [out for out in map(injector.step, burst) if out is not None]
    output.extend(injector.fifo.drain())
    return output


FRONTS: Tuple[Front, Front] = (_stepped, _fused)


def _run_pair(
    config: InjectorConfig, bursts: Bursts
) -> Tuple[dict, dict]:
    """Feed ``bursts`` through the stepped reference and the fused loop.

    Returns one observation dict per path: delivered bytes, stats,
    per-burst rewrite lists, injection events, and compare-window state.
    """
    observations = []
    for front in FRONTS:
        injector = FifoInjector(name="prop", pipeline_depth=PIPELINE_DEPTH)
        injector.configure(config)
        events: List[tuple] = []
        injector.on_injection(
            lambda e: events.append((
                e.segment_index, e.window_before, e.ctl_before,
                e.window_after, e.ctl_after, e.lanes_rewritten,
                e.lanes_unreachable, e.forced,
            ))
        )
        delivered = bytearray()
        rewrites: List[List[int]] = []
        for burst in bursts:
            output = front(injector, list(burst))
            delivered += symbol_bytes(output)
            delivered += bytes(
                1 if s.is_data else 0 for s in output
            )
            rewrites.append(list(injector.last_burst_rewrites))
        observations.append({
            "delivered": bytes(delivered),
            "stats": injector.stats,
            "rewrites": rewrites,
            "events": events,
            "window": injector.compare.snapshot(),
            "occupancy": injector.fifo.occupancy,
        })
    return observations[0], observations[1]


def _divergence(config: InjectorConfig, bursts: Bursts) -> Optional[str]:
    stepped, fused = _run_pair(config, bursts)
    for key in stepped:
        if stepped[key] != fused[key]:
            return (
                f"{key}: stepped={stepped[key]!r} fused={fused[key]!r}"
            )
    return None


def _assert_exact(config: InjectorConfig, bursts: Bursts) -> None:
    if _divergence(config, bursts) is None:
        return
    smallest = minimize(
        bursts,
        lambda candidate: _divergence(config, candidate) is not None,
        shrink_bursts,
    )
    raise AssertionError(
        f"paths diverge ({_divergence(config, smallest)}) for "
        f"config={config!r} bursts={describe_bursts(smallest)}"
    )


# ----------------------------------------------------------------------
# 1–3: exactness over the generated config space
# ----------------------------------------------------------------------


def test_property_exactness_random_configs() -> None:
    """(1) Fused == stepped on every observable, random configs/bursts."""
    def prop(rng: random.Random) -> None:
        _assert_exact(gen_config(rng), gen_bursts(rng))
    run_property(prop, rounds=60, name="exactness_random")


def test_property_exactness_rearm_between_bursts() -> None:
    """(2) Exactness holds across mid-sequence re-arms (once mode)."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng)
        bursts = gen_bursts(rng, max_bursts=6)

        def run(front: Front) -> tuple:
            injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
            injector.configure(config)
            out = bytearray()
            for index, burst in enumerate(bursts):
                out += symbol_bytes(front(injector, list(burst)))
                if index % 2 == 1:
                    injector.set_match_mode(MatchMode.ONCE)
            return bytes(out), injector.stats

        assert run(_stepped) == run(_fused), describe_bursts(bursts)
    run_property(prop, rounds=40, name="exactness_rearm")


def test_property_exactness_tiny_bursts() -> None:
    """(3) Exactness at and below the compare-window width (1..6)."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng)
        bursts = [
            [gen_burst(rng, max_len=6)[0] for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 10))
        ]
        _assert_exact(config, bursts)
    run_property(prop, rounds=40, name="exactness_tiny")


# ----------------------------------------------------------------------
# 4–7: single-pipeline behavioural invariants
# ----------------------------------------------------------------------


def test_property_length_preserved() -> None:
    """(4) Both paths deliver exactly one symbol per input symbol."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng)
        for front in FRONTS:
            injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
            injector.configure(config)
            for burst in gen_bursts(rng, max_bursts=5):
                output = front(injector, list(burst))
                assert len(output) == len(burst)
    run_property(prop, rounds=30, name="length_preserved")


def test_property_disarmed_is_identity() -> None:
    """(5) A disarmed injector is a transparent pipe."""
    def prop(rng: random.Random) -> None:
        injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
        for burst in gen_bursts(rng, max_bursts=5):
            output = injector.process_burst(
                Burst.from_symbols(burst)).symbols()
            assert [s.pair for s in output] == [s.pair for s in burst]
            assert injector.injections == 0
    run_property(prop, rounds=30, name="disarmed_identity")


def test_property_once_mode_at_most_once() -> None:
    """(6) Once mode injects at most once per arm, on both paths."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng).copy(match_mode=MatchMode.ONCE)
        for front in FRONTS:
            injector = FifoInjector(name="p", pipeline_depth=PIPELINE_DEPTH)
            injector.configure(config)
            arms = 1
            for index, burst in enumerate(gen_bursts(rng, max_bursts=8)):
                front(injector, list(burst))
                if index % 3 == 2:
                    injector.set_match_mode(MatchMode.ONCE)
                    arms += 1
            assert injector.injections <= arms, (
                injector.injections, arms
            )
    run_property(prop, rounds=30, name="once_at_most_once")


def test_property_determinism() -> None:
    """(7) Identical inputs replay to identical observables."""
    def prop(rng: random.Random) -> None:
        config = gen_config(rng)
        bursts = gen_bursts(rng, max_bursts=6)
        first = _run_pair(config, bursts)
        second = _run_pair(config, bursts)
        assert first == second
    run_property(prop, rounds=15, name="determinism")


def test_shrinker_produces_minimal_counterexample() -> None:
    """The ddmin shrinker itself: a planted divergence minimizes to a
    single-burst, few-symbol counterexample (meta-test of the harness)."""
    # A fake "divergence": any sequence containing a 0x42 data symbol.
    def fails(bursts: Bursts) -> bool:
        return any(
            s.is_data and s.value == 0x42 for b in bursts for s in b
        )

    rng = random.Random(7)
    bursts = gen_bursts(rng, max_bursts=10)
    bursts[len(bursts) // 2].append(data_symbol(0x42))
    assert fails(bursts)
    smallest = minimize(bursts, fails, shrink_bursts)
    assert fails(smallest)
    assert len(smallest) == 1
    assert len(smallest[0]) <= 2, describe_bursts(smallest)

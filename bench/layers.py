"""The module -> layer table and cProfile self-time attribution.

:data:`LAYER_TABLE` is the single place that says which layer of the
stack a ``repro`` module belongs to.  A module takes the layer of its
longest dotted prefix in the table; every module under ``src/repro``
must be covered (``bench/test_layers.py`` checks it), so a new or
renamed module cannot silently fall into the wrong bucket.

:func:`attribute` turns a ``cProfile`` run into per-layer self time and
call counts.  Code outside ``repro`` (the standard library, builtins,
the benchmark itself) holds no layer of its own: its self time is
charged to the ``repro`` functions that called it, split over the
caller records in proportion to time, so ``list.append`` inside the
switch counts as switch time.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import bench

#: Layers in report order.  ``other`` holds repro modules outside the
#: measured stack and time that no repro caller can be found for.
LAYERS = ("sim", "switch", "link", "nic", "hoststack", "device",
          "workload", "merge", "runtime", "observe", "other")

#: Dotted module prefix -> layer.  The longest matching prefix wins.
LAYER_TABLE: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.myrinet.switch": "switch",
    "repro.myrinet.link": "link",
    "repro.myrinet.symbols": "link",
    "repro.myrinet.flow": "link",
    "repro.myrinet.slack": "link",
    "repro.myrinet": "nic",
    "repro.hostsim": "hoststack",
    "repro.core": "device",
    "repro.hw": "device",
    "repro.fastpath": "device",
    "repro.nftape": "workload",
    "repro.runtime.artifacts": "merge",
    "repro.runtime": "runtime",
    "repro.telemetry": "observe",
    "repro.capture": "observe",
    "repro": "other",
    "repro.__main__": "other",
    "repro.analysis": "other",
    "repro.api": "other",
    "repro.cli": "other",
    "repro.errors": "other",
    "repro.fc": "other",
    "repro.insight": "other",
    "repro.scenario": "other",
    "repro.server": "other",
}

SRC_ROOT = Path(bench.SRC)

FuncKey = Tuple[str, int, str]


def table_matches(module: str) -> List[str]:
    """Every table prefix that covers dotted ``module``."""
    return [prefix for prefix in LAYER_TABLE
            if module == prefix or module.startswith(prefix + ".")]


def layer_of_module(module: str) -> Optional[str]:
    """The layer of dotted ``module``; None when the table misses it."""
    matches = table_matches(module)
    if not matches:
        return None
    return LAYER_TABLE[max(matches, key=len)]


def module_of_file(filename: str, src_root: Path = SRC_ROOT
                   ) -> Optional[str]:
    """Dotted module name of a ``src/repro`` file, else None."""
    try:
        relative = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = relative.with_suffix("").parts
    if not parts or parts[0] != "repro" or relative.suffix != ".py":
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def repro_modules(src_root: Path = SRC_ROOT) -> Iterable[str]:
    """Dotted names of every module under ``src/repro``."""
    for path in sorted((src_root / "repro").rglob("*.py")):
        module = module_of_file(str(path), src_root)
        if module is not None:
            yield module


class LayerProfile:
    """Per-layer self time and call counts of one profiled call."""

    def __init__(self, stats: pstats.Stats,
                 src_root: Path = SRC_ROOT) -> None:
        self._raw = stats.stats  # type: ignore[attr-defined]
        self._src_root = src_root
        self._own: Dict[FuncKey, Optional[str]] = {}
        self._mix: Dict[FuncKey, Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Sum of every function's self time: the profiled total.
        self.total_s = 0.0
        for key, (_primitive, calls, self_time, _cum, _callers) in \
                self._raw.items():
            self.total_s += self_time
            own = self._own_layer(key)
            if own is not None:
                self.calls[own] += calls
            for layer, weight in self._layer_mix(key).items():
                self.self_s[layer] += self_time * weight

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0

    def cumulative_entering(self, layer: str) -> float:
        """Cumulative time of calls into ``layer`` from another layer."""
        total = 0.0
        for key, (_cc, _nc, _tt, _cum, callers) in self._raw.items():
            if self._own_layer(key) != layer:
                continue
            for caller, record in callers.items():
                if self._own_layer(caller) != layer:
                    total += record[3]
        return total

    def _own_layer(self, key: FuncKey) -> Optional[str]:
        """The layer of a repro function; None for any other code."""
        if key not in self._own:
            module = module_of_file(key[0], self._src_root)
            self._own[key] = (
                None if module is None
                else layer_of_module(module) or "other"
            )
        return self._own[key]

    def _layer_mix(self, key: FuncKey) -> Dict[str, float]:
        """How ``key``'s time splits over layers (weights sum to 1).

        Iterative depth-first walk up the caller records: a repro
        function is its own layer; any other function mixes its callers'
        mixes weighted by the cumulative time each caller record holds.
        A caller already on the walk (recursion) is left out; a function
        with no usable caller is ``other``.
        """
        on_walk = set()
        stack: List[Tuple[FuncKey, bool]] = [(key, False)]
        while stack:
            current, expanded = stack.pop()
            if current in self._mix or (current in on_walk
                                        and not expanded):
                continue
            own = self._own_layer(current)
            if own is not None:
                self._mix[current] = {own: 1.0}
                continue
            callers = self._raw.get(current, (0, 0, 0.0, 0.0, {}))[4]
            if not expanded:
                on_walk.add(current)
                stack.append((current, True))
                stack.extend((caller, False) for caller in callers
                             if caller not in self._mix
                             and caller not in on_walk)
                continue
            on_walk.discard(current)
            self._mix[current] = self._combine(callers)
        return self._mix[key]

    def _combine(self, callers: Dict[FuncKey, tuple]) -> Dict[str, float]:
        weights = {caller: record[3] for caller, record in callers.items()
                   if caller in self._mix}
        if not weights:
            return {"other": 1.0}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: 1.0 for caller in weights}
            total = float(len(weights))
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in self._mix[caller].items():
                mix[layer] = mix.get(layer, 0.0) + part * weight / total
        return mix

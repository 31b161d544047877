"""The module -> layer table covers the tree; attribution conserves time."""

from __future__ import annotations

import cProfile
import pstats
from types import SimpleNamespace

from bench import workloads
from bench.layers import (
    LAYER_TABLE,
    LAYERS,
    SRC_ROOT,
    LayerProfile,
    layer_of_module,
    repro_modules,
    table_matches,
)


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = list(repro_modules())
    assert len(modules) > 100
    for module in modules:
        matches = table_matches(module)
        assert matches, f"{module} is missing from LAYER_TABLE"
        longest = max(len(prefix) for prefix in matches)
        assert [len(p) for p in matches].count(longest) == 1, module
        assert layer_of_module(module) in LAYERS


def test_every_table_entry_covers_a_module():
    modules = list(repro_modules())
    for prefix in LAYER_TABLE:
        assert any(table_matches(module).count(prefix)
                   for module in modules), f"dead entry {prefix}"
    assert set(LAYER_TABLE.values()) == set(LAYERS)


def test_library_time_is_charged_to_the_calling_layer():
    def key(path, name):
        return (str(SRC_ROOT / "repro" / path), 1, name)

    run = key("sim/kernel.py", "run")
    forward = key("myrinet/switch.py", "_forward")
    receive = key("hostsim/udp.py", "receive")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stats = SimpleNamespace(stats={
        run: (1, 1, 0.5, 10.0, {}),
        forward: (2, 2, 1.0, 5.5, {run: (2, 2, 1.0, 5.5)}),
        receive: (1, 1, 1.0, 4.0, {run: (1, 1, 1.0, 4.0)}),
        # A library helper called from two layers, 3:1 by time, that
        # also recurses into itself.
        helper: (5, 4, 4.0, 4.0, {forward: (3, 3, 3.0, 3.0),
                                  receive: (1, 1, 1.0, 1.0),
                                  ("/usr/lib/python3/heapq.py", 1,
                                   "helper"): (1, 0, 0.0, 0.0)}),
        append: (9, 9, 1.5, 1.5, {forward: (9, 9, 1.5, 1.5)}),
    })
    profile = LayerProfile(stats)
    assert profile.self_s["sim"] == 0.5
    assert profile.self_s["switch"] == 1.0 + 3.0 + 1.5
    assert profile.self_s["hoststack"] == 1.0 + 1.0
    assert profile.calls == {**{layer: 0 for layer in LAYERS},
                             "sim": 1, "switch": 2, "hoststack": 1}
    assert abs(sum(profile.self_s.values()) - profile.total_s) < 1e-12


def test_attributed_self_time_sums_to_the_profiled_total():
    campaign = workloads.make_campaign(
        workloads.make_doc("passthrough", 0, duration_ms=2.0))
    profiler = cProfile.Profile()
    profiler.enable()
    campaign.run(workloads.make_executor("passthrough", None))
    profiler.disable()
    profile = LayerProfile(pstats.Stats(profiler))
    attributed = sum(profile.self_s.values())
    assert abs(attributed - profile.total_s) <= 0.01 * profile.total_s
    assert profile.calls["switch"] > 0 and profile.calls["nic"] > 0
    assert profile.share("other") < 0.01

"""Labels and exit code of ``python -m bench.compare``."""

from __future__ import annotations

import json

import pytest

from bench import compare, harness

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
]}


def _doc(samples, failed=0):
    metric = {"value": sorted(samples)[len(samples) // 2], "samples": samples}
    return {"workloads": {"w": {
        "attempted": 10, "failed": failed,
        "end_to_end": {name: metric for name in harness.END_TO_END},
    }}}


@pytest.mark.parametrize("base, new, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.1, 10.3, 10.2, 10.15],
     "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [11.5, 11.6, 11.4, 11.5, 11.55],
     "regressed"),
    # One pair never shows a gain, however clear.
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05],
     "unchanged"),
    ([10.0, 13.0, 8.0, 12.0, 9.0], [10.0, 10.1, 9.9, 10.0, 10.05],
     "unresolved"),
])
def test_single_pair_labels(base, new, expected):
    lines, regressed = compare.compare([_doc(base)], [_doc(new)], SPEC)
    assert lines[0].endswith(expected)
    assert regressed == (expected == "regressed")


def test_several_pairs_need_nine_tenths_of_wins():
    base = [_doc([10.0 + 0.01 * i]) for i in range(10)]
    new = [_doc([9.0 + 0.01 * i]) for i in range(9)] + [_doc([10.5])]
    lines, _ = compare.compare(base, new, SPEC)
    assert lines[0].endswith("improved")
    new[0] = _doc([10.4])
    lines, _ = compare.compare(base, new, SPEC)
    assert lines[0].endswith("unchanged")


def test_a_rise_in_failures_fails_the_comparison(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_doc([10.0, 10.0])))
    new.write_text(json.dumps(_doc([10.0, 10.0], failed=1)))
    assert compare.main([str(base), str(new)]) == 1
    assert compare.main([str(base), str(base)]) == 0

"""Compare benchmark result documents: ``python -m bench.compare``.

Usage::

    python -m bench.compare BASE.json NEW.json [BASE2.json NEW2.json ...]

Arguments are (parent, change) pairs of ``python -m bench --out``
documents.  For every workload and end-to-end metric of BENCHMARK.json
the tool prints both medians with their quartiles and one label:

* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median) of either side is wider than the bound, and not every change
  value reads better than every parent value;
* ``improved`` -- at least ``MIN_PAIRS`` pairs were given, the change
  wins at least 9 of 10 of them, and the medians differ by more than
  the parent's quartile distance;
* ``unchanged`` -- anything else.

With one pair the samples inside each document are the values; with
several pairs each document contributes its median.  Fewer than
``MIN_PAIRS`` pairs can show a regression but never a gain.  The exit
code is 1 when any metric regressed or the failed fraction rose on any
workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import bench
from bench.harness import quartiles

#: Pairs, and the share of them the change must win, to claim a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _values(docs: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    entries = [doc["workloads"][workload]["end_to_end"][metric]
               for doc in docs]
    if len(entries) == 1:
        return list(entries[0]["samples"])
    return [entry["value"] for entry in entries]


def label(base: Sequence[float], new: Sequence[float], better: str,
          bound: float, pairs: Sequence[Tuple[float, float]]
          ) -> Tuple[str, float]:
    """(label, relative worsening of the median) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_median, b_q3 = quartiles(base)
    n_q1, n_median, n_q3 = quartiles(new)
    worse_by = sign * (n_median - b_median) / b_median
    spread = max((b_q3 - b_q1) / b_median, (n_q3 - n_q1) / n_median)
    every_new_better = max(sign * v for v in new) < min(sign * v
                                                        for v in base)
    if spread > bound and not every_new_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (b_median - n_median) > b_q3 - b_q1):
        return "improved", worse_by
    return "unchanged", worse_by


def _failed_fraction(docs: Sequence[Dict[str, Any]], workload: str
                     ) -> float:
    failed = sum(doc["workloads"][workload]["failed"] for doc in docs)
    attempted = sum(doc["workloads"][workload]["attempted"] for doc in docs)
    return failed / max(attempted, 1)


def compare(base_docs: Sequence[Dict[str, Any]],
            new_docs: Sequence[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines = []
    regressed = False
    workloads = [name for name in base_docs[0]["workloads"]
                 if all(name in doc["workloads"]
                        for doc in list(base_docs) + list(new_docs))]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = _values(base_docs, workload, name)
            new = _values(new_docs, workload, name)
            pairs = list(zip(base, new)) if len(base_docs) > 1 else []
            verdict, worse_by = label(base, new, metric["better"],
                                      metric["bound"], pairs)
            regressed = regressed or verdict == "regressed"
            b_q1, b_median, b_q3 = quartiles(base)
            n_q1, n_median, n_q3 = quartiles(new)
            lines.append(
                f"{workload:12s} {name:12s} "
                f"base {b_median:.6g} [{b_q1:.6g}, {b_q3:.6g}] "
                f"new {n_median:.6g} [{n_q1:.6g}, {n_q3:.6g}] "
                f"worse_by {worse_by:+.2%} bound {metric['bound']:.0%} "
                f"{verdict}")
        base_ff = _failed_fraction(base_docs, workload)
        new_ff = _failed_fraction(new_docs, workload)
        verdict = "regressed" if new_ff > base_ff else "unchanged"
        regressed = regressed or verdict == "regressed"
        lines.append(f"{workload:12s} failed_fraction base {base_ff:.4g} "
                     f"new {new_ff:.4g} {verdict}")
        lines.extend(_count_drift(base_docs, new_docs, workload))
    return lines, regressed


def _count_drift(base_docs: Sequence[Dict[str, Any]],
                 new_docs: Sequence[Dict[str, Any]],
                 workload: str) -> List[str]:
    """Per-layer counts that differ between any two documents (info)."""
    seen: Dict[str, set] = {}
    for doc in list(base_docs) + list(new_docs):
        for name, metric in doc["workloads"][workload].get(
                "per_layer", {}).items():
            if metric["unit"] == "count":
                seen.setdefault(name, set()).add(metric["value"])
    drifted = sorted(name for name, values in seen.items()
                     if len(values) > 1)
    if not seen:
        return []
    if not drifted:
        return [f"{workload:12s} counts identical ({len(seen)} metrics)"]
    return [f"{workload:12s} counts differ: {', '.join(drifted)}"]


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print("usage: python -m bench.compare BASE.json NEW.json "
              "[BASE2.json NEW2.json ...]", file=sys.stderr)
        return 2
    docs = [json.loads(Path(path).read_text()) for path in argv]
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    lines, regressed = compare(docs[0::2], docs[1::2], spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four benchmark workloads and the correctness digest.

Each workload is a library scenario run through ``repro.api``; the
benchmark seed replaces the document's seed, and the program receives
only the generated :class:`~repro.api.ScenarioDoc`.  Why each workload
exists is recorded in BENCHMARK.json and ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    Campaign,
    ExperimentResult,
    PooledExecutor,
    ResultTable,
    ScenarioDoc,
    SerialExecutor,
    SweepSpec,
    compile_scenario,
    load_scenario,
)

#: Workload name -> library scenario it starts from.
SCENARIOS = {
    "congestion": "fabric-congestion",
    "table4": "paper-table4",
    "passthrough": "paper-sec35",
    "sweep": "seu-sweep",
}

WORKLOADS = tuple(SCENARIOS)

#: Simulated milliseconds of the passthrough ping-pong.
PASSTHROUGH_MS = 300.0
#: Swept ``mean_interval_us`` points and their log-uniform range.
SWEEP_POINTS = 32
SWEEP_RANGE_US = (250.0, 4000.0)
#: Worker processes of the pooled sweep.
SWEEP_WORKERS = 2


def sweep_values(seed: int) -> Tuple[float, ...]:
    """``SWEEP_POINTS`` mean flip intervals, log-uniform over the range.

    One point is drawn in each of ``SWEEP_POINTS`` equal log-width
    strata, so every seed covers the whole range alike and the work per
    run barely depends on the seed.
    """
    rng = random.Random(seed)
    low, high = SWEEP_RANGE_US
    ratio = high / low
    return tuple(
        round(low * ratio ** ((index + rng.random()) / SWEEP_POINTS), 3)
        for index in range(SWEEP_POINTS)
    )


def make_doc(workload: str, seed: int,
             duration_ms: Optional[float] = None) -> ScenarioDoc:
    """The scenario document of ``workload`` at benchmark ``seed``.

    ``duration_ms`` shortens the run (tests); ``None`` keeps the
    workload's own duration.
    """
    doc = load_scenario(SCENARIOS[workload])
    changes: Dict[str, Any] = {"seed": seed}
    if workload == "passthrough":
        changes["duration_ms"] = PASSTHROUGH_MS
    if workload == "sweep":
        template = doc.experiments[0]
        sweep = SweepSpec(field="mean_interval_us",
                          values=sweep_values(seed))
        changes["experiments"] = (
            dataclasses.replace(template, sweep=sweep),
        )
    if duration_ms is not None:
        changes["duration_ms"] = duration_ms
    return dataclasses.replace(doc, **changes)


def make_campaign(doc: ScenarioDoc) -> Campaign:
    return Campaign.from_spec(compile_scenario(doc))


def make_executor(workload: str, artifacts_dir: Optional[Path],
                  pooled: bool = True) -> Any:
    """The executor a workload runs on.

    ``sweep`` runs pooled with artifacts; ``pooled=False`` gives the
    in-process serial executor over the same artifacts layout, which
    runs the identical per-experiment and merge code (the traced run
    uses it to profile the simulation layers).
    """
    if workload != "sweep":
        return SerialExecutor()
    if pooled:
        return PooledExecutor(workers=SWEEP_WORKERS,
                              artifacts_dir=artifacts_dir)
    return SerialExecutor(artifacts_dir=artifacts_dir)


#: Public ExperimentResult fields folded into the digest.
DIGEST_FIELDS = (
    "name", "duration_ps", "messages_sent", "messages_received",
    "injections", "active_misdeliveries", "corrupted_deliveries",
    "send_failures", "checksum_drops", "host_stats", "switch_stats",
)


def _hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def experiment_digest(result: ExperimentResult) -> str:
    fields = {name: getattr(result, name) for name in DIGEST_FIELDS}
    return _hash(json.dumps(fields, sort_keys=True))


def digests(table: ResultTable) -> Tuple[str, List[str]]:
    """(campaign digest, per-experiment digests) of a finished run.

    The campaign digest covers the rendered table and every
    experiment's digest, so it changes when any row or count does.
    """
    per_experiment = [experiment_digest(result) for result in table.results]
    digest = _hash(table.render() + "\n" + "\n".join(per_experiment))
    return digest, per_experiment


def counts(results: Sequence[ExperimentResult]) -> Dict[str, int]:
    """Simulated work counts summed over a campaign's results."""
    return {
        "frames_forwarded": sum(r.total_switch_counter("frames_forwarded")
                                for r in results),
        "symbols_dropped": sum(r.total_switch_counter("symbols_dropped")
                               for r in results),
        "packets_received": sum(r.total_host_counter("packets_received")
                                for r in results),
        "crc_errors": sum(r.total_host_counter("crc_errors")
                          for r in results),
        "messages_sent": sum(r.messages_sent for r in results),
        "messages_received": sum(r.messages_received for r in results),
    }


def events_fired(results: Sequence[ExperimentResult]) -> int:
    """Simulator events of an in-process run (the test bed rides in
    ``extras`` only when the experiment ran in this process)."""
    return sum(r.extras["testbed"].sim.events_fired for r in results)

"""The lease queue behind the pooled executor: queue, leases, workers.

A :class:`~repro.runtime.executors.PooledExecutor` campaign is
published as a **work queue** — ``queue.jsonl`` under
``<artifacts_dir>/fabric/``, one line per experiment — and long-lived
worker processes *pull* ``(campaign_digest, index)`` leases from it,
run the unchanged :func:`~repro.runtime.worker.execute_job` path, and
push results into the shared sqlite
:class:`~repro.runtime.store.ResultStore`.  The workers are processes
spawned on this host; because every coordination primitive is a file
(queue, lease, tombstone) plus a WAL sqlite database, a worker on
another host mounting the same directory would speak the same protocol.

Leases
------
A lease is a JSON file claimed atomically with ``O_CREAT | O_EXCL``,
carrying the claimer's identity and a wall-clock deadline (the
executor's ``timeout_s``; leases are never renewed, so the deadline is
a per-experiment wall-clock timeout).  A forfeited lease is *renamed*
to a numbered tombstone — the tombstone count **is** the next attempt
number, so re-issued attempts are derivable from the filesystem alone,
with no coordinator state to lose.

Failure model (every mode is chaos-tested in ``tests/chaos/``):

========================  =============================================
failure                   recovery
========================  =============================================
worker killed mid-lease   coordinator sees the dead holder, forfeits
                          the lease immediately, re-issues with the
                          same derived seed, respawns a worker
worker hangs past         lease deadline passes; the coordinator
the lease deadline        terminates the holder, forfeits, re-issues
                          and respawns; a late result could only lose
                          the winner race and change nothing
torn sqlite write         store quarantines the corrupt file at open;
                          a resumed run re-executes what was lost
duplicate lease delivery  both attempts run; the store's one-winner
                          transaction and the shard promotion rename
                          keep exactly one of each
queue file truncated      workers park (a torn queue parses as "no
                          work"); the coordinator detects and
                          atomically rewrites the queue from the spec
========================  =============================================

Every recovery preserves the repository's core invariant: results are
**byte-identical at any worker count**, because seeds derive from
``(base_seed, index, name)`` and merges are index-ordered — re-running
an experiment can only reproduce it.

Wall-clock note: this module carries the :mod:`repro.runtime` SIM001
allowance — lease deadlines and poll timers are *host* time and never
reach simulated time (workers rebuild simulators from derived seeds).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.runtime.spec import CampaignSpec
from repro.runtime.store import ResultStore, spec_digest
from repro.runtime.worker import execute_job, job_for

__all__ = [
    "QUEUE_FILE_NAME",
    "FABRIC_SUBDIR",
    "POLL_S",
    "queue_bytes",
    "write_queue",
    "read_queue",
    "run_fabric_worker",
    "Lease",
    "lease_path",
    "claim_lease",
    "read_lease",
    "release_lease",
    "forfeit_lease",
    "forfeit_count",
]

#: The work queue file under the fabric directory.
QUEUE_FILE_NAME = "queue.jsonl"
#: Coordination state (queue + leases) under the artifacts root.
FABRIC_SUBDIR = "fabric"
#: Queue file-format version.
QUEUE_VERSION = 1
#: Seconds a parked worker (and the coordinator) sleeps between polls.
POLL_S = 0.02


# ---------------------------------------------------------------------------
# the work queue file
# ---------------------------------------------------------------------------


def queue_bytes(digest: str, spec: CampaignSpec) -> bytes:
    """The exact bytes of the campaign's work queue file — a pure
    function of the spec, so the coordinator can check the file against
    them without parsing it."""
    lines = [json.dumps({
        "type": "fabric-queue",
        "version": QUEUE_VERSION,
        "digest": digest,
        "name": spec.name,
        "experiments": len(spec),
    }, sort_keys=True)]
    for index, experiment in enumerate(spec.experiments):
        lines.append(json.dumps({
            "type": "item",
            "index": index,
            "name": experiment.name,
            "seed": spec.seed_for(index),
        }, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_queue(fabric_dir: Union[str, Path], digest: str,
                spec: CampaignSpec) -> Path:
    """Atomically (re)write the campaign's work queue.

    Written to a temp name and ``os.replace``-d into place, so a reader
    never observes a partial queue — and a *damaged* queue (truncated,
    edited, torn by a crash) is repaired by simply calling this again:
    the queue is a pure function of the spec.
    """
    fabric_dir = Path(fabric_dir)
    fabric_dir.mkdir(parents=True, exist_ok=True)
    target = fabric_dir / QUEUE_FILE_NAME
    scratch = target.with_name(target.name + ".tmp")
    scratch.write_bytes(queue_bytes(digest, spec))
    os.replace(scratch, target)
    return target


def read_queue(
    fabric_dir: Union[str, Path], digest: Optional[str] = None
) -> Optional[List[Tuple[int, str, int]]]:
    """Parse the queue into ``(index, name, seed)`` items.

    Returns ``None`` whenever the queue is unusable — missing, torn,
    truncated, header mismatch — because a worker must *park*, not
    guess, until the coordinator repairs the file.
    """
    path = Path(fabric_dir) / QUEUE_FILE_NAME
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not raw_lines:
        return None
    try:
        header = json.loads(raw_lines[0])
        if header.get("type") != "fabric-queue" \
                or header.get("version") != QUEUE_VERSION:
            return None
        if digest is not None and header.get("digest") != digest:
            return None
        items: List[Tuple[int, str, int]] = []
        for raw in raw_lines[1:]:
            doc = json.loads(raw)
            if doc.get("type") != "item":
                return None
            items.append((int(doc["index"]), str(doc["name"]),
                          int(doc["seed"])))
    except (ValueError, KeyError, json.JSONDecodeError):
        return None
    if len(items) != header.get("experiments") \
            or [i for i, _, _ in items] != list(range(len(items))):
        return None
    return items


# ---------------------------------------------------------------------------
# the worker loop (child-process entry point)
# ---------------------------------------------------------------------------


def _failed_marker(leases_dir: Union[str, Path], index: int) -> Path:
    return Path(leases_dir) / f"exp-{index:03d}.failed"


def run_fabric_worker(
    worker_id: str,
    spec: CampaignSpec,
    fabric_dir: str,
    store_path: str,
    artifacts_root: Optional[str],
    label: Optional[str],
    lease_timeout_s: float,
    rogue_index: Optional[int] = None,
) -> None:
    """Pull leases and run experiments until the campaign is complete.

    The child-process entry point of every fabric worker.  Loop: read
    the queue, skip completed indices, claim the first available lease
    (an atomic ``O_CREAT|O_EXCL`` create), run the job through the one
    shared :func:`execute_job` path, record the result, release the
    lease.  A deterministic experiment *error* (as opposed to a crash)
    is reported through a ``.failed`` marker file the coordinator turns
    into a campaign failure.

    ``rogue_index`` is the duplicate-lease-delivery chaos hook: the
    worker executes that one experiment *without* claiming its lease —
    exactly what a network partition delivering one lease twice looks
    like — then exits.  The store's one-winner transaction absorbs it.
    """
    digest = spec_digest(spec)
    leases_dir = Path(fabric_dir) / "leases"
    store = ResultStore(store_path)
    try:
        while True:
            items = read_queue(fabric_dir, digest)
            if items is None:
                time.sleep(POLL_S)  # queue torn; coordinator repairs
                continue
            done = store.completed_indices(digest)
            if rogue_index is None and len(done) >= len(items):
                return
            claimed: Optional[Tuple[int, str, int, int]] = None
            for index, name, seed in items:
                if index in done:
                    continue
                if rogue_index is not None:
                    if index != rogue_index:
                        continue
                    claimed = (index, name, seed,
                               forfeit_count(leases_dir, index))
                    break
                lease = claim_lease(leases_dir, index, worker_id,
                                    lease_timeout_s)
                if lease is not None:
                    claimed = (index, name, seed, lease.attempt)
                    break
            if claimed is None:
                if rogue_index is not None:
                    return  # duplicate target already completed
                time.sleep(POLL_S)
                continue
            index, name, seed, attempt = claimed
            job = job_for(spec, index, attempt=attempt,
                          artifacts_root=artifacts_root, label=label)
            try:
                result = execute_job(job)
            except Exception as exc:  # deterministic: don't retry
                import traceback

                marker = _failed_marker(leases_dir, index)
                marker.write_text(json.dumps({
                    "index": index,
                    "name": name,
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }, sort_keys=True), encoding="utf-8")
                if rogue_index is not None:
                    return
                continue  # lease kept: blocks pointless re-claims
            store.record(digest, index, name, seed, result,
                         attempt=attempt)
            if rogue_index is not None:
                return
            release_lease(leases_dir, index)
    finally:
        store.close()


# ---------------------------------------------------------------------------
# leases (filesystem-backed; see module docstring)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """One claimed experiment: who runs it, which attempt, until when.

    ``deadline_unix`` is wall-clock (``time.time``): leases must be
    comparable across processes — and, tomorrow, across hosts sharing
    the queue directory — which rules out per-process monotonic clocks.
    """

    index: int
    attempt: int
    worker: str
    pid: int
    deadline_unix: float


def lease_path(leases_dir: Union[str, Path], index: int) -> Path:
    """The lease file of experiment ``index``."""
    return Path(leases_dir) / f"exp-{index:03d}.lease"


def _tombstone_path(leases_dir: Union[str, Path], index: int,
                    generation: int) -> Path:
    return Path(leases_dir) / f"exp-{index:03d}.forfeit-{generation}"


def forfeit_count(leases_dir: Union[str, Path], index: int) -> int:
    """Forfeited attempts so far == the next attempt number."""
    count = 0
    while _tombstone_path(leases_dir, index, count).exists():
        count += 1
    return count


def claim_lease(
    leases_dir: Union[str, Path],
    index: int,
    worker: str,
    timeout_s: float,
) -> Optional[Lease]:
    """Atomically claim experiment ``index``; None when already held.

    ``O_CREAT | O_EXCL`` makes the claim a single filesystem
    compare-and-swap — two workers racing for the same index cannot
    both win, whatever the shared filesystem's caching does to reads.
    The attempt number is derived from the forfeit tombstones, so a
    re-issued experiment automatically claims as the next attempt.
    """
    path = lease_path(leases_dir, index)
    lease = Lease(
        index=index,
        attempt=forfeit_count(leases_dir, index),
        worker=worker,
        pid=os.getpid(),
        deadline_unix=time.time() + timeout_s,
    )
    try:
        handle = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    try:
        os.write(handle, json.dumps({
            "index": lease.index,
            "attempt": lease.attempt,
            "worker": lease.worker,
            "pid": lease.pid,
            "deadline_unix": lease.deadline_unix,
        }, sort_keys=True).encode("utf-8"))
    finally:
        os.close(handle)
    return lease


def read_lease(path: Union[str, Path]) -> Optional[Lease]:
    """Parse a lease file; None when missing or torn mid-write."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return Lease(
            index=int(doc["index"]),
            attempt=int(doc["attempt"]),
            worker=str(doc["worker"]),
            pid=int(doc["pid"]),
            deadline_unix=float(doc["deadline_unix"]),
        )
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return None


def release_lease(leases_dir: Union[str, Path], index: int) -> None:
    """Drop a completed experiment's lease (missing is fine — the
    coordinator may have forfeited it while the worker finished)."""
    try:
        lease_path(leases_dir, index).unlink()
    except FileNotFoundError:
        pass  # simlint: disable=ERR001 -- release is idempotent


def forfeit_lease(leases_dir: Union[str, Path],
                  index: int) -> Optional[int]:
    """Rename an expired lease to its tombstone; returns next attempt.

    The rename is atomic: either the tombstone exists (forfeit
    happened, exactly once) or the lease file is still claimable.  A
    lease already gone was released by its worker after recording the
    result — the experiment completed, nothing is forfeited, and the
    return value is ``None`` (no re-issue, no retry to count).
    """
    generation = forfeit_count(leases_dir, index)
    try:
        os.rename(
            str(lease_path(leases_dir, index)),
            str(_tombstone_path(leases_dir, index, generation)),
        )
    except FileNotFoundError:
        return None
    return generation + 1

"""Campaign executors: one code path, serial or sharded.

:meth:`repro.nftape.campaign.Campaign.run` drives an executor's
``execute()`` generator and consumes ``(index, result)`` pairs **in
experiment order** — the executor decides *how* the experiments run:

* :class:`SerialExecutor` — in-process, one at a time, through the
  same :func:`~repro.runtime.worker.execute_job` path the workers use.
* :class:`PooledExecutor` — long-lived worker processes pulling leases
  from a file-backed work queue (:mod:`repro.runtime.fabric`), each
  experiment on a fresh test bed with its deterministically derived
  seed.  Results are **order-merged**: however the shards race, the
  pairs come out sorted by experiment index, so the resulting table is
  bit-identical to a serial run.

Both executors record every completed experiment in the sqlite
:class:`~repro.runtime.store.ResultStore` at
``<artifacts_dir>/results.sqlite`` and, with ``resume=True``, restore
the winners recorded there instead of re-running them.  Without
``artifacts_dir`` the serial executor writes nothing; the pooled
executor keeps its queue and store in a private temp directory.

Robustness (pooled): ``timeout_s`` is the lease deadline, so it bounds
each experiment's wall-clock time; a worker that crashes or outlives its
lease is replaced and the experiment re-issued with the same seed, up to
:data:`MAX_RETRIES` times, before the campaign fails.  A deterministic
experiment error is never retried.

Wall-clock note: this module (and :mod:`repro.runtime.worker`) carries
the scoped SIM001 allowance alongside :mod:`repro.telemetry` — the
engine times and kills *host* worker processes, and no wall-clock value
can reach simulated time (workers rebuild their simulators from the
derived seed alone).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import CampaignError
from repro.nftape.results import ExperimentResult
from repro.runtime.artifacts import merge_artifacts
from repro.runtime.events import emit
from repro.runtime.fabric import (
    FABRIC_SUBDIR,
    POLL_S,
    forfeit_count,
    forfeit_lease,
    read_lease,
    read_queue,
    release_lease,
    run_fabric_worker,
    write_queue,
)
from repro.runtime.spec import CampaignSpec
from repro.runtime.spec_codec import spec_to_json
from repro.runtime.store import STORE_FILE_NAME, ResultStore
from repro.runtime.worker import execute_job, job_for
from repro.telemetry.state import STATE

__all__ = [
    "SerialExecutor",
    "PooledExecutor",
    "DEFAULT_TIMEOUT_S",
    "MAX_RETRIES",
    "SPEC_FILE_NAME",
]

#: File name of the campaign's spec codec document written into the
#: artifacts root (see :func:`repro.runtime.spec_codec.spec_to_json`).
SPEC_FILE_NAME = "spec.json"

#: Default per-experiment wall-clock timeout (generous: scaled paper
#: experiments run in seconds; a stuck shard should not stall a shift).
DEFAULT_TIMEOUT_S = 900.0

#: Re-issues (same derived seed) a crashed or timed-out experiment gets
#: before the pooled campaign fails.
MAX_RETRIES = 2

#: ``multiprocessing`` start method of the pooled workers: ``fork``
#: where the platform offers it (fast), else ``spawn`` — the rule
#: ``multiprocessing.get_all_start_methods()`` follows, decided without
#: importing ``multiprocessing`` until a pooled campaign runs.
START_METHOD = "spawn" if sys.platform == "win32" else "fork"

#: Minimum wall seconds between the pooled executor's heartbeat events
#: (only emitted while an event bus is installed — see
#: :mod:`repro.runtime.events`).
HEARTBEAT_INTERVAL_S = 1.0

#: Result fields accumulated into the periodic ``snapshot`` events
#: (counter deltas since the previous snapshot).
SNAPSHOT_FIELDS = (
    "messages_sent",
    "messages_received",
    "injections",
    "send_failures",
    "checksum_drops",
)


class _ExecutorBase:
    """Store/resume/artifact plumbing shared by both executors."""

    def __init__(
        self,
        resume: bool = False,
        artifacts_dir: Optional[Union[str, Path]] = None,
        label: Optional[str] = None,
        events_label: Optional[str] = None,
    ) -> None:
        if resume and artifacts_dir is None:
            raise CampaignError(
                "resume restores from the result store: pass artifacts_dir"
            )
        self.resume = resume
        self.artifacts_dir = (
            None if artifacts_dir is None else Path(artifacts_dir)
        )
        self.label = label
        #: Campaign key the lifecycle events are published under; when
        #: unset it falls back to ``label`` / the spec name.  The server
        #: sets it to the campaign id so event streams stay unique while
        #: artifact labels (and hence insight digests) match offline runs.
        self.events_label = events_label
        #: Experiment indices actually executed this run (for tests/UX).
        self.executed: List[int] = []
        #: Indices restored from the result store instead of re-run.
        self.skipped: List[int] = []
        #: Retries (re-issues) performed, keyed by experiment index.
        self.retries: Dict[int, int] = {}
        #: Summary dict of the artifact merge (once performed).
        self.merge_summary: Optional[Dict[str, Any]] = None
        self._events_campaign: Optional[str] = None
        self._snapshot_totals: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # event emission (disabled-is-free: one slot read when no bus)
    # ------------------------------------------------------------------

    def _events_key(self, spec: CampaignSpec) -> str:
        """The campaign key lifecycle events are published under."""
        return self.events_label or self.label or spec.name

    def _emit(self, kind: str, **payload: Any) -> None:
        if STATE.bus is None or self._events_campaign is None:
            return
        emit(self._events_campaign, kind, **payload)

    def _emit_finished(self, index: int, name: str,
                       result: ExperimentResult) -> None:
        """``experiment_finished`` plus the counter-delta ``snapshot``."""
        if STATE.bus is None or self._events_campaign is None:
            return
        emit(
            self._events_campaign, "experiment_finished",
            index=index, name=name,
            messages_sent=result.messages_sent,
            messages_received=result.messages_received,
            injections=result.injections,
        )
        deltas: Dict[str, int] = {}
        for field in SNAPSHOT_FIELDS:
            value = int(getattr(result, field, 0) or 0)
            deltas[field] = value
            self._snapshot_totals[field] = (
                self._snapshot_totals.get(field, 0) + value
            )
        done = self._snapshot_totals.get("experiments", 0) + 1
        self._snapshot_totals["experiments"] = done
        emit(
            self._events_campaign, "snapshot",
            experiments_done=done,
            deltas=deltas,
            totals=dict(self._snapshot_totals),
        )

    # ------------------------------------------------------------------

    def _open_store(
        self, home: Path, spec: CampaignSpec
    ) -> Tuple[ResultStore, str, Dict[int, ExperimentResult]]:
        """Open ``home``'s result store and register ``spec``.

        Returns the store, the spec digest, and (on resume) the winners
        already recorded for that digest — a different spec has a
        different digest, so it restores nothing.
        """
        home.mkdir(parents=True, exist_ok=True)
        store = ResultStore(home / STORE_FILE_NAME)
        try:
            digest = store.begin(spec, resume=self.resume)
            restored = store.completed(digest) if self.resume else {}
        except BaseException:
            store.close()
            raise
        return store, digest, restored

    def _write_spec(self, spec: CampaignSpec) -> None:
        """Drop ``spec.json``, the spec codec document, into the
        artifacts root (offline analyzers — ``repro.insight`` — decode
        the campaign from it)."""
        if self.artifacts_dir is None:
            return
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        (self.artifacts_dir / SPEC_FILE_NAME).write_text(
            json.dumps(spec_to_json(spec), indent=2, sort_keys=True) + "\n"
        )

    def _merge(self, spec: CampaignSpec) -> None:
        if self.artifacts_dir is None:
            return
        entries = [
            (index, experiment.name)
            for index, experiment in enumerate(spec.experiments)
        ]
        self.merge_summary = merge_artifacts(
            self.artifacts_dir, entries, label=self.label or spec.name
        )
        self._emit(
            "shard_merged",
            telemetry_shards=self.merge_summary.get("telemetry_shards", 0),
            capture_shards=self.merge_summary.get("capture_shards", 0),
            missing_shards=list(self.merge_summary.get("missing_shards", [])),
        )


class SerialExecutor(_ExecutorBase):
    """Run every experiment in-process, in order.

    ``Campaign.run()`` with no executor argument uses this with default
    options.  With an ``artifacts_dir`` it also keeps the result store,
    resume, and per-experiment artifact shards (merged on completion)
    through the exact same code path the pooled workers run.
    """

    def execute(self, spec: CampaignSpec,
                progress: Optional[Any] = None
                ) -> Iterator[Tuple[int, ExperimentResult]]:
        """Yield ``(index, result)`` pairs in experiment order."""
        self._events_campaign = self._events_key(spec)
        store: Optional[ResultStore] = None
        digest = ""
        completed: Dict[int, ExperimentResult] = {}
        if self.artifacts_dir is not None:
            store, digest, completed = self._open_store(
                self.artifacts_dir, spec)
        try:
            yield from self._run(spec, store, digest, completed, progress)
        finally:
            if store is not None:
                store.close()

    def _run(self, spec: CampaignSpec,
             store: Optional[ResultStore], digest: str,
             completed: Dict[int, ExperimentResult],
             progress: Optional[Any]
             ) -> Iterator[Tuple[int, ExperimentResult]]:
        self._write_spec(spec)
        total = len(spec)
        self._emit("campaign_started", executor="serial", experiments=total,
                   restored=len(completed))
        for index in range(total):
            if index in completed:
                self.skipped.append(index)
                if progress is not None:
                    progress(f"[{index + 1}/{total}] restored "
                             f"{completed[index].name} from store")
                self._emit("experiment_restored", index=index,
                           name=completed[index].name)
                yield index, completed[index]
                continue
            job = job_for(
                spec, index,
                artifacts_root=(
                    None if self.artifacts_dir is None
                    else str(self.artifacts_dir)
                ),
                label=self.label,
            )
            if progress is not None:
                progress(f"[{index + 1}/{total}] running {job.name}")
            self._emit("experiment_started", index=index, name=job.name,
                       seed=job.seed, attempt=0)
            result = execute_job(job, in_process=True)
            if store is not None:
                store.record(digest, index, job.name, job.seed, result)
            self.executed.append(index)
            self._emit_finished(index, result.name, result)
            yield index, result
        self._merge(spec)
        self._emit("campaign_finished", experiments=total,
                   executed=len(self.executed), restored=len(self.skipped))


class PooledExecutor(_ExecutorBase):
    """Shard a campaign across lease-queue worker processes.

    ``Campaign.run(executor=PooledExecutor(workers=4, ...))`` yields
    ``(index, result)`` pairs in experiment order, byte-identical to a
    serial run.  The coordinator publishes the campaign as a work queue
    under ``<artifacts_dir>/fabric/``, starts ``workers`` processes
    that pull leases from it (:func:`~repro.runtime.fabric.
    run_fabric_worker`), and reads their results back from the shared
    result store — queryable while running, and the source of
    ``resume=True``.  With no ``artifacts_dir``, queue and store live in
    a private temp directory (and ``resume`` is unavailable).

    Parameters
    ----------
    workers:
        Worker processes, i.e. maximum experiments in flight at once.
    timeout_s:
        Per-experiment wall-clock budget (the lease deadline); an
        experiment still running when it passes is killed and
        re-issued.  ``None`` disables the timeout.
    chaos_duplicate_delivery:
        Test-only: an extra rogue worker runs this experiment index
        without claiming its lease (duplicate lease delivery).
    """

    def __init__(
        self,
        workers: int = 2,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        resume: bool = False,
        artifacts_dir: Optional[Union[str, Path]] = None,
        label: Optional[str] = None,
        events_label: Optional[str] = None,
        chaos_duplicate_delivery: Optional[int] = None,
    ) -> None:
        super().__init__(resume=resume, artifacts_dir=artifacts_dir,
                         label=label, events_label=events_label)
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout_s = timeout_s
        self.chaos_duplicate_delivery = chaos_duplicate_delivery
        #: Queue-file repairs performed (truncation recovery).
        self.queue_repairs = 0

    # ------------------------------------------------------------------

    def execute(self, spec: CampaignSpec,
                progress: Optional[Any] = None
                ) -> Iterator[Tuple[int, ExperimentResult]]:
        """Yield ``(index, result)`` in experiment order (order-merge)."""
        scratch: Optional[str] = None
        if self.artifacts_dir is not None:
            home = self.artifacts_dir
        else:
            scratch = tempfile.mkdtemp(prefix="repro-pool-")
            home = Path(scratch)
        self._events_campaign = self._events_key(spec)
        processes: List[Any] = []
        store: Optional[ResultStore] = None
        try:
            store, digest, ready = self._open_store(home, spec)
            yield from self._run(spec, home, store, digest, ready,
                                 processes, progress)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            if store is not None:
                store.close()
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)

    def _run(self, spec: CampaignSpec, home: Path, store: ResultStore,
             digest: str, ready: Dict[int, ExperimentResult],
             processes: List[Any], progress: Optional[Any]
             ) -> Iterator[Tuple[int, ExperimentResult]]:
        total = len(spec)
        self.skipped = sorted(ready)
        self._write_spec(spec)
        fabric_dir = home / FABRIC_SUBDIR
        leases_dir = fabric_dir / "leases"
        if leases_dir.exists():
            shutil.rmtree(leases_dir)  # no workers are live yet
        leases_dir.mkdir(parents=True, exist_ok=True)
        write_queue(fabric_dir, digest, spec)

        self._emit("campaign_started", executor="pooled",
                   experiments=total, workers=self.workers,
                   restored=len(ready), digest=digest)
        for index in self.skipped:
            self._emit("experiment_restored", index=index,
                       name=ready[index].name)

        import multiprocessing

        context = multiprocessing.get_context(START_METHOD)
        lease_s = math.inf if self.timeout_s is None else self.timeout_s

        def _spawn(worker_index: int,
                   rogue_index: Optional[int] = None) -> Any:
            process = context.Process(
                target=run_fabric_worker,
                args=(
                    f"w{worker_index}", spec, str(fabric_dir),
                    str(home / STORE_FILE_NAME),
                    None if self.artifacts_dir is None
                    else str(self.artifacts_dir),
                    self.label or spec.name,
                    lease_s,
                ),
                kwargs={"rogue_index": rogue_index},
                daemon=True,
                name=(f"repro-pool-w{worker_index}"
                      if rogue_index is None
                      else f"repro-pool-rogue{worker_index}"),
            )
            process.start()
            return process

        processes.extend(_spawn(i) for i in range(self.workers))
        if self.chaos_duplicate_delivery is not None:
            processes.append(_spawn(
                self.workers, rogue_index=self.chaos_duplicate_delivery))
        live = {process.pid: process for process in processes}

        def _fail(index: int, name: str, reason: str, attempts: int,
                  detail: str = "") -> None:
            self._emit("experiment_failed", index=index, name=name,
                       reason=reason, attempts=attempts)
            self._emit("campaign_failed", experiments=total,
                       failed_index=index, reason=reason)
            raise CampaignError(
                f"experiment {index} ({name!r}) failed after {attempts} "
                f"attempt(s): {reason}{detail}"
            )

        started: set = set(self.skipped)
        next_yield = 0
        respawns = 0
        # Every crash or kill under a lease uses up one of that
        # experiment's retries, so the budget covers all retries plus
        # one exit per worker; only workers dying outside a lease can
        # spend it.
        respawn_budget = self.workers + total * MAX_RETRIES
        next_heartbeat = time.monotonic() + HEARTBEAT_INTERVAL_S
        while len(ready) < total:
            # 1. collect newly completed experiments from the store
            if len(store.completed_indices(digest)) > len(ready):
                winners = store.completed(digest)
                for index in sorted(set(winners) - set(ready)):
                    result = winners[index]
                    if index not in started:
                        started.add(index)
                        attempt = next(
                            (a["attempt"]
                             for a in store.attempts(digest, index)
                             if a["winner"]), 0)
                        self._emit("experiment_started", index=index,
                                   name=result.name,
                                   seed=spec.seed_for(index),
                                   attempt=attempt)
                    ready[index] = result
                    self.executed.append(index)
                    self._emit_finished(index, result.name, result)
                    if progress is not None:
                        progress(f"[{len(ready)}/{total}] finished "
                                 f"{result.name}")

            # 2. lease scan: first-observation events, death and expiry
            running = []
            for lease_file in sorted(leases_dir.glob("*.lease")):
                lease = read_lease(lease_file)
                if lease is None:
                    continue  # torn mid-write; next poll sees it
                if lease.index in ready:
                    release_lease(leases_dir, lease.index)
                    continue
                running.append(lease.index)
                name = spec.experiments[lease.index].name
                if lease.index not in started:
                    started.add(lease.index)
                    self._emit("experiment_started",
                               index=lease.index, name=name,
                               seed=spec.seed_for(lease.index),
                               attempt=lease.attempt)
                holder = live.get(lease.pid)
                holder_dead = holder is not None and not holder.is_alive()
                if not holder_dead and time.time() < lease.deadline_unix:
                    continue
                if holder_dead:
                    reason = "worker crashed (died holding the lease)"
                else:
                    reason = f"timed out after {self.timeout_s:g}s wall"
                    if holder is not None:
                        holder.terminate()  # replaced in step 5
                        holder.join(timeout=5)
                next_attempt = forfeit_lease(leases_dir, lease.index)
                if next_attempt is None:
                    continue  # released after recording: it completed
                if next_attempt > MAX_RETRIES:
                    _fail(lease.index, name, reason, next_attempt)
                self.retries[lease.index] = (
                    self.retries.get(lease.index, 0) + 1
                )
                self._emit("experiment_retried", index=lease.index,
                           name=name, reason=reason,
                           attempt=next_attempt)
                if progress is not None:
                    progress(f"retrying {name} ({reason}, attempt "
                             f"{next_attempt + 1}/{MAX_RETRIES + 1})")

            # 3. deterministic failures reported by workers: no retry
            for marker in sorted(leases_dir.glob("*.failed")):
                try:
                    info = json.loads(marker.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    continue  # torn mid-write; next poll
                index = int(info.get("index", -1))
                _fail(index, str(info.get("name")),
                      f"{info.get('type')}: {info.get('message')}",
                      forfeit_count(leases_dir, index) + 1,
                      detail=f"\n{info.get('traceback', '')}")

            # 4. queue integrity (truncation / corruption repair)
            if read_queue(fabric_dir, digest) is None:
                write_queue(fabric_dir, digest, spec)
                self.queue_repairs += 1

            # 5. worker liveness: replace the fallen
            for slot, process in enumerate(processes):
                if process.is_alive() or len(ready) >= total \
                        or respawns >= respawn_budget:
                    continue
                process.join(timeout=0)
                replacement = _spawn(self.workers + respawns)
                processes[slot] = replacement
                live[replacement.pid] = replacement
                respawns += 1
            if not any(p.is_alive() for p in processes) \
                    and len(store.completed_indices(digest)) < total:
                reason = "every worker died; respawn budget spent"
                self._emit("campaign_failed", experiments=total,
                           reason=reason)
                raise CampaignError(f"pooled campaign failed: {reason}")

            # 6. stream the ordered prefix to the campaign
            while next_yield in ready:
                yield next_yield, ready[next_yield]
                next_yield += 1

            now = time.monotonic()
            if STATE.bus is not None and now >= next_heartbeat:
                next_heartbeat = now + HEARTBEAT_INTERVAL_S
                self._emit("heartbeat", running=sorted(running),
                           pending=total - len(ready) - len(running),
                           completed=len(ready), experiments=total)
            if len(ready) < total:
                time.sleep(POLL_S)

        while next_yield in ready:
            yield next_yield, ready[next_yield]
            next_yield += 1
        self.executed.sort()
        self._merge(spec)
        self._emit("campaign_finished", experiments=total,
                   executed=len(self.executed), restored=len(self.skipped),
                   retried=sum(self.retries.values()))

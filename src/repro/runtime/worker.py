"""The per-experiment unit of work, shared by every executor.

One :class:`ExperimentJob` fully describes one experiment run: the
(picklable) spec, the derived seed, the attempt number, and where the
shard's artifacts go.  :func:`execute_job` is **the** code path that
runs an experiment — the serial executor calls it in-process, and the
pooled executor's lease-queue workers
(:func:`~repro.runtime.fabric.run_fabric_worker`) call the very same
function — so serial and sharded campaigns cannot drift apart
behaviourally.

When a job carries an artifacts directory, the experiment runs under
its own private :class:`~repro.telemetry.ObservationSession`, which
drops the shard's ``telemetry/`` and ``capture/`` artifacts that
:mod:`repro.runtime.artifacts` later merges.

Fault-injection hooks
---------------------
Fittingly for a fault-injection framework, the engine can inject faults
into *itself*: two reserved ``params`` keys let tests (and CI) exercise
the crash-retry and timeout paths end-to-end —

* ``"_crash_until_attempt": n`` — the child process dies abruptly
  (``os._exit``) on attempts ``< n``, then succeeds;
* ``"_hang_wall_s": s`` — the child sleeps ``s`` wall seconds before
  running, tripping the per-experiment timeout (the lease deadline).
  ``"_hang_until_attempt": n`` scopes the hang to attempts ``< n`` so
  re-issued attempts run clean;
* ``"_crash_after_artifacts": n`` — like ``_crash_until_attempt`` but
  the crash lands *after* the shard artifacts are written and promoted,
  exercising the retry-must-not-double-count merge invariant.

All of them only ever fire inside a sacrificial worker process; the
in-process serial executor ignores them.
"""

from __future__ import annotations

import errno
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.nftape.results import ExperimentResult
from repro.runtime import artifacts as _artifacts
from repro.runtime.spec import CampaignSpec, ExperimentSpec
from repro.telemetry import ObservationSession

__all__ = [
    "ExperimentJob",
    "job_for",
    "execute_job",
    "CRASH_PARAM",
    "HANG_PARAM",
    "HANG_UNTIL_PARAM",
    "CRASH_AFTER_PARAM",
]

#: Reserved params key: crash the worker on attempts below the value.
CRASH_PARAM = "_crash_until_attempt"
#: Reserved params key: sleep this many wall seconds before running.
HANG_PARAM = "_hang_wall_s"
#: Reserved params key: limit the hang to attempts below the value.
HANG_UNTIL_PARAM = "_hang_until_attempt"
#: Reserved params key: crash *after* artifact promotion on attempts
#: below the value (the double-count regression hook).
CRASH_AFTER_PARAM = "_crash_after_artifacts"
#: Exit code of a deliberately crashed worker (distinctive in logs).
CRASH_EXIT_CODE = 86


@dataclass(frozen=True)
class ExperimentJob:
    """Everything a process needs to run one experiment."""

    index: int
    name: str
    seed: int
    spec: ExperimentSpec
    attempt: int = 0
    artifacts_dir: Optional[str] = None
    label: str = "campaign"


def job_for(
    spec: CampaignSpec,
    index: int,
    attempt: int = 0,
    artifacts_root: Optional[str] = None,
    label: Optional[str] = None,
) -> ExperimentJob:
    """Build the job for experiment ``index`` of a campaign spec.

    The seed comes from the campaign's derivation rule and the shard
    directory from the artifact layout — both pure functions of
    ``(spec, index)``, so every attempt of every executor builds the
    same job (modulo ``attempt``).
    """
    experiment = spec.experiments[index]
    shard = (
        None if artifacts_root is None
        else str(_artifacts.shard_dir(artifacts_root, index,
                                      experiment.name))
    )
    return ExperimentJob(
        index=index,
        name=experiment.name,
        seed=spec.seed_for(index),
        spec=experiment,
        attempt=attempt,
        artifacts_dir=shard,
        label=label or spec.name,
    )


def _promote_shard(staging: Path, final: Path) -> bool:
    """Atomically install a fully written shard; False when outraced.

    Workers write artifacts into a per-attempt staging directory and
    rename it into place — a crash mid-write leaves only staging debris
    (ignored by the merge), never a torn shard, and when a re-issued or
    duplicate attempt finds the shard already promoted its own copy is
    discarded whole.  Either way the merged artifacts fold each
    experiment exactly once.
    """
    if final.exists():
        shutil.rmtree(staging)
        return False
    try:
        os.rename(staging, final)
    except OSError as exc:
        if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
            raise
        shutil.rmtree(staging)  # lost the promotion race
        return False
    return True


def execute_job(job: ExperimentJob,
                in_process: bool = False) -> ExperimentResult:
    """Run one experiment job to completion; the shared code path.

    With ``job.artifacts_dir`` set, an observation session is opened
    around the run and the shard artifacts written on exit.  Worker
    processes stage artifacts under ``<shard>.a<attempt>.p<pid>.tmp``
    (pid-qualified so a duplicate lease delivery running the same
    attempt in two processes can never write into one staging dir) and
    promote them with one atomic rename (see :func:`_promote_shard`);
    the in-process serial executor writes directly (it cannot be killed
    mid-experiment without killing the campaign).  The fault-injection
    hooks (module docstring) fire only when ``in_process`` is false —
    they exist to kill sacrificial workers, never the orchestrator.
    """
    if not in_process:
        crash_until = job.spec.params.get(CRASH_PARAM)
        if crash_until is not None and job.attempt < int(crash_until):
            os._exit(CRASH_EXIT_CODE)
        hang_s = job.spec.params.get(HANG_PARAM)
        if hang_s:
            hang_until = job.spec.params.get(HANG_UNTIL_PARAM)
            if hang_until is None or job.attempt < int(hang_until):
                time.sleep(float(hang_s))

    experiment = job.spec.materialize(seed=job.seed)
    label = f"{job.label}/{job.name}"
    if job.artifacts_dir is None:
        return experiment.run()

    final = Path(job.artifacts_dir)
    out_dir = final
    if not in_process:
        out_dir = final.with_name(
            f"{final.name}.a{job.attempt}.p{os.getpid()}.tmp")
        if out_dir.exists():
            shutil.rmtree(out_dir)  # stale debris of a crashed attempt
    with ObservationSession(out_dir=out_dir, label=label):
        result = experiment.run()
    if not in_process:
        _promote_shard(out_dir, final)
        crash_after = job.spec.params.get(CRASH_AFTER_PARAM)
        if crash_after is not None and job.attempt < int(crash_after):
            os._exit(CRASH_EXIT_CODE)
    return result

"""Sharded parallel campaign execution engine.

The paper's evaluation is a campaign of thousands of serially re-armed,
*mutually independent* experiments (§4.2–§4.3): each starts from a
fresh known good state, so nothing but the result table couples them.
This package exploits that independence the way the related
high-throughput systems do — replicate the engine, merge the results —
while keeping the reproduction's core guarantee: **bit-identical
results regardless of worker count or completion order**.

The pieces:

* :mod:`~repro.runtime.spec` — frozen, picklable
  :class:`ExperimentSpec` / :class:`PlanSpec` / :class:`CampaignSpec`
  dataclasses (experiments as data, materialized inside whichever
  process runs them);
* :mod:`~repro.runtime.seeding` — the blake2b per-experiment seed
  derivation rule;
* :mod:`~repro.runtime.executors` — :class:`SerialExecutor` and
  :class:`PooledExecutor` behind one ``Campaign.run(executor=…)`` code
  path; the pooled executor's per-experiment wall-clock timeout and
  bounded crash-retry come from its lease queue;
* :mod:`~repro.runtime.fabric` — the lease-queue protocol: the work
  queue file, filesystem leases, and the pull-worker loop, with crash /
  hang / duplicate-delivery recovery (chaos-tested);
* :mod:`~repro.runtime.store` — the queryable sqlite
  :class:`ResultStore` (schema-versioned, WAL, one winner per
  experiment, incremental aggregates) both executors record into and
  ``--resume`` restores from;
* :mod:`~repro.runtime.artifacts` — per-experiment telemetry/capture
  shards and their deterministic merge;
* :mod:`~repro.runtime.worker` — the single per-experiment code path
  shared by the serial executor and the pooled workers.

See docs/runtime.md for the full contract.
"""

from repro.runtime.artifacts import merge_artifacts, shard_dir
from repro.runtime.events import (
    EVENT_KINDS,
    EventBus,
    EventBusSession,
    Subscription,
)
from repro.runtime.executors import (
    DEFAULT_TIMEOUT_S,
    PooledExecutor,
    SerialExecutor,
)
from repro.runtime.seeding import derive_seed
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec
from repro.runtime.spec_codec import spec_from_json, spec_to_json
from repro.runtime.store import (
    ResultStore,
    result_from_dict,
    result_to_dict,
    spec_digest,
)
from repro.runtime.worker import ExperimentJob, execute_job, job_for

__all__ = [
    "CampaignSpec",
    "ExperimentSpec",
    "PlanSpec",
    "EventBus",
    "EventBusSession",
    "Subscription",
    "EVENT_KINDS",
    "spec_from_json",
    "spec_to_json",
    "SerialExecutor",
    "PooledExecutor",
    "ResultStore",
    "spec_digest",
    "ExperimentJob",
    "derive_seed",
    "execute_job",
    "job_for",
    "merge_artifacts",
    "shard_dir",
    "result_to_dict",
    "result_from_dict",
    "DEFAULT_TIMEOUT_S",
]

"""The campaign result store: sqlite, WAL, winner-dedup.

The :class:`ResultStore` is every executor's *shared, queryable* record
of completed experiments and the one source ``resume`` restores from:
the serial executor records in-process, and every pooled worker process
pushes into the same sqlite database (WAL mode, so concurrent writers
on one host serialize safely and readers never block).  Partially
complete sweeps stay queryable — ``python -m repro store query`` —
while the campaign is still running.  It lives at
``<artifacts_dir>/results.sqlite`` (:data:`STORE_FILE_NAME`).

Schema (``SCHEMA_VERSION`` in ``meta``; same idiom as
:class:`repro.insight.store.InsightStore`):

* ``campaigns`` — one row per campaign, keyed by the **spec digest**
  (blake2b over the canonical :func:`~repro.runtime.spec_codec.
  spec_to_json` document), so two textually different but semantically
  identical submissions share their results;
* ``results`` — one row per ``(spec_digest, idx, attempt)``.  The
  **first completed attempt wins**: the winner is promoted under the
  insert transaction and a partial unique index makes a second winner
  for the same experiment impossible — duplicate lease delivery, lease
  re-issue races, and at-least-once execution all collapse to exactly
  one winning row (losing attempts are kept for the audit trail);
* ``aggregates`` — incrementally folded counter totals, updated in the
  same transaction that promotes a winner, so the view equals a
  from-scratch fold over the winner rows at every instant (property
  tested);
* ``campaign_progress`` — a SQL view joining the three.

Crash robustness: a torn write (power cut, ``kill -9`` mid-commit,
copy-under-write snapshots) is detected at open; the damaged file is
quarantined to ``<path>.corrupt-N`` and a fresh store created, so a
resumed campaign simply re-runs what the quarantined rows had covered —
re-derived seeds make the re-run byte-identical.

Determinism: no wall-clock timestamps are stored, every query carries
an explicit ``ORDER BY``, and result payloads are the JSON-safe
projection :func:`result_to_dict` (``extras`` — live test beds,
workload objects — never crosses the worker boundary).
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Union

from repro.errors import CampaignError, ConfigurationError
from repro.nftape.results import ExperimentResult
from repro.runtime.spec import CampaignSpec
from repro.runtime.spec_codec import spec_to_json

__all__ = [
    "STORE_FILE_NAME",
    "STORE_SCHEMA_VERSION",
    "AGGREGATE_FIELDS",
    "RESULT_FIELDS",
    "result_to_dict",
    "result_from_dict",
    "spec_digest",
    "ResultStore",
]

#: The result store's file name under an artifacts root.
STORE_FILE_NAME = "results.sqlite"

#: Result-store schema generation; bump on incompatible table changes.
STORE_SCHEMA_VERSION = 1

#: Scalar :class:`ExperimentResult` fields that cross the worker /
#: store boundary (plus ``params``/``notes`` and the counter maps).
RESULT_FIELDS = (
    "name",
    "duration_ps",
    "messages_sent",
    "messages_received",
    "injections",
    "active_misdeliveries",
    "corrupted_deliveries",
    "send_failures",
    "checksum_drops",
)

#: Counter fields folded into the incremental ``aggregates`` table
#: (the scalar :class:`ExperimentResult` counters, summed over winners).
AGGREGATE_FIELDS = (
    "messages_sent",
    "messages_received",
    "injections",
    "active_misdeliveries",
    "corrupted_deliveries",
    "send_failures",
    "checksum_drops",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    spec_digest TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    base_seed   INTEGER NOT NULL,
    experiments INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    spec_digest  TEXT NOT NULL,
    idx          INTEGER NOT NULL,
    attempt      INTEGER NOT NULL,
    name         TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    winner       INTEGER NOT NULL DEFAULT 0,
    payload_json TEXT NOT NULL,
    PRIMARY KEY (spec_digest, idx, attempt)
);
CREATE UNIQUE INDEX IF NOT EXISTS results_one_winner
    ON results (spec_digest, idx) WHERE winner = 1;
CREATE TABLE IF NOT EXISTS aggregates (
    spec_digest          TEXT PRIMARY KEY,
    experiments_done     INTEGER NOT NULL DEFAULT 0,
    messages_sent        INTEGER NOT NULL DEFAULT 0,
    messages_received    INTEGER NOT NULL DEFAULT 0,
    injections           INTEGER NOT NULL DEFAULT 0,
    active_misdeliveries INTEGER NOT NULL DEFAULT 0,
    corrupted_deliveries INTEGER NOT NULL DEFAULT 0,
    send_failures        INTEGER NOT NULL DEFAULT 0,
    checksum_drops       INTEGER NOT NULL DEFAULT 0
);
CREATE VIEW IF NOT EXISTS campaign_progress AS
    SELECT c.spec_digest       AS spec_digest,
           c.name              AS name,
           c.experiments       AS experiments,
           COALESCE(a.experiments_done, 0) AS experiments_done,
           COALESCE(a.injections, 0)       AS injections,
           COALESCE(a.messages_sent, 0)    AS messages_sent,
           COALESCE(a.messages_received, 0) AS messages_received
    FROM campaigns c LEFT JOIN aggregates a USING (spec_digest);
"""


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """The JSON-safe projection of a result (drops ``extras``)."""
    payload: Dict[str, Any] = {
        name: getattr(result, name) for name in RESULT_FIELDS
    }
    payload["params"] = dict(result.params)
    payload["notes"] = list(result.notes)
    payload["host_stats"] = {
        host: dict(stats) for host, stats in result.host_stats.items()
    }
    payload["switch_stats"] = {
        switch: dict(stats) for switch, stats in result.switch_stats.items()
    }
    return payload


def result_from_dict(payload: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    result = ExperimentResult(
        name=payload["name"],
        params=dict(payload.get("params", {})),
    )
    for name in RESULT_FIELDS[1:]:
        setattr(result, name, payload.get(name, 0))
    result.notes = list(payload.get("notes", []))
    result.host_stats = {
        host: dict(stats)
        for host, stats in payload.get("host_stats", {}).items()
    }
    result.switch_stats = {
        switch: dict(stats)
        for switch, stats in payload.get("switch_stats", {}).items()
    }
    return result


def spec_digest(spec: CampaignSpec) -> str:
    """The campaign's identity in the store: blake2b-128 over the
    canonical codec JSON (worker-count and host independent)."""
    canonical = json.dumps(spec_to_json(spec), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


class ResultStore:
    """Shared sqlite result store for campaigns (see module doc).

    Open one instance per process; connections are WAL-mode with a
    generous busy timeout, so coordinator and workers on one host can
    read and write concurrently.  ``":memory:"`` works for tests (no
    cross-process sharing, obviously).
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        #: True when a corrupt database was quarantined at open.
        self.recovered = False
        self._conn = self._open()

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            self._quarantine()
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            if self.path != ":memory:":
                conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(STORE_SCHEMA_VERSION)),
                )
                conn.commit()
            elif int(row[0]) != STORE_SCHEMA_VERSION:
                conn.close()
                raise ConfigurationError(
                    f"result store {self.path} has schema v{row[0]}; "
                    f"this build reads v{STORE_SCHEMA_VERSION}"
                )
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> None:
        """Move a torn/corrupt database (and WAL sidecars) aside."""
        base = Path(self.path)
        generation = 0
        while True:
            target = base.with_name(f"{base.name}.corrupt-{generation}")
            if not target.exists():
                break
            generation += 1
        if base.exists():
            base.rename(target)
        for suffix in ("-wal", "-shm"):
            sidecar = Path(self.path + suffix)
            if sidecar.exists():
                sidecar.rename(
                    target.with_name(target.name + suffix)
                )
        self.recovered = True

    # ------------------------------------------------------------------

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self._conn.close()

    # ------------------------------------------------------------------
    # campaign lifecycle
    # ------------------------------------------------------------------

    def begin(self, spec: CampaignSpec, resume: bool = False) -> str:
        """Register ``spec``; returns its digest.

        A fresh (non-resume) begin **clears** any previous rows of the
        same digest, so re-running a campaign from scratch never mixes
        old and new results; a resume keeps them (that is the point).
        """
        digest = spec_digest(spec)
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO campaigns "
                "(spec_digest, name, base_seed, experiments) "
                "VALUES (?, ?, ?, ?)",
                (digest, spec.name, spec.base_seed, len(spec)),
            )
            if not resume:
                self._conn.execute(
                    "DELETE FROM results WHERE spec_digest = ?", (digest,)
                )
                self._conn.execute(
                    "DELETE FROM aggregates WHERE spec_digest = ?",
                    (digest,),
                )
        return digest

    def record(
        self,
        digest: str,
        index: int,
        name: str,
        seed: int,
        result: ExperimentResult,
        attempt: int = 0,
    ) -> bool:
        """Insert one completed attempt; returns True if it **won**.

        One transaction inserts the attempt row, promotes it to winner
        iff the experiment has no winner yet, and folds the counters
        into ``aggregates`` — so duplicate deliveries and lease-reissue
        races leave exactly one winner and exactly-once aggregation.
        """
        payload = json.dumps(result_to_dict(result), sort_keys=True)
        with self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO results "
                "(spec_digest, idx, attempt, name, seed, winner, "
                " payload_json) VALUES (?, ?, ?, ?, ?, 0, ?)",
                (digest, index, attempt, name, seed, payload),
            )
            has_winner = self._conn.execute(
                "SELECT 1 FROM results WHERE spec_digest = ? AND idx = ? "
                "AND winner = 1",
                (digest, index),
            ).fetchone()
            if has_winner is not None:
                return False
            promoted = self._conn.execute(
                "UPDATE results SET winner = 1, payload_json = ? "
                "WHERE spec_digest = ? AND idx = ? AND attempt = ?",
                (payload, digest, index, attempt),
            ).rowcount
            if not promoted:  # pragma: no cover - defensive
                return False
            columns = ", ".join(AGGREGATE_FIELDS)
            updates = ", ".join(
                f"{field} = {field} + excluded.{field}"
                for field in AGGREGATE_FIELDS
            )
            self._conn.execute(
                f"INSERT INTO aggregates (spec_digest, experiments_done, "
                f"{columns}) VALUES (?, 1, "
                f"{', '.join('?' for _ in AGGREGATE_FIELDS)}) "
                f"ON CONFLICT (spec_digest) DO UPDATE SET "
                f"experiments_done = experiments_done + 1, {updates}",
                (digest, *(
                    int(getattr(result, field, 0) or 0)
                    for field in AGGREGATE_FIELDS
                )),
            )
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def completed(self, digest: str) -> Dict[int, ExperimentResult]:
        """Winning results keyed by experiment index (resume source)."""
        rows = self._conn.execute(
            "SELECT idx, payload_json FROM results "
            "WHERE spec_digest = ? AND winner = 1 ORDER BY idx",
            (digest,),
        ).fetchall()
        return {
            int(idx): result_from_dict(json.loads(payload))
            for idx, payload in rows
        }

    def completed_indices(self, digest: str) -> Set[int]:
        """Just the winner indices (cheap poll for workers)."""
        rows = self._conn.execute(
            "SELECT idx FROM results WHERE spec_digest = ? AND winner = 1",
            (digest,),
        ).fetchall()
        return {int(row[0]) for row in rows}

    def aggregate(self, digest: str) -> Dict[str, int]:
        """The incrementally maintained counter totals."""
        row = self._conn.execute(
            "SELECT experiments_done, "
            + ", ".join(AGGREGATE_FIELDS)
            + " FROM aggregates WHERE spec_digest = ?",
            (digest,),
        ).fetchone()
        fields = ("experiments_done",) + AGGREGATE_FIELDS
        if row is None:
            return {field: 0 for field in fields}
        return {field: int(value) for field, value in zip(fields, row)}

    def fold_aggregate(self, digest: str) -> Dict[str, int]:
        """A from-scratch fold over the winner rows.

        The property the incremental table must uphold:
        ``aggregate(d) == fold_aggregate(d)`` after any interleaving of
        inserts, duplicate deliveries, and lease re-issues.
        """
        totals = {field: 0 for field in
                  ("experiments_done",) + AGGREGATE_FIELDS}
        for result in self.completed(digest).values():
            totals["experiments_done"] += 1
            for field in AGGREGATE_FIELDS:
                totals[field] += int(getattr(result, field, 0) or 0)
        return totals

    def campaigns(self) -> List[Dict[str, Any]]:
        """Every known campaign with its progress (the query view)."""
        rows = self._conn.execute(
            "SELECT spec_digest, name, experiments, experiments_done, "
            "injections, messages_sent, messages_received "
            "FROM campaign_progress ORDER BY name, spec_digest"
        ).fetchall()
        keys = ("spec_digest", "name", "experiments", "experiments_done",
                "injections", "messages_sent", "messages_received")
        return [dict(zip(keys, row)) for row in rows]

    def resolve(self, ref: str) -> Optional[str]:
        """A digest from a digest prefix or an exact campaign name."""
        rows = self._conn.execute(
            "SELECT spec_digest FROM campaigns "
            "WHERE spec_digest LIKE ? OR name = ? "
            "ORDER BY spec_digest",
            (ref + "%", ref),
        ).fetchall()
        if len(rows) > 1:
            raise CampaignError(
                f"ambiguous campaign reference {ref!r} "
                f"({len(rows)} matches)"
            )
        return rows[0][0] if rows else None

    def export_rows(self, digest: str) -> Iterator[Dict[str, Any]]:
        """Winner rows in index order, JSON-safe (``store export``)."""
        rows = self._conn.execute(
            "SELECT idx, attempt, name, seed, payload_json FROM results "
            "WHERE spec_digest = ? AND winner = 1 ORDER BY idx",
            (digest,),
        ).fetchall()
        for idx, attempt, name, seed, payload in rows:
            yield {
                "index": int(idx),
                "attempt": int(attempt),
                "name": name,
                "seed": int(seed),
                "result": json.loads(payload),
            }

    def attempts(self, digest: str, index: int) -> List[Dict[str, Any]]:
        """Every recorded attempt of one experiment (audit trail)."""
        rows = self._conn.execute(
            "SELECT attempt, winner FROM results "
            "WHERE spec_digest = ? AND idx = ? ORDER BY attempt",
            (digest, index),
        ).fetchall()
        return [
            {"attempt": int(attempt), "winner": bool(winner)}
            for attempt, winner in rows
        ]

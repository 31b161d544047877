"""Cross-check an insight report against the campaign result store.

Two independent records of the same campaign exist once it ran with an
artifacts directory: the **artifact-derived** :class:`~repro.insight.model.
IncidentReport` (decoded captures + telemetry, built by
:func:`~repro.insight.correlate.analyze_artifacts`) and the **runtime**
:class:`~repro.runtime.store.ResultStore` rows the executor recorded
while executing.  They were produced by different code paths from different
inputs, so agreement between them is strong evidence that neither the
merge nor the store lost or duplicated an experiment — and disagreement
pinpoints which experiment diverged.

:func:`crosscheck_report` joins the two on experiment index and
compares the invariants both sides must share:

* every incident's experiment exists in the store as a winner row;
* seeds match (the derived-seed rule reached both sides intact);
* experiment names match;
* the store's campaign is complete (``experiments_done`` equals the
  campaign's experiment count);
* the store's incremental aggregate equals a from-scratch fold over
  its winner rows (internal consistency).

The check is deliberately *read-only and print-oriented*: it never
mutates either side and never perturbs the pinned insight report
digests — ``repro.cli insight analyze --result-store PATH`` appends its
verdict lines after the normal summary.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple, Union

from repro.insight.model import IncidentReport
from repro.runtime.store import ResultStore

__all__ = ["crosscheck_report"]


def crosscheck_report(
    report: IncidentReport,
    store_path: Union[str, Path],
) -> Tuple[bool, List[str]]:
    """Compare ``report`` with the result store; ``(ok, lines)``.

    ``lines`` is the human-readable verdict, one check per line; ``ok``
    is True when every check passed.  A campaign whose name is absent
    from the store fails the check (the report and the store must
    describe the same campaign).
    """
    lines: List[str] = []
    ok = True
    campaign_name = str(
        report.campaign.get("name") or report.label or ""
    )
    with ResultStore(store_path) as store:
        row = next(
            (c for c in store.campaigns() if c["name"] == campaign_name),
            None,
        )
        if row is None:
            return False, [
                f"store crosscheck: campaign {campaign_name!r} not found "
                f"in {store_path}"
            ]
        digest = row["spec_digest"]
        if row["experiments_done"] == row["experiments"]:
            lines.append(
                f"store crosscheck: campaign complete "
                f"({row['experiments_done']}/{row['experiments']} "
                f"experiments recorded)"
            )
        else:
            ok = False
            lines.append(
                f"store crosscheck: MISMATCH campaign incomplete "
                f"({row['experiments_done']}/{row['experiments']} "
                f"experiments recorded)"
            )
        winners = {
            winner["index"]: winner
            for winner in store.export_rows(digest)
        }
        matched = 0
        for incident in sorted(report.incidents, key=lambda i: i.index):
            winner = winners.get(incident.index)
            if winner is None:
                ok = False
                lines.append(
                    f"store crosscheck: MISMATCH incident "
                    f"[{incident.index}] {incident.name} has no winner "
                    f"row in the store"
                )
                continue
            if winner["name"] != incident.name:
                ok = False
                lines.append(
                    f"store crosscheck: MISMATCH index {incident.index} "
                    f"is {winner['name']!r} in the store but "
                    f"{incident.name!r} in the report"
                )
                continue
            if incident.seed is not None \
                    and winner["seed"] != incident.seed:
                ok = False
                lines.append(
                    f"store crosscheck: MISMATCH seed of "
                    f"[{incident.index}] {incident.name}: store "
                    f"{winner['seed']} vs report {incident.seed}"
                )
                continue
            matched += 1
        lines.append(
            f"store crosscheck: {matched}/{len(report.incidents)} "
            f"incident(s) matched winner rows (index, name, seed)"
        )
        if store.aggregate(digest) == store.fold_aggregate(digest):
            lines.append(
                "store crosscheck: incremental aggregate equals "
                "from-scratch fold"
            )
        else:
            ok = False
            lines.append(
                "store crosscheck: MISMATCH incremental aggregate "
                "diverges from the from-scratch fold"
            )
    return ok, lines

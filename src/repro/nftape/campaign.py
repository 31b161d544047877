"""Campaign runner: a campaign spec executed into one result table.

A campaign *is* its :class:`~repro.runtime.spec.CampaignSpec` — picklable
experiment descriptions plus a base seed.  Each experiment builds its
own fresh :class:`~repro.nftape.experiment.Testbed` (the paper's
known-good-state precondition), runs to completion, and its result row
lands in a :class:`~repro.nftape.results.ResultTable`.  Execution can be
handed to any executor, including the sharded
:class:`~repro.runtime.executors.PooledExecutor`, and results remain
bit-identical regardless of worker count (per-experiment seeds are
derived, and the executor order-merges).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.nftape.classify import classify_result
from repro.nftape.results import ExperimentResult, ResultTable
from repro.telemetry.spans import span
from repro.telemetry.state import STATE as _STATE

if TYPE_CHECKING:
    from repro.runtime.spec import CampaignSpec

#: Row builder: maps a finished result to the table columns.
RowBuilder = Callable[[ExperimentResult], Dict[str, Any]]


def default_row(result: ExperimentResult) -> Dict[str, Any]:
    """The standard campaign row: the paper's Table 4 columns plus class."""
    return {
        "experiment": result.name,
        "sent": result.messages_sent,
        "received": result.messages_received,
        "loss_rate": f"{result.loss_rate:.1%}",
        "injections": result.injections,
        "class": classify_result(result).fault_class.value,
    }


class Campaign:
    """A :class:`~repro.runtime.spec.CampaignSpec` producing one result
    table."""

    def __init__(
        self,
        spec: "CampaignSpec",
        row_builder: RowBuilder = default_row,
        on_progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self._row_builder = row_builder
        self._on_progress = on_progress
        self.results: List[ExperimentResult] = []

    @classmethod
    def from_spec(
        cls,
        spec: "CampaignSpec",
        row_builder: RowBuilder = default_row,
        on_progress: Optional[Callable[[str], None]] = None,
    ) -> "Campaign":
        """The campaign a :class:`~repro.runtime.spec.CampaignSpec`
        describes.

        The spec carries the experiment list and the base seed;
        per-experiment seeds are derived by the
        :func:`~repro.runtime.seeding.derive_seed` rule at execution
        time, inside whichever process runs each experiment.
        """
        return cls(spec, row_builder=row_builder, on_progress=on_progress)

    def __len__(self) -> int:
        return len(self.spec)

    def run(self, executor: Optional[Any] = None) -> ResultTable:
        """Run every experiment on a fresh test bed; return the table.

        ``executor`` selects *how* experiments run —
        :class:`~repro.runtime.executors.SerialExecutor` (the default)
        runs them in-process one at a time, while
        :class:`~repro.runtime.executors.PooledExecutor` shards it
        across worker processes.  Whatever the executor, results arrive
        here in experiment order, so the table (and the telemetry
        outcome counters) are identical across executors and worker
        counts.

        With an observation session active the whole run is bracketed in a
        ``campaign`` span, in-process experiments land in nested spans
        (see :meth:`Experiment.run`), and per-outcome counters
        (``campaign.experiments``, ``campaign.outcomes{fault_class=…}``)
        accumulate in the registry.
        """
        if executor is None:
            # Local import: repro.runtime sits above nftape in the
            # layering; importing it lazily keeps module import cheap
            # and the package graph acyclic.
            from repro.runtime.executors import SerialExecutor

            executor = SerialExecutor()
        table = ResultTable(self.name)
        total = len(self)
        with span("campaign", name=self.name, experiments=total):
            for _index, result in executor.execute(
                self.spec, progress=self._on_progress
            ):
                self.results.append(result)
                table.add(result, **self._row_builder(result))
                self._account(result)
        return table

    def _account(self, result: ExperimentResult) -> None:
        """Outcome counters for the active observation session, if any."""
        registry = _STATE.registry
        if registry is None:
            return
        registry.counter("campaign.experiments").inc()
        fault_class = classify_result(result).fault_class.value
        registry.counter("campaign.outcomes", fault_class=fault_class).inc()

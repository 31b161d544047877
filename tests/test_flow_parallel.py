"""FLOW2xx parallel-safety tests.

FLOW201 (frozen spec mutation), FLOW202 (worker-reachable module-level
mutable state) and FLOW203 (closures across the pickle boundary), each
with positives and the negatives that pin precision: constant tables,
local shadowing, module-level callables, and non-spec attribute stores.
"""

import textwrap
from pathlib import Path

from repro.analysis.engine import parse_module
from repro.analysis.flow.parallel import (
    FrozenSpecMutationRule,
    PickleBoundaryClosureRule,
    WorkerSharedStateRule,
)


def module_of(tmp_path: Path, relative: str, source: str):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return parse_module(path, tmp_path)


def project_of(tmp_path: Path, files: dict):
    modules = {}
    for relative, source in files.items():
        info = module_of(tmp_path, relative, source)
        modules[info.module] = info
    return modules


# ----------------------------------------------------------------------
# FLOW201 — frozen spec mutation
# ----------------------------------------------------------------------

def test_flow201_annotated_parameter_mutation(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad.py", """\
        def run(spec: ExperimentSpec):
            spec.attempts = 3
        """)
    findings = FrozenSpecMutationRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW201"]
    assert "ExperimentSpec" in findings[0].message
    assert "dataclasses.replace()" in findings[0].message


def test_flow201_constructor_assignment_then_mutation(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad2.py", """\
        def build():
            plan = PlanSpec(name="p")
            plan.shards = 4
            return plan
        """)
    findings = FrozenSpecMutationRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW201"]


def test_flow201_direct_constructor_attribute(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad3.py", """\
        def build(name):
            CampaignSpec(name=name).label = "x"
        """)
    findings = FrozenSpecMutationRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW201"]


def test_flow201_augmented_assignment(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad4.py", """\
        def bump(job: ExperimentJob):
            job.attempt += 1
        """)
    findings = FrozenSpecMutationRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW201"]


def test_flow201_non_spec_attribute_stores_are_clean(tmp_path):
    module = module_of(tmp_path, "repro/runtime/ok.py", """\
        def run(spec: ExperimentSpec, device):
            device.armed = True
            copy = dict(spec.__dict__)
            copy["attempts"] = 3
        """)
    assert FrozenSpecMutationRule().check(module) == []


# ----------------------------------------------------------------------
# FLOW202 — worker-reachable module-level mutable state
# ----------------------------------------------------------------------

def test_flow202_mutated_cache_on_worker_path(tmp_path):
    modules = project_of(tmp_path, {
        "repro/runtime/worker.py": """\
            from repro.runtime import helpers

            def execute_job(job):
                return helpers.lookup(job)
            """,
        "repro/runtime/helpers.py": """\
            _CACHE = {}

            def lookup(job):
                _CACHE[job.key] = job
                return _CACHE
            """,
        "repro/runtime/__init__.py": "",
    })
    findings = WorkerSharedStateRule().check_project(modules)
    assert [f.rule_id for f in findings] == ["FLOW202"]
    assert "_CACHE" in findings[0].message
    assert "repro.runtime.helpers" in findings[0].message


def test_flow202_mutating_method_call(tmp_path):
    modules = project_of(tmp_path, {
        "repro/runtime/worker.py": """\
            from repro.runtime.state import note

            def execute_job(job):
                note(job)
            """,
        "repro/runtime/state.py": """\
            _SEEN = []

            def note(job):
                _SEEN.append(job.key)
            """,
        "repro/runtime/__init__.py": "",
    })
    findings = WorkerSharedStateRule().check_project(modules)
    assert [f.rule_id for f in findings] == ["FLOW202"]
    assert ".append()" in findings[0].message


def test_flow202_constant_tables_are_clean(tmp_path):
    modules = project_of(tmp_path, {
        "repro/runtime/worker.py": """\
            from repro.runtime.tables import WIDTHS

            def execute_job(job):
                return WIDTHS[job.kind]
            """,
        "repro/runtime/tables.py": """\
            __all__ = ["WIDTHS"]
            WIDTHS = {"data": 9, "control": 9}

            def lookup(kind):
                return WIDTHS.get(kind)
            """,
        "repro/runtime/__init__.py": "",
    })
    assert WorkerSharedStateRule().check_project(modules) == []


def test_flow202_local_shadow_is_clean(tmp_path):
    modules = project_of(tmp_path, {
        "repro/runtime/worker.py": """\
            from repro.runtime.shadow import collect

            def execute_job(job):
                return collect(job)
            """,
        "repro/runtime/shadow.py": """\
            _SEEN = []

            def collect(job):
                _SEEN = []
                _SEEN.append(job.key)
                return _SEEN
            """,
        "repro/runtime/__init__.py": "",
    })
    assert WorkerSharedStateRule().check_project(modules) == []


def test_flow202_unreachable_module_is_clean(tmp_path):
    # A mutated module-level container in a module the worker never
    # imports is outside this rule's concern.
    modules = project_of(tmp_path, {
        "repro/runtime/worker.py": """\
            def execute_job(job):
                return job
            """,
        "repro/report/accumulator.py": """\
            _ROWS = []

            def push(row):
                _ROWS.append(row)
            """,
    })
    assert WorkerSharedStateRule().check_project(modules) == []


# ----------------------------------------------------------------------
# FLOW203 — pickle boundary closures
# ----------------------------------------------------------------------

def test_flow203_lambda_into_spec_ctor(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad5.py", """\
        def build(bits):
            return ExperimentSpec(
                name="x",
                fault=lambda s: s ^ bits,
            )
        """)
    findings = PickleBoundaryClosureRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW203"]
    assert "lambda" in findings[0].message


def test_flow203_local_function_into_executor(tmp_path):
    module = module_of(tmp_path, "repro/runtime/bad6.py", """\
        def launch(pool, jobs):
            def run(job):
                return job.execute()
            return pool.map_async(run, jobs)
        """)
    findings = PickleBoundaryClosureRule().check(module)
    assert [f.rule_id for f in findings] == ["FLOW203"]
    assert "`run`" in findings[0].message


def test_flow203_module_level_target_is_clean(tmp_path):
    # The real executor passes the module-level run_fabric_worker — the
    # picklable shape the rule is steering people toward.
    module = module_of(tmp_path, "repro/runtime/ok2.py", """\
        def launch(context, queue):
            worker = context.Process(
                target=run_fabric_worker, args=(queue,),
            )
            worker.start()
            return worker
        """)
    assert PickleBoundaryClosureRule().check(module) == []


def test_flow203_lambda_outside_boundary_is_clean(tmp_path):
    module = module_of(tmp_path, "repro/runtime/ok3.py", """\
        def order(rows):
            return sorted(rows, key=lambda r: r.shard)
        """)
    assert PickleBoundaryClosureRule().check(module) == []

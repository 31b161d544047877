"""FLOW1xx — determinism taint analysis.

simlint's SIM001/SIM002 flag nondeterminism *at the call site*; this
analysis flags it **at the output boundary**: a wall-clock read that
only feeds a log string is noise, but one that reaches a stats table, a
digest, a journal record, a ``derive_seed`` argument or a merged
telemetry metric silently breaks bit-for-bit campaign replay.  Each
function's CFG is solved to fixpoint with the :mod:`dataflow` engine,
then replayed to report every source→sink path.

Sources (the rule ID a reaching taint is reported under):

========  =============================================================
FLOW101   wall-clock reads (``time.time``/``perf_counter``/…,
          ``datetime.now``/``utcnow``/``today``)
FLOW102   unseeded randomness (``random.*`` module functions,
          ``os.urandom``, ``secrets.*``)
FLOW103   ``id()`` — CPython address, differs across runs
FLOW104   unsorted directory listings (``os.listdir``/``os.scandir``,
          ``glob.glob``/``iglob``, ``Path.iterdir``/``glob``/``rglob``)
FLOW105   set-order-dependent iteration (``for x in {…}``); ``dict``
          iteration is deliberately *not* a source — CPython dicts are
          insertion-ordered, and the codebase relies on that
========  =============================================================

``sorted(...)`` (and an in-place ``.sort()``) neutralises the two
*order* taints (FLOW104/FLOW105) — the values are fine, only their
order was unstable.

Sinks are recognised two ways: **by name** for the unambiguous entry
points (``derive_seed(...)``, ``blake2b(...)``, and the capture
writer's ``write_event``/``write_record``/``write_experiment``/
``write_framed``), and
**by tracked kind** for generic method names — a variable assigned from
``blake2b(...)`` carries kind ``digest`` so its ``.update(x)`` is a
sink, while an unrelated ``d.update(x)`` is not.  Kinds assigned to
``self.*`` attributes anywhere in a class seed the entry state of every
method of that class, so ``self._table.add(...)`` sinks even though the
constructor ran in ``__init__``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple, Union

from repro.analysis.engine import Finding, ModuleInfo, ModuleRule
from repro.analysis.flow.cfg import LoopBind, build_cfg
from repro.analysis.flow.dataflow import State, replay, solve_forward

__all__ = ["DeterminismTaintRule", "Taint"]


@dataclass(frozen=True)
class Taint:
    """One nondeterminism source: which rule, what, where."""

    rule_id: str
    detail: str
    line: int


Fact = Hashable  # Taint | "kind:<k>" strings
Facts = FrozenSet[Fact]
_EMPTY: Facts = frozenset()

#: Wall-clock attributes on the ``time`` module (FLOW101).
_WALL_TIME_ATTRS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock",
}
#: Wall-clock attributes on ``datetime``/``date`` (FLOW101).
_WALL_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Dotted call names that yield unsorted directory listings (FLOW104).
_LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
#: Method names that yield unsorted listings on path-like objects.
_LISTING_METHODS = {"iterdir", "glob", "rglob"}

#: Constructor call name -> tracked kind.
_KIND_CTORS = {
    "blake2b": "digest",
    "hashlib.blake2b": "digest",
    "sha256": "digest",
    "hashlib.sha256": "digest",
    "ResultTable": "table",
    "Journal": "journal",
    "CaptureWriter": "capture",
}
#: Method-call constructors (``registry.counter(...)`` etc.).
_KIND_METHOD_CTORS = {"counter": "metric", "gauge": "metric",
                      "histogram": "metric"}
#: kind -> method names that are sinks on values of that kind.
_KIND_SINKS = {
    "digest": {"update"},
    "table": {"add", "note"},
    "journal": {"record", "begin"},
    "capture": {"write_event", "write_record", "write_experiment",
                "write_framed"},
    "metric": {"inc", "set", "observe", "add"},
}
#: Call names that are sinks regardless of kind tracking.
_NAME_SINKS = {
    "derive_seed": "a derive_seed argument",
    "blake2b": "a blake2b digest input",
    "write_event": "a capture event record",
    "write_record": "a raw capture record",
    "write_experiment": "a capture experiment record",
    "write_framed": "pre-framed capture records",
}
#: Human labels for the kind-tracked sinks.
_KIND_SINK_LABELS = {
    "digest": "a digest input",
    "table": "a results-table entry",
    "journal": "a journal record",
    "capture": "a capture record",
    "metric": "a telemetry metric",
}

_ORDER_RULES = ("FLOW104", "FLOW105")


def _dotted(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expr(expr: ast.expr, state: State) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
    path = _dotted(expr)
    if path is not None:
        return "kind:set" in state.get(path, _EMPTY)
    return False


def _target_paths(target: ast.expr) -> List[str]:
    """The state keys a store-target binds (names and dotted paths)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        paths: List[str] = []
        for element in target.elts:
            paths.extend(_target_paths(element))
        return paths
    if isinstance(target, ast.Starred):
        return _target_paths(target.value)
    path = _dotted(target)
    return [path] if path is not None else []


class _FunctionTaint:
    """Transfer function + sink emission for one function's CFG."""

    def __init__(
        self,
        module: ModuleInfo,
        rule: "DeterminismTaintRule",
        entry_kinds: Dict[str, Facts],
    ) -> None:
        self.module = module
        self.rule = rule
        self.entry_kinds = entry_kinds
        self.emitting = False
        self.findings: List[Finding] = []
        self._emitted: Set[Tuple[int, int, str, int]] = set()

    # -- driver --------------------------------------------------------

    def run(self, func: Union[ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Module]) -> List[Finding]:
        cfg = build_cfg(func)
        entry: State = {
            path: facts for path, facts in self.entry_kinds.items()
        }
        states = solve_forward(cfg, self.transfer, entry)
        self.emitting = True
        replay(cfg, self.transfer, states)
        self.emitting = False
        return self.findings

    # -- transfer ------------------------------------------------------

    def transfer(self, stmt: object, state: State) -> State:
        out = dict(state)
        if isinstance(stmt, LoopBind):
            facts = self.expr_facts(stmt.iter, out)
            if _is_set_expr(stmt.iter, out):
                facts = facts | {Taint(
                    "FLOW105",
                    "set-order-dependent iteration",
                    stmt.lineno,
                )}
            facts = frozenset(
                f for f in facts if f != "kind:set"
            )
            for path in _target_paths(stmt.target):
                out[path] = facts
            return out
        assert isinstance(stmt, ast.stmt), stmt
        if isinstance(stmt, ast.Assign):
            facts = self.expr_facts(stmt.value, out)
            for target in stmt.targets:
                self._store(target, facts, out)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                facts = self.expr_facts(stmt.value, out)
                self._store(stmt.target, facts, out)
        elif isinstance(stmt, ast.AugAssign):
            facts = self.expr_facts(stmt.value, out)
            for path in _target_paths(stmt.target):
                out[path] = out.get(path, _EMPTY) | facts
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                # `x.sort()` neutralises the order taints on x in place.
                call = stmt.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "sort"
                ):
                    base = _dotted(call.func.value)
                    if base is not None and base in out:
                        out[base] = _strip_order(out[base])
                self.expr_facts(stmt.value, out)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.expr_facts(child, out)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for path in _target_paths(target):
                    out.pop(path, None)
        return out

    def _store(self, target: ast.expr, facts: Facts, out: State) -> None:
        if isinstance(target, ast.Subscript):
            # d[k] = tainted — the container accumulates the taint.
            self.expr_facts(target.slice, out)
            base = _dotted(target.value)
            if base is not None:
                out[base] = out.get(base, _EMPTY) | facts
            return
        paths = _target_paths(target)
        if paths:
            for path in paths:
                out[path] = facts  # strong update
        # Unresolvable targets (starred expressions into calls, etc.)
        # simply drop the facts — conservative for a may-analysis only
        # in the harmless direction (the value is not a sink).

    # -- expressions ---------------------------------------------------

    def expr_facts(self, expr: ast.expr, state: State) -> Facts:
        if isinstance(expr, ast.Call):
            return self._call_facts(expr, state)
        path = _dotted(expr)
        if path is not None:
            facts = state.get(path, _EMPTY)
            if "." in path:
                # a.b carries a's facts too (field of tainted object).
                root = path.split(".", 1)[0]
                facts = facts | state.get(root, _EMPTY)
            return facts
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            return self._comprehension_facts(expr, state)
        if isinstance(expr, ast.Lambda):
            return _EMPTY
        facts: Facts = _EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                facts = facts | self.expr_facts(child, state)
        return facts

    def _comprehension_facts(self, expr: ast.expr, state: State) -> Facts:
        """Union over element + iterables, with set-iteration taint.

        Comprehensions bind their targets expression-locally; an inner
        scope copy of the state picks up the per-generator bindings so
        the element expression sees them.
        """
        inner = dict(state)
        facts: Facts = _EMPTY
        for gen in expr.generators:  # type: ignore[attr-defined]
            iter_facts = self.expr_facts(gen.iter, inner)
            if _is_set_expr(gen.iter, inner):
                iter_facts = iter_facts | {Taint(
                    "FLOW105",
                    "set-order-dependent iteration",
                    getattr(gen.iter, "lineno", expr.lineno),
                )}
            iter_facts = frozenset(
                f for f in iter_facts if f != "kind:set"
            )
            for path in _target_paths(gen.target):
                inner[path] = iter_facts
            facts = facts | iter_facts
            for cond in gen.ifs:
                self.expr_facts(cond, inner)
        for key in ("elt", "key", "value"):
            sub = getattr(expr, key, None)
            if isinstance(sub, ast.expr):
                facts = facts | self.expr_facts(sub, inner)
        if isinstance(expr, ast.SetComp):
            facts = facts | {"kind:set"}
        return facts

    def _call_facts(self, call: ast.Call, state: State) -> Facts:
        arg_facts: Facts = _EMPTY
        for arg in call.args:
            value = arg.value if isinstance(arg, ast.Starred) else arg
            arg_facts = arg_facts | self.expr_facts(value, state)
        for keyword in call.keywords:
            arg_facts = arg_facts | self.expr_facts(keyword.value, state)

        func = call.func
        dotted = _dotted(func)

        # sorted(...) — order is now stable; value taints pass through.
        if isinstance(func, ast.Name) and func.id == "sorted":
            return _strip_order(arg_facts)

        self._check_sink(call, dotted, arg_facts, state)

        source = self._source_taint(call, dotted, state)
        if source is not None:
            return arg_facts | {source}

        if dotted in ("set", "frozenset") or isinstance(func, ast.Name) and \
                func.id in ("set", "frozenset"):
            return arg_facts | {"kind:set"}
        kind = _KIND_CTORS.get(dotted or "")
        if kind is None and isinstance(func, ast.Attribute):
            kind = (
                _KIND_CTORS.get(func.attr)
                or _KIND_METHOD_CTORS.get(func.attr)
            )
        if kind is not None:
            return arg_facts | {f"kind:{kind}"}

        # A method call on a tracked value keeps that value's facts
        # (digest.copy() is still a digest, s.union() still a set).
        if isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base is not None:
                arg_facts = arg_facts | state.get(base, _EMPTY)
            else:
                # Chained receiver: str(stamp).encode(),
                # datetime.now().isoformat() — the receiver
                # expression's facts flow through the method result.
                arg_facts = arg_facts | self.expr_facts(func.value, state)
        return arg_facts

    # -- sources -------------------------------------------------------

    def _source_taint(
        self, call: ast.Call, dotted: Optional[str], state: State
    ) -> Optional[Taint]:
        line = call.lineno
        func = call.func
        if dotted is not None:
            parts = dotted.split(".")
            if parts[0] == "time" and parts[-1] in _WALL_TIME_ATTRS:
                return Taint("FLOW101", f"wall-clock read {dotted}()", line)
            if parts[-1] in _WALL_DATETIME_ATTRS and (
                "datetime" in parts or "date" in parts
            ):
                return Taint("FLOW101", f"wall-clock read {dotted}()", line)
            if parts[0] in ("random", "secrets") and len(parts) > 1:
                return Taint(
                    "FLOW102", f"unseeded randomness {dotted}()", line
                )
            if dotted == "os.urandom":
                return Taint("FLOW102", "unseeded randomness os.urandom()",
                             line)
            if dotted in _LISTING_CALLS:
                return Taint(
                    "FLOW104", f"unsorted listing {dotted}()", line
                )
        if isinstance(func, ast.Name) and func.id == "id" and call.args:
            return Taint("FLOW103", "id() value (CPython address)", line)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LISTING_METHODS
            and not isinstance(func.value, ast.Constant)
        ):
            return Taint(
                "FLOW104", f"unsorted listing .{func.attr}()", line
            )
        return None

    # -- sinks ---------------------------------------------------------

    def _check_sink(
        self,
        call: ast.Call,
        dotted: Optional[str],
        arg_facts: Facts,
        state: State,
    ) -> None:
        if not self.emitting:
            return
        taints = [f for f in arg_facts if isinstance(f, Taint)]
        if not taints:
            return
        func = call.func
        sink_label: Optional[str] = None
        last = dotted.split(".")[-1] if dotted else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if last in _NAME_SINKS:
            sink_label = _NAME_SINKS[last]
        elif isinstance(func, ast.Attribute):
            base = _dotted(func.value)
            if base is not None:
                base_facts = state.get(base, _EMPTY)
                for kind, methods in _KIND_SINKS.items():
                    if f"kind:{kind}" in base_facts and func.attr in methods:
                        sink_label = _KIND_SINK_LABELS[kind]
                        break
        if sink_label is None:
            return
        for taint in sorted(taints, key=lambda t: (t.rule_id, t.line)):
            key = (call.lineno, call.col_offset, taint.rule_id, taint.line)
            if key in self._emitted:
                continue
            self._emitted.add(key)
            self.findings.append(Finding(
                path=str(self.module.path),
                line=call.lineno,
                col=call.col_offset,
                rule_id=taint.rule_id,
                message=(
                    f"{taint.detail} (line {taint.line}) flows into "
                    f"{sink_label}; route through the deterministic "
                    f"seed/clock machinery or sort before emitting"
                ),
            ))


def _strip_order(facts: Facts) -> Facts:
    return frozenset(
        f for f in facts
        if not (isinstance(f, Taint) and f.rule_id in _ORDER_RULES)
    )


def _class_attr_kinds(cls: ast.ClassDef) -> Dict[str, Facts]:
    """``self.x`` attributes assigned a tracked-kind constructor
    anywhere in the class — seeds every method's entry state."""
    kinds: Dict[str, Facts] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        dotted = _dotted(value.func)
        kind = _KIND_CTORS.get(dotted or "")
        if kind is None and isinstance(value.func, ast.Attribute):
            kind = (
                _KIND_CTORS.get(value.func.attr)
                or _KIND_METHOD_CTORS.get(value.func.attr)
            )
        if kind is None:
            continue
        for target in node.targets:
            path = _dotted(target)
            if path is not None and path.startswith("self."):
                kinds[path] = frozenset({f"kind:{kind}"})
    return kinds


class DeterminismTaintRule(ModuleRule):
    """FLOW101–FLOW105: nondeterminism sources reaching output sinks."""

    rule_id = "FLOW101"
    title = "no nondeterminism source may reach an output sink"

    #: ID -> title for every rule this class can report.
    rule_table = {
        "FLOW101": "no wall-clock value may reach an output sink",
        "FLOW102": "no unseeded randomness may reach an output sink",
        "FLOW103": "no id() value may reach an output sink",
        "FLOW104": "no unsorted directory listing may reach an output sink",
        "FLOW105": "no set-iteration order may reach an output sink",
    }

    def check(self, module: ModuleInfo) -> List[Finding]:
        if not module.in_package("repro"):
            return []
        findings: List[Finding] = []
        class_kinds: Dict[int, Dict[str, Facts]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                kinds = _class_attr_kinds(node)
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        class_kinds[id(sub)] = kinds
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analysis = _FunctionTaint(
                    module, self, class_kinds.get(id(node), {})
                )
                findings.extend(analysis.run(node))
        return findings

"""Strict dict/JSON codec for scenario documents.

Runs the field-driven walk of :mod:`repro.runtime.spec_codec`, with its
strictness rules, and adds only what belongs to a scenario document:
the ``scenario`` version header, the kind tables (``TOPOLOGY_KINDS``,
``TRAFFIC_KINDS``, ``FAULT_KINDS``, ``SWEEP_FIELDS``), non-empty
experiment and sweep lists, a positive ``host_rx_drain_factor``, and a
compact output: a topology writes only the fields of its kind, and
fields left at an empty default (``None``, ``""``, ``()``, ``{}``) are
omitted.  Every failure raises :class:`~repro.errors.ScenarioError`
carrying a JSON-pointer location (``/experiments/0/faults/1/kind``) so
scenario authors see exactly which node of their document is wrong.

``scenario_from_json(scenario_to_json(doc)) == doc`` holds for every
representable document.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

from repro.errors import ScenarioError
from repro.runtime.spec_codec import Walk
from repro.scenario.model import (
    FAULT_KINDS,
    SCENARIO_VERSION,
    SWEEP_FIELDS,
    TOPOLOGY_KINDS,
    TRAFFIC_KINDS,
    ScenarioDoc,
    TopologySpec,
)

__all__ = ["scenario_to_json", "scenario_from_json"]

#: The sizing fields each topology kind reads (and writes).
_TOPOLOGY_FIELDS = {
    "star": ("hosts", "ports"),
    "line": ("switches", "hosts_per_switch", "ports"),
    "tree": ("leaves", "hosts_per_leaf", "ports"),
    "custom": ("custom",),
}
_SIZING = {name for names in _TOPOLOGY_FIELDS.values() for name in names}


def _omits(obj: Any, field: dataclasses.Field, value: Any) -> bool:
    if field.name in _SIZING and isinstance(obj, TopologySpec) \
            and field.name not in _TOPOLOGY_FIELDS.get(obj.kind, ()):
        return True
    # The model's own classes drop empty defaults; an embedded injector
    # config or custom fabric is written whole, as in a spec document.
    if not (value is None or type(value) in (str, tuple, dict) and not value) \
            or type(obj).__module__ != ScenarioDoc.__module__:
        return False
    if field.default_factory is not dataclasses.MISSING:
        return value == field.default_factory()
    return value == field.default


_SCENARIO = Walk(_omits, lambda path, problem: ScenarioError(
    "/" + "/".join(str(key) for key in path), problem))


def _one_of(value: str, allowed: Tuple[str, ...], location: str) -> None:
    if value not in allowed:
        name = location.rsplit("/", 1)[-1]
        raise ScenarioError(
            location,
            f"unknown {name} {value!r}; expected one of {sorted(allowed)}"
        )


def _check(doc: ScenarioDoc) -> None:
    """The scenario document's own rules, on the decoded model."""
    topology = doc.topology
    _one_of(topology.kind, TOPOLOGY_KINDS, "/topology/kind")
    if topology.kind == "custom" and topology.custom is None:
        raise ScenarioError("/topology/custom",
                            "a custom topology needs a fabric")
    if topology.kind != "custom" and topology.custom is not None:
        raise ScenarioError(
            "/topology/custom",
            f"only kind 'custom' takes a custom fabric "
            f"(kind is {topology.kind!r})"
        )
    _one_of(doc.traffic.kind, TRAFFIC_KINDS, "/traffic/kind")
    if doc.host_rx_drain_factor is not None \
            and not doc.host_rx_drain_factor > 0:
        raise ScenarioError("/host_rx_drain_factor",
                            f"must be > 0, got {doc.host_rx_drain_factor!r}")
    if not doc.experiments:
        raise ScenarioError("/experiments",
                            "must be a non-empty list of experiments")
    for index, experiment in enumerate(doc.experiments):
        at = f"/experiments/{index}"
        if experiment.traffic is not None:
            _one_of(experiment.traffic.kind, TRAFFIC_KINDS,
                    f"{at}/traffic/kind")
        for number, fault in enumerate(experiment.faults):
            _one_of(fault.kind, FAULT_KINDS, f"{at}/faults/{number}/kind")
        if experiment.sweep is not None:
            _one_of(experiment.sweep.field, SWEEP_FIELDS,
                    f"{at}/sweep/field")
            if not experiment.sweep.values:
                raise ScenarioError(f"{at}/sweep/values",
                                    "must be a non-empty list of numbers")


def scenario_from_json(doc: Any) -> ScenarioDoc:
    """Reconstruct a :class:`ScenarioDoc` from plain JSON data.

    Strict: unknown fields, wrong types, unknown kinds, and version
    mismatches all raise :class:`~repro.errors.ScenarioError` with a
    JSON-pointer location.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("/", f"expected a JSON object, got "
                                 f"{type(doc).__name__}")
    body = dict(doc)
    version = _SCENARIO.decode(int, body.pop("scenario", SCENARIO_VERSION),
                               ("scenario",))
    if version != SCENARIO_VERSION:
        raise ScenarioError(
            "/scenario",
            f"version {version!r} is not supported "
            f"(this build speaks {SCENARIO_VERSION})"
        )
    parsed = _SCENARIO.decode(ScenarioDoc, body)
    _check(parsed)
    return parsed


def scenario_to_json(doc: ScenarioDoc) -> Dict[str, Any]:
    """The plain-JSON form of ``doc`` (round-trips losslessly)."""
    return {"scenario": SCENARIO_VERSION, **_SCENARIO.encode(doc)}

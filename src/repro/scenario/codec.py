"""Strict dict/JSON codec for scenario documents.

Mirrors :mod:`repro.runtime.spec_codec`'s error discipline, with one
upgrade: every failure raises :class:`~repro.errors.ScenarioError`
carrying a JSON-pointer-style location (``/experiments/0/faults/1/kind``)
so scenario authors see exactly which node of their document is wrong —
never a bare ``KeyError`` and never a message without an address.

``scenario_from_json(scenario_to_json(doc)) == doc`` holds for every
representable document.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError, ScenarioError
from repro.runtime.spec_codec import _decode_injector, _encode_injector
from repro.scenario.model import (
    FAULT_KINDS,
    SCENARIO_VERSION,
    SWEEP_FIELDS,
    TOPOLOGY_KINDS,
    TRAFFIC_KINDS,
    FaultSpec,
    ScenarioDoc,
    ScenarioExperiment,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.myrinet.network import FabricSpec

__all__ = ["scenario_to_json", "scenario_from_json"]

_MISSING = object()


def _require_mapping(doc: Any, location: str) -> Dict[str, Any]:
    if not isinstance(doc, dict):
        raise ScenarioError(
            location, f"expected a mapping, got {type(doc).__name__}"
        )
    return doc


def _reject_unknown(doc: Dict[str, Any], known: Tuple[str, ...],
                    location: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ScenarioError(
            location,
            f"unknown field(s) {unknown}; expected only {sorted(known)}"
        )


def _take(doc: Dict[str, Any], key: str, location: str,
          kind: type, default: Any = _MISSING,
          allow_none: bool = False) -> Any:
    """Fetch ``key`` with type enforcement and a pointered error."""
    pointer = f"{location.rstrip('/')}/{key}"
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(pointer, "is required")
        return default
    value = doc[key]
    if value is None and allow_none:
        return None
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if kind is not bool and isinstance(value, bool):
        raise ScenarioError(pointer, f"expected {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ScenarioError(
            pointer,
            f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _take_enum(doc: Dict[str, Any], key: str, location: str,
               allowed: Tuple[str, ...], default: Any = _MISSING) -> Any:
    value = _take(doc, key, location, str, default=default)
    if value is not default and value not in allowed:
        raise ScenarioError(
            f"{location}/{key}",
            f"unknown {key} {value!r}; expected one of {sorted(allowed)}"
        )
    return value


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _decode_topology(doc: Any, location: str) -> TopologySpec:
    doc = _require_mapping(doc, location)
    _reject_unknown(
        doc,
        ("kind", "hosts", "switches", "hosts_per_switch", "leaves",
         "hosts_per_leaf", "ports", "instrumented_host", "custom"),
        location,
    )
    kind = _take_enum(doc, "kind", location, TOPOLOGY_KINDS,
                      default="paper")
    kwargs: Dict[str, Any] = {"kind": kind}
    for key in ("hosts", "switches", "hosts_per_switch", "leaves",
                "hosts_per_leaf", "ports"):
        if key in doc:
            kwargs[key] = _take(doc, key, location, int)
    if "instrumented_host" in doc:
        kwargs["instrumented_host"] = _take(
            doc, "instrumented_host", location, str, allow_none=True,
            default=None,
        )
    if kind == "custom":
        custom = _require_mapping(
            doc.get("custom"), f"{location}/custom"
        )
        _reject_unknown(
            custom, ("hosts", "switches", "host_links", "trunks"),
            f"{location}/custom",
        )

        def _rows(key: str, width: int) -> Tuple[tuple, ...]:
            raw = custom.get(key, [])
            if not isinstance(raw, list) or any(
                not isinstance(row, list) or len(row) != width
                for row in raw
            ):
                raise ScenarioError(
                    f"{location}/custom/{key}",
                    f"must be a list of {width}-element lists"
                )
            return tuple(tuple(row) for row in raw)

        hosts = custom.get("hosts")
        if not isinstance(hosts, list) or any(
            not isinstance(h, str) for h in hosts
        ):
            raise ScenarioError(
                f"{location}/custom/hosts", "must be a list of host names"
            )
        try:
            kwargs["custom"] = FabricSpec(
                hosts=tuple(hosts),
                switches=tuple(
                    (str(n), int(p)) for n, p in _rows("switches", 2)
                ),
                host_links=tuple(
                    (str(h), str(s), int(p))
                    for h, s, p in _rows("host_links", 3)
                ),
                trunks=tuple(
                    (str(a), int(pa), str(b), int(pb))
                    for a, pa, b, pb in _rows("trunks", 4)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{location}/custom", str(exc)) from None
    elif "custom" in doc:
        raise ScenarioError(
            f"{location}/custom",
            f"only kind 'custom' takes a custom fabric (kind is {kind!r})"
        )
    return TopologySpec(**kwargs)


def _decode_traffic(doc: Any, location: str) -> TrafficSpec:
    doc = _require_mapping(doc, location)
    _reject_unknown(
        doc,
        ("kind", "payload_size", "send_interval_us", "burst_max",
         "burst_alpha", "flood_ping", "map_interval_ms"),
        location,
    )
    kwargs: Dict[str, Any] = {
        "kind": _take_enum(doc, "kind", location, TRAFFIC_KINDS,
                           default="paper"),
    }
    for key in ("payload_size", "burst_max"):
        if key in doc:
            kwargs[key] = _take(doc, key, location, int)
    for key in ("send_interval_us", "burst_alpha", "map_interval_ms"):
        if key in doc:
            kwargs[key] = _take(doc, key, location, float)
    if "flood_ping" in doc:
        kwargs["flood_ping"] = _take(doc, "flood_ping", location, bool)
    return TrafficSpec(**kwargs)


def _decode_fault(doc: Any, location: str) -> FaultSpec:
    doc = _require_mapping(doc, location)
    _reject_unknown(
        doc,
        ("id", "kind", "direction", "swap", "config", "use_serial",
         "rearm_interval_us", "on_us", "off_us", "interval_us",
         "mean_interval_us", "seed", "flip_control_bit_probability"),
        location,
    )
    kwargs: Dict[str, Any] = {
        "id": _take(doc, "id", location, str),
        "kind": _take_enum(doc, "kind", location, FAULT_KINDS,
                           default="fault"),
    }
    if "direction" in doc:
        kwargs["direction"] = _take(doc, "direction", location, str)
    if "swap" in doc:
        swap = doc["swap"]
        if (not isinstance(swap, list) or len(swap) != 2
                or any(not isinstance(s, str) for s in swap)):
            raise ScenarioError(
                f"{location}/swap",
                "must be a [SOURCE, TARGET] pair of control symbol names"
            )
        kwargs["swap"] = (swap[0], swap[1])
    if "config" in doc and doc["config"] is not None:
        try:
            kwargs["config"] = _decode_injector(doc["config"], "config")
        except ConfigurationError as exc:
            raise ScenarioError(f"{location}/config", str(exc)) from None
    if "use_serial" in doc:
        kwargs["use_serial"] = _take(doc, "use_serial", location, bool)
    if "rearm_interval_us" in doc:
        kwargs["rearm_interval_us"] = _take(
            doc, "rearm_interval_us", location, float, allow_none=True,
            default=None,
        )
    for key in ("on_us", "off_us", "interval_us", "mean_interval_us",
                "flip_control_bit_probability"):
        if key in doc:
            kwargs[key] = _take(doc, key, location, float)
    if "seed" in doc:
        kwargs["seed"] = _take(doc, "seed", location, int,
                               allow_none=True, default=None)
    return FaultSpec(**kwargs)


def _decode_sweep(doc: Any, location: str) -> SweepSpec:
    doc = _require_mapping(doc, location)
    _reject_unknown(doc, ("field", "values"), location)
    name = _take(doc, "field", location, str)
    if name not in SWEEP_FIELDS:
        raise ScenarioError(
            f"{location}/field",
            f"unknown sweep field {name!r}; "
            f"expected one of {sorted(SWEEP_FIELDS)}"
        )
    values = doc.get("values")
    if (not isinstance(values, list) or not values or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in values)):
        raise ScenarioError(
            f"{location}/values", "must be a non-empty list of numbers"
        )
    return SweepSpec(field=name, values=tuple(float(v) for v in values))


def _decode_experiment(doc: Any, location: str) -> ScenarioExperiment:
    doc = _require_mapping(doc, location)
    _reject_unknown(
        doc,
        ("name", "faults", "traffic", "duration_ms", "drain_ms",
         "sweep", "params"),
        location,
    )
    kwargs: Dict[str, Any] = {
        "name": _take(doc, "name", location, str),
    }
    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        raise ScenarioError(f"{location}/faults", "must be a list")
    kwargs["faults"] = tuple(
        _decode_fault(entry, f"{location}/faults/{index}")
        for index, entry in enumerate(faults)
    )
    if doc.get("traffic") is not None:
        kwargs["traffic"] = _decode_traffic(
            doc["traffic"], f"{location}/traffic"
        )
    for key in ("duration_ms", "drain_ms"):
        if key in doc:
            kwargs[key] = _take(doc, key, location, float,
                                allow_none=True, default=None)
    if doc.get("sweep") is not None:
        kwargs["sweep"] = _decode_sweep(doc["sweep"], f"{location}/sweep")
    if "params" in doc:
        params = _require_mapping(doc["params"], f"{location}/params")
        for key, value in params.items():
            if value is not None and not isinstance(
                value, (bool, int, float, str)
            ):
                raise ScenarioError(
                    f"{location}/params/{key}",
                    "params carry scalars only"
                )
        kwargs["params"] = dict(params)
    return ScenarioExperiment(**kwargs)


def scenario_from_json(doc: Any) -> ScenarioDoc:
    """Reconstruct a :class:`ScenarioDoc` from plain JSON data.

    Strict: unknown fields, wrong types, unknown kinds, and version
    mismatches all raise :class:`~repro.errors.ScenarioError` with a
    JSON-pointer location.
    """
    doc = _require_mapping(doc, "/")
    _reject_unknown(
        doc,
        ("scenario", "name", "description", "seed", "capture", "topology",
         "traffic", "duration_ms", "drain_ms", "settle_ms",
         "experiments", "host_rx_drain_factor"),
        "/",
    )
    version = _take(doc, "scenario", "/", int, default=SCENARIO_VERSION)
    if version != SCENARIO_VERSION:
        raise ScenarioError(
            "/scenario",
            f"version {version!r} is not supported "
            f"(this build speaks {SCENARIO_VERSION})"
        )
    kwargs: Dict[str, Any] = {
        "name": _take(doc, "name", "/", str),
    }
    if "description" in doc:
        kwargs["description"] = _take(doc, "description", "/", str)
    if "seed" in doc:
        kwargs["seed"] = _take(doc, "seed", "/", int)
    if "capture" in doc:
        kwargs["capture"] = _take(doc, "capture", "/", bool)
    if doc.get("topology") is not None:
        kwargs["topology"] = _decode_topology(doc["topology"], "/topology")
    if doc.get("traffic") is not None:
        kwargs["traffic"] = _decode_traffic(doc["traffic"], "/traffic")
    for key in ("duration_ms", "drain_ms", "settle_ms"):
        if key in doc:
            kwargs[key] = _take(doc, key, "/", float)
    if "host_rx_drain_factor" in doc:
        factor = _take(doc, "host_rx_drain_factor", "/", float)
        if not factor > 0:
            raise ScenarioError(
                "/host_rx_drain_factor", f"must be > 0, got {factor!r}"
            )
        kwargs["host_rx_drain_factor"] = factor
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list) or not experiments:
        raise ScenarioError(
            "/experiments", "must be a non-empty list of experiments"
        )
    kwargs["experiments"] = tuple(
        _decode_experiment(entry, f"/experiments/{index}")
        for index, entry in enumerate(experiments)
    )
    return ScenarioDoc(**kwargs)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _prune(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` values — absent and null decode identically."""
    return {key: value for key, value in doc.items() if value is not None}


def _encode_topology(topology: TopologySpec) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"kind": topology.kind}
    if topology.kind == "star":
        doc["hosts"] = topology.hosts
        doc["ports"] = topology.ports
    elif topology.kind == "line":
        doc["switches"] = topology.switches
        doc["hosts_per_switch"] = topology.hosts_per_switch
        doc["ports"] = topology.ports
    elif topology.kind == "tree":
        doc["leaves"] = topology.leaves
        doc["hosts_per_leaf"] = topology.hosts_per_leaf
        doc["ports"] = topology.ports
    elif topology.kind == "custom" and topology.custom is not None:
        doc["custom"] = {
            "hosts": list(topology.custom.hosts),
            "switches": [list(s) for s in topology.custom.switches],
            "host_links": [list(l) for l in topology.custom.host_links],
            "trunks": [list(t) for t in topology.custom.trunks],
        }
    if topology.instrumented_host is not None:
        doc["instrumented_host"] = topology.instrumented_host
    return doc


def _encode_traffic(traffic: TrafficSpec) -> Dict[str, Any]:
    return _prune({
        "kind": traffic.kind,
        "payload_size": traffic.payload_size,
        "send_interval_us": traffic.send_interval_us,
        "burst_max": traffic.burst_max,
        "burst_alpha": traffic.burst_alpha,
        "flood_ping": traffic.flood_ping,
        "map_interval_ms": traffic.map_interval_ms,
    })


def _encode_fault(fault: FaultSpec) -> Dict[str, Any]:
    doc = _prune({
        "id": fault.id,
        "kind": fault.kind,
        "direction": fault.direction,
        "swap": None if fault.swap is None else list(fault.swap),
        "config": (
            None if fault.config is None
            else _encode_injector(fault.config)
        ),
        "rearm_interval_us": fault.rearm_interval_us,
        "seed": fault.seed,
    })
    doc["use_serial"] = fault.use_serial
    doc["on_us"] = fault.on_us
    doc["off_us"] = fault.off_us
    doc["interval_us"] = fault.interval_us
    doc["mean_interval_us"] = fault.mean_interval_us
    doc["flip_control_bit_probability"] = (
        fault.flip_control_bit_probability
    )
    return doc


def _encode_experiment(experiment: ScenarioExperiment) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"name": experiment.name}
    if experiment.faults:
        doc["faults"] = [_encode_fault(f) for f in experiment.faults]
    if experiment.traffic is not None:
        doc["traffic"] = _encode_traffic(experiment.traffic)
    if experiment.duration_ms is not None:
        doc["duration_ms"] = experiment.duration_ms
    if experiment.drain_ms is not None:
        doc["drain_ms"] = experiment.drain_ms
    if experiment.sweep is not None:
        doc["sweep"] = {
            "field": experiment.sweep.field,
            "values": list(experiment.sweep.values),
        }
    if experiment.params:
        doc["params"] = dict(experiment.params)
    return doc


def scenario_to_json(doc: ScenarioDoc) -> Dict[str, Any]:
    """The plain-JSON form of ``doc`` (round-trips losslessly)."""
    out: Dict[str, Any] = {
        "scenario": SCENARIO_VERSION,
        "name": doc.name,
    }
    if doc.description:
        out["description"] = doc.description
    out["seed"] = doc.seed
    out["capture"] = doc.capture
    out["topology"] = _encode_topology(doc.topology)
    out["traffic"] = _encode_traffic(doc.traffic)
    out["duration_ms"] = doc.duration_ms
    out["drain_ms"] = doc.drain_ms
    out["settle_ms"] = doc.settle_ms
    if doc.host_rx_drain_factor is not None:
        out["host_rx_drain_factor"] = doc.host_rx_drain_factor
    out["experiments"] = [
        _encode_experiment(e) for e in doc.experiments
    ]
    return out

"""Lossless JSON codec for campaign specs — the one JSON form of a
campaign.

``spec_to_json`` serializes a :class:`~repro.runtime.spec.CampaignSpec`
(plans, injector registers, workload, test-bed options, fabric wiring)
into plain JSON, and ``spec_from_json`` reconstructs an **equal** spec —
``spec_from_json(spec_to_json(s)) == s`` holds for every representable
spec.  The same document is the wire format of the monitoring service
(``POST /campaigns``), what ``scenario compile --json`` prints, what
:func:`~repro.runtime.store.spec_digest` hashes, and the ``spec.json``
the executors drop into an artifacts root for offline analyzers
(``repro.insight``).  So a campaign submitted over HTTP runs
byte-identically to the same spec run offline through :mod:`repro.api`.

The codec is strict on decode: unknown keys, malformed enum values, or
non-JSON-representable kwargs raise
:class:`~repro.errors.ConfigurationError` with a path-qualified message
(the server surfaces it as the HTTP 400 body), never a bare
``KeyError``.  One non-scalar kwarg is special-cased because the CLI
campaign uses it: ``device_kwargs["monitor_config"]`` round-trips as a
``{"enabled", "pre_symbols", "post_symbols"}`` object.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.core.monitor import MonitorConfig
from repro.errors import ConfigurationError
from repro.hw.registers import CorruptMode, InjectorConfig, MatchMode
from repro.myrinet.network import FabricSpec
from repro.nftape.experiment import TestbedOptions
from repro.nftape.workload import WorkloadConfig
from repro.runtime.spec import CampaignSpec, ExperimentSpec, PlanSpec

__all__ = ["SPEC_CODEC_VERSION", "spec_to_json", "spec_from_json"]

#: Wire-format version (bump on incompatible layout changes).
SPEC_CODEC_VERSION = 1

_SCALARS = (bool, int, float, str, type(None))


def _check_kwargs(mapping: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Validate a kwargs dict as JSON-scalar-only (codec-representable)."""
    out: Dict[str, Any] = {}
    for key, value in mapping.items():
        if not isinstance(value, _SCALARS):
            raise ConfigurationError(
                f"{path}[{key!r}] is not JSON-representable "
                f"({type(value).__name__}); the spec codec carries "
                "scalar kwargs only"
            )
        out[str(key)] = value
    return out


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _encode_injector(config: InjectorConfig) -> Dict[str, Any]:
    doc = dataclasses.asdict(config)
    doc["match_mode"] = config.match_mode.value
    doc["corrupt_mode"] = config.corrupt_mode.value
    return doc


def _encode_plan(plan: PlanSpec) -> Dict[str, Any]:
    return {
        "kind": plan.kind,
        "direction": plan.direction,
        "config": (
            None if plan.config is None
            else _encode_injector(plan.config)
        ),
        "use_serial": plan.use_serial,
        "rearm_interval_ps": plan.rearm_interval_ps,
        "on_ps": plan.on_ps,
        "off_ps": plan.off_ps,
        "interval_ps": plan.interval_ps,
        "mean_interval_ps": plan.mean_interval_ps,
        "seed": plan.seed,
        "flip_control_bit_probability": plan.flip_control_bit_probability,
    }


def _encode_workload(workload: WorkloadConfig) -> Dict[str, Any]:
    return {
        "payload_size": workload.payload_size,
        "send_interval_ps": workload.send_interval_ps,
        "flood_ping": workload.flood_ping,
        "forbidden_bytes": sorted(workload.forbidden_bytes),
        "stack_kwargs": _check_kwargs(
            workload.stack_kwargs, "workload.stack_kwargs"
        ),
        "burst_max": workload.burst_max,
        "burst_alpha": workload.burst_alpha,
    }


def _encode_fabric(fabric: FabricSpec) -> Dict[str, Any]:
    return {
        "hosts": list(fabric.hosts),
        "switches": [list(entry) for entry in fabric.switches],
        "host_links": [list(entry) for entry in fabric.host_links],
        "trunks": [list(entry) for entry in fabric.trunks],
    }


def _encode_device_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in kwargs.items():
        if key == "monitor_config" and isinstance(value, MonitorConfig):
            out[key] = {
                "enabled": value.enabled,
                "pre_symbols": value.pre_symbols,
                "post_symbols": value.post_symbols,
            }
        elif isinstance(value, _SCALARS):
            out[str(key)] = value
        else:
            raise ConfigurationError(
                f"testbed.device_kwargs[{key!r}] is not "
                f"JSON-representable ({type(value).__name__})"
            )
    return out


def _encode_testbed(testbed: TestbedOptions) -> Dict[str, Any]:
    return {
        "seed": testbed.seed,
        "instrumented_host": testbed.instrumented_host,
        "with_device": testbed.with_device,
        "char_period_ps": testbed.char_period_ps,
        "map_interval_ps": testbed.map_interval_ps,
        "mcp_reply_timeout_ps": testbed.mcp_reply_timeout_ps,
        "mcp_initial_delay_ps": testbed.mcp_initial_delay_ps,
        "settle_ps": testbed.settle_ps,
        "pipeline_depth": testbed.pipeline_depth,
        "device_kwargs": _encode_device_kwargs(testbed.device_kwargs),
        "host_kwargs": _check_kwargs(
            testbed.host_kwargs, "testbed.host_kwargs"
        ),
        "switch_kwargs": _check_kwargs(
            testbed.switch_kwargs, "testbed.switch_kwargs"
        ),
        "long_timeout_periods": testbed.long_timeout_periods,
        "topology": (
            None if testbed.topology is None
            else _encode_fabric(testbed.topology)
        ),
    }


def _encode_experiment(experiment: ExperimentSpec) -> Dict[str, Any]:
    return {
        "name": experiment.name,
        "duration_ps": experiment.duration_ps,
        "drain_ps": experiment.drain_ps,
        "plan": (
            None if experiment.plan is None
            else _encode_plan(experiment.plan)
        ),
        "workload": (
            None if experiment.workload is None
            else _encode_workload(experiment.workload)
        ),
        "testbed": (
            None if experiment.testbed is None
            else _encode_testbed(experiment.testbed)
        ),
        "params": _check_kwargs(experiment.params, "experiment.params"),
        "extra_plans": [
            _encode_plan(plan) for plan in experiment.extra_plans
        ],
    }


def spec_to_json(spec: CampaignSpec) -> Dict[str, Any]:
    """The complete JSON document describing ``spec`` (re-runnable)."""
    return {
        "codec": "repro.runtime.spec_codec",
        "version": SPEC_CODEC_VERSION,
        "name": spec.name,
        "base_seed": spec.base_seed,
        "experiments": [
            _encode_experiment(experiment)
            for experiment in spec.experiments
        ],
    }


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _require_mapping(doc: Any, path: str) -> Dict[str, Any]:
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{path} must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _take_int(doc: Dict[str, Any], key: str, path: str,
              default: Optional[int] = None,
              required: bool = False) -> Any:
    if key not in doc:
        if required:
            raise ConfigurationError(f"{path}.{key} is required")
        return default
    value = doc[key]
    if value is None and not required:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{path}.{key} must be an integer, got {type(value).__name__}"
        )
    return value


def _decode_injector(doc: Any, path: str) -> InjectorConfig:
    doc = _require_mapping(doc, path)
    kwargs: Dict[str, Any] = {}
    try:
        if "match_mode" in doc:
            kwargs["match_mode"] = MatchMode(doc["match_mode"])
        if "corrupt_mode" in doc:
            kwargs["corrupt_mode"] = CorruptMode(doc["corrupt_mode"])
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    for field in ("compare_data", "compare_mask", "compare_ctl",
                  "compare_ctl_mask", "corrupt_data", "corrupt_mask",
                  "corrupt_ctl", "corrupt_ctl_mask"):
        value = _take_int(doc, field, path)
        if value is not None:
            kwargs[field] = value
    if "crc_fixup" in doc:
        kwargs["crc_fixup"] = bool(doc["crc_fixup"])
    known = set(kwargs) | {"match_mode", "corrupt_mode", "crc_fixup"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")
    return InjectorConfig(**kwargs)


def _decode_plan(doc: Any, path: str) -> PlanSpec:
    doc = _require_mapping(doc, path)
    unknown = sorted(
        set(doc) - {"kind", "direction", "config", "use_serial",
                    "rearm_interval_ps", "on_ps", "off_ps", "interval_ps",
                    "mean_interval_ps", "seed",
                    "flip_control_bit_probability"}
    )
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")
    if "kind" not in doc or "direction" not in doc:
        raise ConfigurationError(
            f"{path}.kind and {path}.direction are required"
        )
    kwargs: Dict[str, Any] = {}
    if "use_serial" in doc:
        kwargs["use_serial"] = bool(doc["use_serial"])
    kwargs["rearm_interval_ps"] = _take_int(doc, "rearm_interval_ps", path)
    for field in ("on_ps", "off_ps", "interval_ps", "mean_interval_ps",
                  "seed"):
        value = _take_int(doc, field, path)
        if value is not None:
            kwargs[field] = value
    if "flip_control_bit_probability" in doc:
        value = doc["flip_control_bit_probability"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{path}.flip_control_bit_probability must be a number, "
                f"got {type(value).__name__}"
            )
        kwargs["flip_control_bit_probability"] = float(value)
    # An *absent* config keeps the historical default-injector decode;
    # an explicit null means "no config" (the seu kind).
    config = doc.get("config", {})
    return PlanSpec(
        str(doc["kind"]), str(doc["direction"]),
        (None if config is None
         else _decode_injector(config, f"{path}.config")),
        **kwargs,
    )


def _decode_workload(doc: Any, path: str) -> WorkloadConfig:
    doc = _require_mapping(doc, path)
    unknown = sorted(
        set(doc) - {"payload_size", "send_interval_ps", "flood_ping",
                    "forbidden_bytes", "stack_kwargs", "burst_max",
                    "burst_alpha"}
    )
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")
    kwargs: Dict[str, Any] = {}
    for field in ("payload_size", "send_interval_ps", "burst_max"):
        value = _take_int(doc, field, path)
        if value is not None:
            kwargs[field] = value
    if "burst_alpha" in doc:
        value = doc["burst_alpha"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"{path}.burst_alpha must be a number, "
                f"got {type(value).__name__}"
            )
        kwargs["burst_alpha"] = float(value)
    if "flood_ping" in doc:
        kwargs["flood_ping"] = bool(doc["flood_ping"])
    if "forbidden_bytes" in doc:
        raw = doc["forbidden_bytes"]
        if not isinstance(raw, list):
            raise ConfigurationError(
                f"{path}.forbidden_bytes must be a list of ints"
            )
        kwargs["forbidden_bytes"] = {int(b) for b in raw}
    if "stack_kwargs" in doc:
        kwargs["stack_kwargs"] = dict(
            _require_mapping(doc["stack_kwargs"], f"{path}.stack_kwargs")
        )
    return WorkloadConfig(**kwargs)


def _decode_testbed(doc: Any, path: str) -> TestbedOptions:
    doc = _require_mapping(doc, path)
    # ``pipeline`` is the retired data-path selector: documents written
    # while it existed still carry it, and it is ignored.
    unknown = sorted(
        set(doc) - {"seed", "instrumented_host", "with_device",
                    "char_period_ps", "map_interval_ps",
                    "mcp_reply_timeout_ps", "mcp_initial_delay_ps",
                    "settle_ps", "pipeline_depth", "pipeline",
                    "device_kwargs", "host_kwargs", "switch_kwargs",
                    "long_timeout_periods", "topology"}
    )
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")
    kwargs: Dict[str, Any] = {}
    for field in ("seed", "char_period_ps", "map_interval_ps",
                  "mcp_reply_timeout_ps", "mcp_initial_delay_ps",
                  "settle_ps", "pipeline_depth"):
        value = _take_int(doc, field, path)
        if value is not None:
            kwargs[field] = value
    if "instrumented_host" in doc:
        kwargs["instrumented_host"] = str(doc["instrumented_host"])
    if "with_device" in doc:
        kwargs["with_device"] = bool(doc["with_device"])
    if "long_timeout_periods" in doc:
        kwargs["long_timeout_periods"] = _take_int(
            doc, "long_timeout_periods", path
        )
    if "device_kwargs" in doc:
        device_kwargs = dict(
            _require_mapping(doc["device_kwargs"], f"{path}.device_kwargs")
        )
        monitor = device_kwargs.get("monitor_config")
        if monitor is not None:
            monitor = _require_mapping(
                monitor, f"{path}.device_kwargs.monitor_config"
            )
            device_kwargs["monitor_config"] = MonitorConfig(
                enabled=bool(monitor.get("enabled", False)),
                pre_symbols=int(monitor.get("pre_symbols", 32)),
                post_symbols=int(monitor.get("post_symbols", 32)),
            )
        kwargs["device_kwargs"] = device_kwargs
    for field in ("host_kwargs", "switch_kwargs"):
        if field in doc:
            kwargs[field] = dict(
                _require_mapping(doc[field], f"{path}.{field}")
            )
    if doc.get("topology") is not None:
        kwargs["topology"] = _decode_fabric(
            doc["topology"], f"{path}.topology"
        )
    return TestbedOptions(**kwargs)


def _decode_fabric(doc: Any, path: str) -> FabricSpec:
    doc = _require_mapping(doc, path)
    unknown = sorted(
        set(doc) - {"hosts", "switches", "host_links", "trunks"}
    )
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")

    def _rows(key: str, width: int, required: bool) -> list:
        raw = doc.get(key, None if required else [])
        if raw is None and required:
            raise ConfigurationError(f"{path}.{key} is required")
        if not isinstance(raw, list) or any(
            not isinstance(row, list) or len(row) != width
            for row in raw
        ):
            raise ConfigurationError(
                f"{path}.{key} must be a list of {width}-element lists"
            )
        return raw

    hosts = doc.get("hosts")
    if not isinstance(hosts, list) or any(
        not isinstance(h, str) for h in hosts
    ):
        raise ConfigurationError(
            f"{path}.hosts must be a list of host names"
        )
    fabric = FabricSpec(
        hosts=tuple(hosts),
        switches=tuple(
            (str(name), int(ports))
            for name, ports in _rows("switches", 2, required=True)
        ),
        host_links=tuple(
            (str(host), str(switch), int(port))
            for host, switch, port in _rows("host_links", 3, required=True)
        ),
        trunks=tuple(
            (str(a), int(pa), str(b), int(pb))
            for a, pa, b, pb in _rows("trunks", 4, required=False)
        ),
    )
    try:
        fabric.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return fabric


def _decode_experiment(doc: Any, path: str) -> ExperimentSpec:
    doc = _require_mapping(doc, path)
    unknown = sorted(
        set(doc) - {"name", "duration_ps", "drain_ps", "plan", "workload",
                    "testbed", "params", "extra_plans"}
    )
    if unknown:
        raise ConfigurationError(f"{path}: unknown field(s) {unknown}")
    if "name" not in doc:
        raise ConfigurationError(f"{path}.name is required")
    duration_ps = _take_int(doc, "duration_ps", path, required=True)
    kwargs: Dict[str, Any] = {}
    drain_ps = _take_int(doc, "drain_ps", path)
    if drain_ps is not None:
        kwargs["drain_ps"] = drain_ps
    if doc.get("plan") is not None:
        kwargs["plan"] = _decode_plan(doc["plan"], f"{path}.plan")
    if doc.get("workload") is not None:
        kwargs["workload"] = _decode_workload(
            doc["workload"], f"{path}.workload"
        )
    if doc.get("testbed") is not None:
        kwargs["testbed"] = _decode_testbed(
            doc["testbed"], f"{path}.testbed"
        )
    if "params" in doc:
        kwargs["params"] = dict(
            _require_mapping(doc["params"], f"{path}.params")
        )
    if doc.get("extra_plans"):
        extra = doc["extra_plans"]
        if not isinstance(extra, list):
            raise ConfigurationError(
                f"{path}.extra_plans must be a list"
            )
        kwargs["extra_plans"] = tuple(
            _decode_plan(entry, f"{path}.extra_plans[{index}]")
            for index, entry in enumerate(extra)
        )
    return ExperimentSpec(str(doc["name"]), duration_ps, **kwargs)


def spec_from_json(doc: Any) -> CampaignSpec:
    """Reconstruct the :class:`CampaignSpec` a :func:`spec_to_json`
    document describes (strict: malformed input raises
    :class:`ConfigurationError`, never ``KeyError``)."""
    doc = _require_mapping(doc, "spec")
    version = doc.get("version", SPEC_CODEC_VERSION)
    if version != SPEC_CODEC_VERSION:
        raise ConfigurationError(
            f"spec codec version {version!r} is not supported "
            f"(this build speaks {SPEC_CODEC_VERSION})"
        )
    if "name" not in doc:
        raise ConfigurationError("spec.name is required")
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigurationError("spec.experiments must be a list")
    specs = [
        _decode_experiment(entry, f"spec.experiments[{index}]")
        for index, entry in enumerate(experiments)
    ]
    base_seed = _take_int(doc, "base_seed", "spec", default=0)
    return CampaignSpec(
        str(doc["name"]), specs, base_seed=int(base_seed or 0)
    )

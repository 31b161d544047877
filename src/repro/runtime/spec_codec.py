"""Lossless JSON codec for campaign specs — the one JSON form of a
campaign — and the field-driven walk every document codec shares.

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

Neither direction lists fields by hand: :class:`Walk` follows the
dataclass fields.  Encoding writes enums by value, sets as sorted lists,
tuples as lists and nested dataclasses as objects.  Decoding resolves
each class's field types once and enforces them strictly: ``int``
rejects ``bool``, ``float`` accepts ``int``, ``bool`` accepts only
``true``/``false``, and kwargs dicts (``host_kwargs``, ``params``, ...)
hold JSON scalars only, on decode as on encode.  The one non-scalar
kwarg is ``monitor_config`` (the CLI campaign's capture settings), which
travels as a :class:`~repro.core.monitor.MonitorConfig` object.  Every
failure raises :class:`~repro.errors.ConfigurationError` naming the
path (``spec.experiments[0].plan.use_serial``) — the server's HTTP 400
body — never a bare ``KeyError``.  The scenario codec
(:mod:`repro.scenario.codec`) runs the same walk.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from enum import Enum
from typing import Any, Callable, Dict, Tuple, Union

from repro.core.monitor import MonitorConfig
from repro.errors import ConfigurationError
from repro.runtime.spec import CampaignSpec

__all__ = ["SPEC_CODEC_VERSION", "spec_to_json", "spec_from_json", "Walk"]

#: Wire-format version (bump on incompatible layout changes).
SPEC_CODEC_VERSION = 1

_SCALARS = (bool, int, float, str, type(None))
#: Kwargs that carry a dataclass instead of a JSON scalar.
_KWARG_TYPES = {"monitor_config": MonitorConfig}

_Path = Tuple[Union[str, int], ...]
_Decoder = Callable[[Any, _Path, "Walk"], Any]


def _kind(value: Any) -> str:
    return type(value).__name__


class Walk:
    """The field-driven encode/decode walk.

    A document supplies the only two things that differ between codecs:
    ``omits(obj, field, value)`` says which fields its JSON leaves out,
    and ``error(path, problem)`` builds the exception naming a path (a
    tuple of keys and list indices).
    """

    def __init__(self, omits: Callable[[Any, dataclasses.Field, Any], bool],
                 error: Callable[[_Path, str], Exception]) -> None:
        self.omits = omits
        self.error = error

    def encode(self, value: Any, path: _Path = ()) -> Any:
        if isinstance(value, _SCALARS):
            return value
        if isinstance(value, Enum):
            return value.value
        fields = _fields_of(type(value))
        if fields:
            out = {}
            for field in fields:
                item = getattr(value, field.name)
                if not self.omits(value, field, item):
                    out[field.name] = self.encode(item, path + (field.name,))
            return out
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        if isinstance(value, (tuple, list)):
            return [self.encode(item, path + (index,))
                    for index, item in enumerate(value)]
        if isinstance(value, dict):
            out = {}
            for key, item in value.items():
                if isinstance(item, _SCALARS + (_KWARG_TYPES.get(key, ()),)):
                    out[str(key)] = self.encode(item, path + (key,))
                else:
                    raise self.error(
                        path + (key,),
                        f"holds JSON scalars only, got {_kind(item)}"
                    )
            return out
        raise self.error(path, f"cannot encode {_kind(value)}")

    def decode(self, kind: Any, data: Any, path: _Path = ()) -> Any:
        return _decoder(kind)(data, path, self)


@functools.lru_cache(maxsize=None)
def _fields_of(cls: type) -> Tuple[dataclasses.Field, ...]:
    return dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()


@functools.lru_cache(maxsize=None)
def _decoder(kind: Any) -> _Decoder:
    """The decode function of a field type (built once per type)."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Union:  # Optional[X]
        inner = _decoder(next(a for a in args if a is not type(None)))
        return lambda data, path, walk: (
            None if data is None else inner(data, path, walk))
    if origin is dict:
        return _decode_kwargs
    if origin in (tuple, set):
        many = origin is set or args[-1] is Ellipsis
        items = [_decoder(arg) for arg in (args[:1] if many else args)]

        def _sequence(data: Any, path: _Path, walk: Walk) -> Any:
            if not isinstance(data, list) or not (
                    many or len(data) == len(items)):
                shape = "a list" if many else f"{len(items)} items"
                got = (f"{len(data)}" if isinstance(data, list)
                       else _kind(data))
                raise walk.error(path, f"expected {shape}, got {got}")
            return origin(
                items[0 if many else index](item, path + (index,), walk)
                for index, item in enumerate(data)
            )
        return _sequence
    if dataclasses.is_dataclass(kind):
        return lambda data, path, walk: _decode_object(kind, data, path, walk)
    if issubclass(kind, Enum):
        def _enum(data: Any, path: _Path, walk: Walk) -> Any:
            try:
                return kind(data)
            except ValueError as exc:
                raise walk.error(path, str(exc)) from None
        return _enum

    def _scalar(data: Any, path: _Path, walk: Walk) -> Any:
        if isinstance(data, bool) is (kind is bool):
            if isinstance(data, kind):
                return data
            if kind is float and isinstance(data, int):
                return float(data)
        raise walk.error(path, f"expected {kind.__name__}, got {_kind(data)}")
    return _scalar


@functools.lru_cache(maxsize=None)
def _object_fields(cls: type) -> Dict[str, Tuple[_Decoder, bool]]:
    """``name -> (decoder, required)`` for a dataclass, resolved once."""
    hints = typing.get_type_hints(cls)
    return {
        field.name: (
            _decoder(hints[field.name]),
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    }


def _decode_object(cls: type, data: Any, path: _Path, walk: Walk) -> Any:
    if not isinstance(data, dict):
        raise walk.error(path, f"expected a JSON object, got {_kind(data)}")
    fields = _object_fields(cls)
    unknown = sorted(str(key) for key in data if key not in fields)
    if unknown:
        raise walk.error(
            path, f"unknown field(s) {unknown}; expected only {sorted(fields)}"
        )
    kwargs = {}
    for name, (decode, required) in fields.items():
        if name in data:
            kwargs[name] = decode(data[name], path + (name,), walk)
        elif required:
            raise walk.error(path + (name,), "is required")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise walk.error(path, str(exc)) from None


def _decode_kwargs(data: Any, path: _Path, walk: Walk) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise walk.error(path, f"expected a JSON object, got {_kind(data)}")
    out = {}
    for key, value in data.items():
        if key in _KWARG_TYPES and isinstance(value, dict):
            out[key] = walk.decode(_KWARG_TYPES[key], value, path + (key,))
        elif isinstance(value, _SCALARS):
            out[key] = value
        else:
            raise walk.error(
                path + (key,), f"holds JSON scalars only, got {_kind(value)}"
            )
    return out


# ---------------------------------------------------------------------------
# the spec document
# ---------------------------------------------------------------------------


def _dotted(path: _Path) -> str:
    return "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path
    ).lstrip(".")


_SPEC = Walk(lambda obj, field, value: False,
             lambda path, problem: ConfigurationError(
                 f"{_dotted(path)}: {problem}"))


def spec_to_json(spec: CampaignSpec) -> Dict[str, Any]:
    """The complete JSON document describing ``spec`` (re-runnable)."""
    return {
        "codec": "repro.runtime.spec_codec",
        "version": SPEC_CODEC_VERSION,
        **_SPEC.encode(spec, ("spec",)),
    }


def _with_config(plan: Any) -> Any:
    return {"config": {}, **plan} if isinstance(plan, dict) else plan


def _upgrade(experiment: Any) -> Any:
    """Hand-written and older documents: a plan without a ``config`` key
    uses the default injector (an explicit ``null`` means none), and a
    testbed's retired ``pipeline`` data-path selector is ignored."""
    if not isinstance(experiment, dict):
        return experiment
    experiment = dict(experiment)
    if "plan" in experiment:
        experiment["plan"] = _with_config(experiment["plan"])
    if isinstance(experiment.get("extra_plans"), list):
        experiment["extra_plans"] = [
            _with_config(plan) for plan in experiment["extra_plans"]
        ]
    if isinstance(experiment.get("testbed"), dict):
        experiment["testbed"] = {
            k: v for k, v in experiment["testbed"].items() if k != "pipeline"
        }
    return experiment


def spec_from_json(doc: Any) -> CampaignSpec:
    """Reconstruct the :class:`CampaignSpec` a :func:`spec_to_json`
    document describes (strict: malformed input raises
    :class:`ConfigurationError` with the offending path)."""
    if not isinstance(doc, dict):
        raise _SPEC.error(("spec",),
                          f"expected a JSON object, got {_kind(doc)}")
    body = {k: v for k, v in doc.items() if k not in ("codec", "version")}
    version = doc.get("version", SPEC_CODEC_VERSION)
    if version != SPEC_CODEC_VERSION:
        raise ConfigurationError(
            f"spec codec version {version!r} is not supported "
            f"(this build speaks {SPEC_CODEC_VERSION})"
        )
    if isinstance(body.get("experiments"), list):
        body["experiments"] = [_upgrade(e) for e in body["experiments"]]
    spec = _SPEC.decode(CampaignSpec, body, ("spec",))
    for index, experiment in enumerate(spec.experiments):
        if experiment.testbed is not None \
                and experiment.testbed.topology is not None:
            try:
                experiment.testbed.topology.validate()
            except ConfigurationError as exc:
                raise _SPEC.error(
                    ("spec", "experiments", index, "testbed", "topology"),
                    str(exc),
                ) from None
    return spec

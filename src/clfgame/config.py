"""JSON game configurations: schema, loading, bundled datasets.

A config file names the defender's models, the real attacks (the
no-attack action is implicit and appended by the loader), the
N x (M-1) robustness grid in row-major model order, and the economic
parameters.  See ``data/madry_wide.json`` for the shape.
"""

from __future__ import annotations

import json
import numbers
from importlib import resources
from pathlib import Path

from .core import (
    AttackAction,
    EconomicParams,
    GameSpec,
    ModelProfile,
    ValidationReport,
    no_attack_action,
    validate_spec,
)

_ECONOMICS = ("R_plus_def", "R_minus_def", "R_plus_adv", "R_minus_adv", "I_def", "I_adv", "n", "r_max")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["models", "attacks", "robustness", "economics"],
    "additionalProperties": False,
    "properties": {
        "models": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "acc"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "acc": {"type": "number"},
                    "ongoing_cost": {"type": "number"},
                },
            },
        },
        "attacks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "ongoing_cost": {"type": "number"},
                },
            },
        },
        "robustness": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "economics": {
            "type": "object",
            "required": list(_ECONOMICS),
            "additionalProperties": False,
            "properties": {key: {"type": "integer" if key == "n" else "number"} for key in _ECONOMICS},
        },
    },
}


# The type rules of jsonschema's default (Draft 2020-12) checker.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _faults(value, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for every place ``value`` breaks ``schema``.

    Reads only the keywords CONFIG_SCHEMA uses, in this order: type,
    required, additionalProperties (false), properties (in the value's
    key order), minItems, items (which every array schema has).  The
    messages are jsonschema's wording.
    """
    if not _TYPES[schema["type"]](value):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    elif isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        extras = sorted(value.keys() - props.keys(), key=str)
        if extras and schema.get("additionalProperties", True) is False:
            names = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        for key, item in value.items():
            if key in props:
                yield from _faults(item, props[key], (*path, key))
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} should be non-empty"  # CONFIG_SCHEMA's minItems is 1
        for index, item in enumerate(value):
            yield from _faults(item, schema["items"], (*path, index))


class ConfigError(ValueError):
    """A config file failed to parse or match the schema."""


class SpecValidationError(ValueError):
    """A structurally well-formed config violated a game invariant."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.violations))


def spec_from_dict(raw: dict) -> GameSpec:
    """Build a GameSpec from parsed config JSON (appends the no-attack action)."""
    # the shallowest fault, and the first in walk order among equally shallow ones
    fault = min(_faults(raw, CONFIG_SCHEMA), key=lambda f: len(f[0]), default=None)
    if fault is not None:
        where = "/".join(map(str, fault[0])) or "<root>"
        raise ConfigError(f"config field {where}: {fault[1]}")
    models = tuple(
        ModelProfile(
            name=m["name"], acc=m["acc"], ongoing_cost=m.get("ongoing_cost", 0.0)
        )
        for m in raw["models"]
    )
    attacks = tuple(
        AttackAction(name=a["name"], ongoing_cost=a.get("ongoing_cost", 0.0))
        for a in raw["attacks"]
    ) + (no_attack_action(),)
    rows = raw["robustness"]
    widths = {len(row) for row in rows}
    if len(rows) != len(models) or widths != {len(attacks) - 1}:
        raise ConfigError(
            f"config field robustness: expected {len(models)} rows of "
            f"{len(attacks) - 1} entries"
        )
    e = raw["economics"]
    economics = EconomicParams(
        r_plus_def=e["R_plus_def"],
        r_minus_def=e["R_minus_def"],
        r_plus_adv=e["R_plus_adv"],
        r_minus_adv=e["R_minus_adv"],
        i_def=e["I_def"],
        i_adv=e["I_adv"],
        n=int(e["n"]),  # the schema lets an integral float through
        r_max=e["r_max"],
    )
    return GameSpec(models=models, attacks=attacks, robustness=rows, economics=economics)


def read_config(path: str | Path) -> dict:
    """Parse a config file into its top-level JSON object.

    Raises ConfigError for text that is not UTF-8, invalid JSON (with line
    and column) or a top-level value that is not an object, and lets
    OSError through for unreadable paths.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return raw


def load_spec(path: str | Path) -> GameSpec:
    """Load and fully validate a config file.

    Raises what ``read_config`` and ``spec_from_dict`` raise, and
    SpecValidationError when game invariants fail.
    """
    spec = spec_from_dict(read_config(path))
    report = validate_spec(spec)
    if not report.ok:
        raise SpecValidationError(report)
    return spec


def bundled_config_path(name: str) -> Path:
    """Filesystem path of a dataset shipped with the package (e.g. 'madry_wide')."""
    candidate = resources.files("clfgame").joinpath("data", f"{name}.json")
    with resources.as_file(candidate) as p:
        return Path(p)

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
            "required": [
                "R_plus_def",
                "R_minus_def",
                "R_plus_adv",
                "R_minus_adv",
                "I_def",
                "I_adv",
                "n",
                "r_max",
            ],
            "additionalProperties": False,
            "properties": {
                "R_plus_def": {"type": "number"},
                "R_minus_def": {"type": "number"},
                "R_plus_adv": {"type": "number"},
                "R_minus_adv": {"type": "number"},
                "I_def": {"type": "number"},
                "I_adv": {"type": "number"},
                "n": {"type": "integer"},
                "r_max": {"type": "number"},
            },
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


def _conforms(value, schema: dict) -> bool:
    """Whether ``value`` matches ``schema``, as jsonschema would judge it.

    Reads only the keywords CONFIG_SCHEMA uses: type, required,
    additionalProperties (false), properties, items and minItems.
    """
    if not _TYPES[schema["type"]](value):
        return False
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return (
            all(key in value for key in schema.get("required", ()))
            and (schema.get("additionalProperties", True) or value.keys() <= props.keys())
            and all(_conforms(v, props[k]) for k, v in value.items() if k in props)
        )
    if isinstance(value, list):
        items = schema.get("items")
        return len(value) >= schema.get("minItems", 0) and (
            items is None or all(_conforms(v, items) for v in value)
        )
    return True


class ConfigError(ValueError):
    """A config file failed to parse or match the schema."""


class SpecValidationError(ValueError):
    """A structurally well-formed config violated a game invariant."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(report.violations))


def spec_from_dict(raw: dict) -> GameSpec:
    """Build a GameSpec from parsed config JSON (appends the no-attack action)."""
    if not _conforms(raw, CONFIG_SCHEMA):
        # Imported here, so a valid config never loads jsonschema.  It words the
        # error ``jsonschema.validate(raw, CONFIG_SCHEMA)`` would raise, and has
        # the last word: a config it finds no fault in is accepted.
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        err = best_match(validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).iter_errors(raw))
        if err is not None:
            where = "/".join(str(p) for p in err.absolute_path) or "<root>"
            raise ConfigError(f"config field {where}: {err.message}") from err
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

    Raises ConfigError for invalid JSON (with line and column) or a
    top-level value that is not an object, and lets OSError through for
    unreadable paths.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
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

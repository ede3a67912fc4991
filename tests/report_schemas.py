"""JSON schemas of the CLI's reports: a contract of the test suite.

The program does not check its own reports at runtime.  The tests run the
reports they parse through ``validate_report`` instead, and
``test_schemas_pass_check_schema`` checks every schema here against its
metaschema.
"""

import jsonschema

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

REPORT_SCHEMAS: dict[str, dict] = {
    "validate": {
        "type": "object",
        "required": ["command", "ok", "violations"],
        "properties": {
            "command": {"const": "validate"},
            "ok": {"type": "boolean"},
            "violations": {"type": "array", "items": {"type": "string"}},
        },
    },
    "solve": {
        "type": "object",
        "required": [
            "command",
            "route",
            "thresholds",
            "pure_equilibria",
            "mixed_equilibrium",
            "equilibria",
        ],
        "properties": {
            "command": {"const": "solve"},
            "route": {"enum": ["closed_form", "support_enumeration"]},
            "notice": {"type": ["string", "null"]},
            "ordering_2x2": {"type": ["boolean", "null"]},
            "thresholds": {"type": "object"},
            "cases": {"type": ["object", "null"]},
            "pure_equilibria": {"type": "array"},
            "mixed_equilibrium": {"type": ["object", "null"]},
            "equilibria": {"type": ["array", "null"]},
        },
    },
    "cases": {
        "type": "object",
        "required": ["command", "thresholds", "adversary", "defender"],
        "properties": {
            "command": {"const": "cases"},
            "thresholds": {"type": "object"},
            "adversary": {"type": "object"},
            "defender": {"type": "object"},
        },
    },
    "ccr_curve": {
        "type": "object",
        "required": ["command", "attack_name", "r_max", "rho", "ccr", "intersections"],
        "properties": {
            "command": {"const": "ccr_curve"},
            "attack_name": {"type": "string"},
            "r_max": {"type": "number"},
            "rho": _NUMBER_ARRAY,
            "ccr": {"type": "object", "additionalProperties": _NUMBER_ARRAY},
            "intersections": {"type": "array"},
        },
    },
    "region_map": {
        "type": "object",
        "required": ["command", "map", "x_axis", "y_axis", "params", "cells", "points"],
        "properties": {
            "command": {"const": "region_map"},
            "map": {"enum": ["adv", "def"]},
            "x_axis": {"type": "string"},
            "y_axis": {"type": "string"},
            "params": {"type": "object"},
            "cells": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["x", "y", "case_label"],
                },
            },
            "points": {"type": "array"},
        },
    },
    "dominance": {
        "type": "object",
        "required": ["command", "defender", "adversary"],
        "properties": {
            "command": {"const": "dominance"},
            "defender": {"type": "array"},
            "adversary": {"type": "array"},
        },
    },
    "envelope": {
        "type": "object",
        "required": ["command", "attack_name", "r_max", "segments", "breakpoints"],
        "properties": {
            "command": {"const": "envelope"},
            "segments": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["rho_start", "rho_end", "model", "model_name"],
                },
            },
            "breakpoints": {"type": "array"},
        },
    },
    "simulate": {
        "type": "object",
        "required": [
            "command",
            "seed",
            "n",
            "trials",
            "r_max",
            "mean_utility_adv",
            "mean_utility_def",
            "std_error_adv",
            "std_error_def",
            "analytic_utility_adv",
            "analytic_utility_def",
            "convergence_passed",
            "per_trial",
        ],
        "properties": {
            "command": {"const": "simulate"},
            "per_trial": {
                "type": "object",
                "required": ["utility_adv", "utility_def", "model_played"],
            },
        },
    },
}


def validate_report(command: str, report: dict) -> None:
    """Raise ``jsonschema.ValidationError`` unless ``report`` matches its command's schema."""
    jsonschema.validate(report, REPORT_SCHEMAS[command])

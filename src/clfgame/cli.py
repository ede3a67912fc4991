"""Command-line interface: load a game config, analyse it, emit reports.

Commands: validate, solve, cases, ccr-curve, region-map, dominance,
envelope, simulate.  Reports are JSON by default; the two plot-data
commands (ccr-curve, region-map) can emit CSV with the same numeric
values.  Exit codes: 0 success, 1 validation failure, 2 solver guard
violation, 3 I/O error.  No plotting here: reports carry the data.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .analytic import (
    OrderingError,
    adversary_case,
    adversary_preconditions,
    best_response_adv,
    best_response_def,
    build_region_map,
    ccr_intersection,
    defend_threshold,
    defender_case,
    defender_preconditions,
    mixed_nash_2x2,
)
from .config import ConfigError, load_spec, read_config, spec_from_dict
from .core import (
    DEFAULT_EPS,
    DimensionError,
    GameSpec,
    Strategy,
    ccr_table,
    check_attack_index,
    check_ordering_2x2,
    validate_spec,
)
from .payoff import break_even_rates, delta_mu_def, payoff_matrices
from .simulate import SimConfig, convergence_check, simulate
from .solver import (
    SolverGuardError,
    dominance_report,
    pure_equilibria,
    support_enumeration,
    upper_envelope_ccr,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_IO = 3

# ---------------------------------------------------------------------------
# serialization helpers


# JSON reports are the bytes of json.dumps(report, indent=2, allow_nan=False)
# plus a newline.  The writer writes a long list of finite floats, ints or
# strs as one join, and a _Table as one join per record over columns that
# encode each distinct value once.  It walks the str-keyed plain dicts that
# hold such data and hands every other value to json, one call per value,
# re-indented to its depth, so json's rules and errors hold.  A report
# without plot data is one json call: a short list costs json less than the
# walk around it.
_INDENT = "  "
_ENCODER = json.JSONEncoder(indent=2, allow_nan=False)
_COLUMN_MIN = 32


@dataclass(frozen=True)
class _Table:
    """Records by column: each column's distinct values and, per record, an
    index into them.  Holds a record or more; CSV needs two columns or more."""

    keys: tuple[str, ...]
    values: list[list]
    index: list[list[int] | range]


def _json_chunks(obj) -> list[str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False) + "\\n"``, as chunks."""
    return (_chunks(obj, 0) or [_ENCODER.encode(obj)]) + ["\n"]


def _chunks(obj, depth: int) -> list[str] | None:
    """The text of obj at indent depth, or None where json writes obj whole."""
    kind = type(obj)
    if kind is dict:
        chunks = [_chunks(value, depth + 1) for value in obj.values()]
        if chunks.count(None) == len(chunks) or not all(map(isinstance, obj, repeat(str))):
            return None
        inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
        out, sep = [], "{"
        for (key, value), value_chunks in zip(obj.items(), chunks):
            out.append(sep + inner + _quote(key) + ": ")
            # a JSON string never holds a raw newline, so this re-indents exactly
            out += value_chunks or [_ENCODER.encode(value).replace("\n", inner)]
            sep = ","
        return out + [outer + "}"]
    items = _texts(obj) if kind is list and len(obj) >= _COLUMN_MIN else None
    if items is None and kind is not _Table:
        return None
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    if kind is _Table:
        # a table's values are all encoded, used or not
        field = inner + _INDENT
        texts = [
            _texts(values) or [_ENCODER.encode(v).replace("\n", field) for v in values]
            for values in obj.values
        ]
        prefixes = [("," if n else "{") + field + _quote(key) + ": " for n, key in enumerate(obj.keys)]
        items = _records(obj, texts, prefixes, inner + "}")
    return ["[" + inner, ("," + inner).join(items), outer + "]"]


def _texts(values: list):
    """The JSON texts of finite floats, of ints or of strs, else None."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {int}:  # bools are a type of their own, and stay with json
        return map(int.__repr__, values)
    return map(_quote, values) if kinds == {str} else None


def _records(table: _Table, texts, prefixes: list[str], close: str) -> map:
    """Each record of table as the join of its columns' prefixed texts, then close."""
    parts = [list(map(prefix.__add__, column)) for prefix, column in zip(prefixes, texts)]
    picked = map(map, [part.__getitem__ for part in parts], table.index)
    return map("".join, zip(*picked, repeat(close)))


def _csv_field(value) -> str:
    """The text csv.writer gives value as one field of a row of two or more."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, None))
    return buf.getvalue()[:-2]


def _emit(report: dict, args: argparse.Namespace, csv_table=None) -> None:
    # JSON is encoded whole before the destination is opened, so a report
    # that strict JSON cannot hold leaves no file and an empty stdout.  CSV
    # is csv_table, one join per record: a column of finite floats or of ints
    # takes its JSON texts, which are the reprs csv.writer writes, and any
    # other column csv.writer's text of each distinct value.
    chunks = None if args.format == "csv" else _json_chunks(report)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if chunks is not None:
            fh.writelines(chunks)
        else:
            csv.writer(fh, lineterminator="\n").writerow(csv_table.keys)
            texts = [
                type(values[0]) is not str and _texts(values) or map(_csv_field, values)
                for values in csv_table.values
            ]
            fh.writelines(_records(csv_table, texts, [""] + [","] * (len(texts) - 1), "\n"))


def _parse_probs(text: str) -> Strategy:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"cannot parse probability list {text!r}") from err
    return Strategy(np.array(values))


def _br_json(br) -> dict:
    if br.is_any_mix:
        return {"kind": "any_mix", "index": None}
    return {"kind": "pure", "index": br.pure_index}


def _thresholds_json(spec: GameSpec) -> dict:
    rates_adv, rates_def = break_even_rates(spec)
    out = {
        "mu_adv": rates_adv.tolist(),
        "mu_def": rates_def.tolist(),
        "delta_mu_def": None,
        "defend_threshold": None,
    }
    if spec.n_models == 2:
        out["delta_mu_def"] = delta_mu_def(spec)
    try:
        out["defend_threshold"] = defend_threshold(spec)
    except (DimensionError, OrderingError):
        pass
    return out


# ---------------------------------------------------------------------------
# command handlers


def cmd_validate(args: argparse.Namespace) -> int:
    spec = spec_from_dict(read_config(args.spec))
    report = validate_spec(spec)
    _emit({"command": "validate", "ok": report.ok, "violations": list(report.violations)}, args)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_solve(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    m = payoff_matrices(spec)
    is_2x2 = spec.n_models == 2 and spec.n_attacks == 2
    ordered = check_ordering_2x2(spec) if is_2x2 else None

    pure = [
        {
            "model": i,
            "attack": j,
            "model_name": spec.models[i].name,
            "attack_name": spec.attacks[j].name,
        }
        for i, j in pure_equilibria(m, tol=args.eps)
    ]
    report: dict = {
        "command": "solve",
        "eps": args.eps,
        "models": list(spec.model_names()),
        "attacks": list(spec.attack_names()),
        "ordering_2x2": ordered,
        "thresholds": _thresholds_json(spec),
        "cases": None,
        "pure_equilibria": pure,
        "mixed_equilibrium": None,
        "equilibria": None,
        "notice": None,
    }
    if ordered:
        report["route"] = "closed_form"
        report["cases"] = {
            "adversary_satisfiable": sorted(c.value for c in adversary_preconditions(spec)),
            "defender_satisfiable": sorted(c.value for c in defender_preconditions(spec)),
        }
        eq = mixed_nash_2x2(spec, eps=args.eps)
        if eq is not None:
            report["mixed_equilibrium"] = {
                "s": eq.s_star.probs.tolist(),
                "r": eq.r_star.probs.tolist(),
                "residual_adv": eq.residuals[0],
                "residual_def": eq.residuals[1],
                "unique": eq.unique,
            }
    else:
        report["route"] = "support_enumeration"
        report["notice"] = (
            "ordering acc_1 > acc_2 > rob_2 > rob_1 does not hold; "
            "falling back to support enumeration"
            if is_2x2
            else "game is not 2x2; using support enumeration"
        )
        report["equilibria"] = [
            {
                "s": eq.s.probs.tolist(),
                "r": eq.r.probs.tolist(),
                "row_support": list(eq.row_support),
                "col_support": list(eq.col_support),
                "max_deviation_gain": eq.max_deviation_gain,
                "degenerate": eq.degenerate,
            }
            for eq in support_enumeration(m, tol=args.eps)
        ]
    _emit(report, args)
    return EXIT_OK


def cmd_cases(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    adversary: dict = {
        "satisfiable": sorted(c.value for c in adversary_preconditions(spec)),
        "case_at_s": None,
        "best_response_at_s": None,
    }
    defender: dict = {
        "satisfiable": sorted(c.value for c in defender_preconditions(spec)),
        "case_at_r": None,
        "best_response_at_r": None,
    }
    if args.s_probs:
        s = _parse_probs(args.s_probs)
        adversary["case_at_s"] = adversary_case(spec, s, eps=args.eps).value
        adversary["best_response_at_s"] = _br_json(best_response_adv(spec, s, eps=args.eps))
    if args.r_probs:
        r = _parse_probs(args.r_probs)
        defender["case_at_r"] = defender_case(spec, r, eps=args.eps).value
        defender["best_response_at_r"] = _br_json(best_response_def(spec, r, eps=args.eps))
    report = {
        "command": "cases",
        "eps": args.eps,
        "thresholds": _thresholds_json(spec),
        "adversary": adversary,
        "defender": defender,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_ccr_curve(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    attack = args.attack
    check_attack_index(spec, attack)
    r_max = spec.economics.r_max
    rho = np.linspace(0.0, r_max, args.grid)
    curves = ccr_table(spec, rho)[:, :, attack].T
    table = {mdl.name: curve.tolist() for mdl, curve in zip(spec.models, curves)}
    intersections = []
    for a in range(spec.n_models):
        for b in range(a + 1, spec.n_models):
            x = ccr_intersection(spec, a, b, attack)
            if x is not None and x <= r_max:
                intersections.append(
                    {
                        "model_a": spec.models[a].name,
                        "model_b": spec.models[b].name,
                        "rho": x,
                    }
                )
    report = {
        "command": "ccr_curve",
        "attack": attack,
        "attack_name": spec.attacks[attack].name,
        "r_max": r_max,
        "rho": rho.tolist(),
        "ccr": table,
        "intersections": intersections,
    }
    columns = [report["rho"], *table.values()]
    cells = _Table(("rho", *table), columns, [range(args.grid)] * len(columns))
    _emit(report, args, csv_table=cells)
    return EXIT_OK


def cmd_region_map(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    rm = build_region_map(
        spec,
        map_kind=args.map,
        grid=args.grid,
        attack_index=args.attack,
        mu=args.mu_adv,
        d_mu=args.delta_mu_def,
        r_max=args.r_max,
    )
    steps = np.arange(args.grid)
    report = {
        "command": "region_map",
        "map": rm.map_kind,
        "x_axis": rm.x_axis,
        "y_axis": rm.y_axis,
        "params": rm.params,
        "grid": args.grid,
        # x is xs[i] and y is ys[j] at cell (i, j), row by row over i
        "cells": _Table(
            ("x", "y", "case_label"),
            [rm.xs.tolist(), rm.ys.tolist(), list(rm.labels)],
            [
                np.repeat(steps, args.grid).tolist(),
                np.tile(steps, args.grid).tolist(),
                rm.codes.ravel().tolist(),
            ],
        ),
        "points": [
            {"name": name, "x": x, "y": y, "case_label": lbl}
            for name, x, y, lbl in rm.points
        ],
    }
    _emit(report, args, csv_table=report["cells"])
    return EXIT_OK


def cmd_dominance(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    m = payoff_matrices(spec)

    def side(player: str, names: tuple[str, ...]) -> list[dict]:
        rep = dominance_report(m, player, tol=args.eps)
        out = []
        for a in rep.actions:
            out.append(
                {
                    "action": a.action,
                    "name": names[a.action],
                    "status": a.status,
                    "dominated_by": a.dominated_by,
                    "dominated_by_name": None
                    if a.dominated_by is None
                    else names[a.dominated_by],
                    "mixture": None if a.mixture is None else a.mixture.tolist(),
                    # -inf for a lone action, which has no alternative
                    "margin": a.margin if math.isfinite(a.margin) else None,
                }
            )
        return out

    report = {
        "command": "dominance",
        "eps": args.eps,
        "defender": side("defender", spec.model_names()),
        "adversary": side("adversary", spec.attack_names()),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_envelope(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    env = upper_envelope_ccr(spec, args.attack, tol=args.eps)
    report = {
        "command": "envelope",
        "attack": env.attack_index,
        "attack_name": spec.attacks[env.attack_index].name,
        "r_max": env.r_max,
        "segments": [
            {
                "rho_start": seg.rho_start,
                "rho_end": seg.rho_end,
                "model": seg.model_index,
                "model_name": spec.models[seg.model_index].name,
            }
            for seg in env.segments
        ],
        "breakpoints": [
            {
                "rho": bp.rho,
                "models": list(bp.models),
                "model_names": [spec.models[i].name for i in bp.models],
            }
            for bp in env.breakpoints
        ],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    s = _parse_probs(args.s_probs)
    r = _parse_probs(args.r_probs)
    cfg = SimConfig(
        seed=args.seed,
        n=args.n if args.n is not None else spec.economics.n,
        trials=args.trials,
        r_max=args.r_max if args.r_max is not None else spec.economics.r_max,
    )
    res = simulate(spec, s, r, cfg)
    conv = convergence_check(spec, s, r, cfg, sim=res)
    report = {
        "command": "simulate",
        "seed": cfg.seed,
        "n": cfg.n,
        "trials": cfg.trials,
        "r_max": cfg.r_max,
        "s": s.probs.tolist(),
        "r": r.probs.tolist(),
        "mean_utility_adv": res.mean_utility_adv,
        "mean_utility_def": res.mean_utility_def,
        "std_error_adv": res.std_error_adv,
        "std_error_def": res.std_error_def,
        "analytic_utility_adv": conv.analytic_adv,
        "analytic_utility_def": conv.analytic_def,
        "convergence_passed": conv.passed,
        "per_trial": {
            "utility_adv": res.utilities_adv.tolist(),
            "utility_def": res.utilities_def.tolist(),
            "model_played": res.models_played.tolist(),
        },
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # route usage errors into the exit-code contract instead of argparse's own exit(2)
    def error(self, message: str):
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _add_shared(sub: argparse.ArgumentParser, *, grid: bool = False, seed: bool = False) -> None:
    sub.add_argument("--spec", required=True, help="path to a game config JSON file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--eps", type=_tolerance, default=DEFAULT_EPS)
    if grid:
        sub.add_argument("--grid", type=int, default=101)
    if seed:
        sub.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``clfgame`` parser, built once per process and shared by every call.

    A parse leaves the parser as it was, so ``main`` may run any number of
    times in one process.  ``main`` looks each command's handler up by name
    (``cmd_<command>``) when it runs, so a handler replaced on this module
    after the first build is the one that runs.  The ``type=`` callables of
    the flags are bound at the first build: replacing ``_finite_float``
    later reaches ``--eps``, whose ``_tolerance`` calls it by name, but not
    ``--mu-adv``, ``--delta-mu-def`` or ``--r-max``.
    """
    parser = _Parser(prog="clfgame", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a config against every game invariant")
    _add_shared(p)

    p = subs.add_parser("solve", help="equilibria, thresholds and case analysis")
    _add_shared(p)

    p = subs.add_parser("cases", help="satisfiable best-response cases (2x2 ordered games)")
    _add_shared(p)
    p.add_argument("--s-probs", default=None, help="defender mix, e.g. 0.5,0.5")
    p.add_argument("--r-probs", default=None, help="adversary mix, e.g. 0.3,0.7")

    p = subs.add_parser("ccr-curve", help="CCR of every model over the attack budget")
    _add_shared(p, grid=True)
    p.add_argument("--attack", type=int, default=0)

    p = subs.add_parser("region-map", help="case-precondition regions over a parameter plane")
    _add_shared(p, grid=True)
    p.add_argument("--map", choices=("adv", "def"), required=True)
    p.add_argument("--attack", type=int, default=0)
    p.add_argument("--mu-adv", type=_finite_float, default=None, dest="mu_adv")
    p.add_argument("--delta-mu-def", type=_finite_float, default=None, dest="delta_mu_def")
    p.add_argument("--r-max", type=_finite_float, default=None, dest="r_max")

    p = subs.add_parser("dominance", help="strict dominance report for both players")
    _add_shared(p)

    p = subs.add_parser("envelope", help="upper envelope of per-model net CCR lines")
    _add_shared(p)
    p.add_argument("--attack", type=int, default=0)

    p = subs.add_parser("simulate", help="seeded Monte-Carlo run of a strategy profile")
    _add_shared(p, seed=True)
    p.add_argument("--s-probs", required=True)
    p.add_argument("--r-probs", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r-max", type=_finite_float, default=None, dest="r_max")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # refused before any work: only the plot-data commands have a table to write
        if args.format == "csv" and args.command not in ("ccr-curve", "region-map"):
            raise ConfigError(
                "csv output is only available for the ccr-curve and region-map commands"
            )
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SolverGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

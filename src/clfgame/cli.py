"""Command-line interface: load a game config, analyse it, emit reports.

Commands: validate, solve, cases, ccr-curve, region-map, dominance,
envelope, simulate.  Reports are JSON by default; the two plot-data
commands (ccr-curve, region-map) can emit CSV with the same numeric
values.  Exit codes: 0 success, 1 validation failure, 2 solver guard
violation, 3 I/O error.  No plotting here: reports carry the data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import (
    OrderingError,
    adversary_case,
    adversary_preconditions,
    best_response_adv,
    best_response_def,
    ccr_intersection,
    defend_threshold,
    defender_case,
    defender_preconditions,
    mixed_nash_2x2,
)
from .config import ConfigError, SpecValidationError, _validate, load_spec, spec_from_dict
from .core import (
    DEFAULT_EPS,
    DimensionError,
    GameSpec,
    Strategy,
    check_ordering_2x2,
    validate_spec,
)
from .payoff import delta_mu_def, mu_adv, mu_def, payoff_matrices
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

ADV_CASE_LABELS = {
    "invalid": "invalid",
    "case1": "Case 1",
    "case2": "Case 2",
    "case3": "Case 3 (and 1&2) possible",
}
DEF_CASE_LABELS = {
    "invalid": "invalid",
    "caseA": "Case A",
    "caseB": "Case B",
    "caseC": "Case C (and A&B) possible",
}


@dataclass(frozen=True)
class RunConfig:
    """Shared command options, straight from the parsed arguments."""

    spec_path: str
    fmt: str = "json"
    out: str | None = None
    eps: float = DEFAULT_EPS
    grid: int = 101
    seed: int = 0


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Rasterised case labels over a 2-d parameter plane, plus overlay points."""

    map_kind: str  # "adv" | "def"
    x_axis: str
    y_axis: str
    params: dict
    xs: np.ndarray
    ys: np.ndarray
    cells: tuple[tuple[float, float, str], ...]
    points: tuple[tuple[str, float, float, str], ...]


def adversary_region_label(rob_2: float, rob_1: float, mu: float) -> str:
    """Reachable-case label at one (rob_2, rob_1) point of the adversary plane."""
    if rob_1 >= rob_2:
        return ADV_CASE_LABELS["invalid"]
    breakeven_asr = 1.0 - mu
    if rob_1 <= breakeven_asr <= rob_2:
        return ADV_CASE_LABELS["case3"]
    if rob_2 < breakeven_asr:
        return ADV_CASE_LABELS["case2"]
    return ADV_CASE_LABELS["case1"]


def defender_region_label(d_rob: float, d_acc: float, d_mu: float, r_max: float) -> str:
    """Reachable-case label at one (delta_rob, delta_acc) point of the defender plane."""
    if d_acc <= 0.0 or d_rob <= 0.0 or d_acc + d_rob >= 1.0:
        return DEF_CASE_LABELS["invalid"]
    t = (d_acc - d_mu) / (d_acc + d_rob)
    if t < 0.0:
        return DEF_CASE_LABELS["caseA"]
    if t > r_max:
        return DEF_CASE_LABELS["caseB"]
    return DEF_CASE_LABELS["caseC"]


def build_region_map(
    spec: GameSpec,
    map_kind: str,
    grid: int,
    attack_index: int = 0,
    mu: float | None = None,
    d_mu: float | None = None,
    r_max: float | None = None,
) -> RegionMap:
    """Rasterise case labels and place one overlay point per model pair (1, k).

    Parameters default to the spec's own economics; passing them
    explicitly lets one map be drawn for a whole family of games.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    rob = np.asarray(spec.robustness)
    if map_kind == "adv":
        if mu is None:
            mu = mu_adv(spec, attack_index)
        xs = np.linspace(0.0, 1.0, grid)
        ys = np.linspace(0.0, 1.0, grid)
        cells = tuple(
            (float(x), float(y), adversary_region_label(float(x), float(y), mu))
            for x in xs
            for y in ys
        )
        points = []
        for k in range(1, spec.n_models):
            x = float(rob[k, attack_index])
            y = float(rob[0, attack_index])
            name = f"{spec.models[0].name}_vs_{spec.models[k].name}"
            points.append((name, x, y, adversary_region_label(x, y, mu)))
        return RegionMap(
            map_kind="adv",
            x_axis="rob_2",
            y_axis="rob_1",
            params={"mu_adv": mu},
            xs=xs,
            ys=ys,
            cells=cells,
            points=tuple(points),
        )
    if map_kind == "def":
        if d_mu is None:
            try:
                d_mu = delta_mu_def(spec)
            except DimensionError:
                d_mu = 0.0
        if r_max is None:
            r_max = spec.economics.r_max
        xs = np.linspace(0.0, 1.0, grid)
        ys = np.linspace(-0.3, 1.0, grid)
        cells = tuple(
            (float(x), float(y), defender_region_label(float(x), float(y), d_mu, r_max))
            for x in xs
            for y in ys
        )
        points = []
        for k in range(1, spec.n_models):
            x = float(rob[k, attack_index] - rob[0, attack_index])
            y = float(spec.models[0].acc - spec.models[k].acc)
            name = f"{spec.models[0].name}_vs_{spec.models[k].name}"
            points.append((name, x, y, defender_region_label(x, y, d_mu, r_max)))
        return RegionMap(
            map_kind="def",
            x_axis="delta_rob",
            y_axis="delta_acc",
            params={"delta_mu_def": d_mu, "r_max": r_max},
            xs=xs,
            ys=ys,
            cells=cells,
            points=tuple(points),
        )
    raise ValueError(f"unknown map kind {map_kind!r}")


# ---------------------------------------------------------------------------
# report schemas

_NUMBER_OR_NULL = {"type": ["number", "null"]}
_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}
_STRATEGY_PAIR = {
    "s": _NUMBER_ARRAY,
    "r": _NUMBER_ARRAY,
}

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
    """Assert a report matches its schema (internal sanity gate before emit)."""
    _validate(command, REPORT_SCHEMAS[command], report)


# ---------------------------------------------------------------------------
# serialization helpers


def _finite_or_none(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if np.isfinite(x) else None


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _emit(report: dict, command: str, run: RunConfig, csv_table=None) -> None:
    validate_report(command, report)
    if run.fmt == "csv":
        if csv_table is None:
            raise ConfigError(
                "csv output is only available for the ccr-curve and region-map commands"
            )
        text = _csv_text(*csv_table)
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if run.out:
        with open(run.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        spec_path=args.spec,
        fmt=getattr(args, "format", "json"),
        out=getattr(args, "out", None),
        eps=getattr(args, "eps", DEFAULT_EPS),
        grid=getattr(args, "grid", 101),
        seed=getattr(args, "seed", 0),
    )


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
    out = {
        "mu_adv": [mu_adv(spec, j) for j in spec.real_attack_indices()],
        "mu_def": [mu_def(spec, i) for i in range(spec.n_models)],
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
    run = _run_config(args)
    with open(run.spec_path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{run.spec_path}:{err.lineno}:{err.colno}: {err.msg}") from err
    spec = spec_from_dict(raw)
    report = validate_spec(spec)
    _emit(
        {"command": "validate", "ok": report.ok, "violations": list(report.violations)},
        "validate",
        run,
    )
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_solve(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
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
        for i, j in pure_equilibria(m, tol=run.eps)
    ]
    report: dict = {
        "command": "solve",
        "eps": run.eps,
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
        eq = mixed_nash_2x2(spec, eps=run.eps)
        if eq is not None:
            report["mixed_equilibrium"] = {
                "s": list(map(float, eq.s_star.probs)),
                "r": list(map(float, eq.r_star.probs)),
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
                "s": list(map(float, eq.s.probs)),
                "r": list(map(float, eq.r.probs)),
                "row_support": list(eq.row_support),
                "col_support": list(eq.col_support),
                "max_deviation_gain": eq.max_deviation_gain,
                "degenerate": eq.degenerate,
            }
            for eq in support_enumeration(m, tol=run.eps)
        ]
    _emit(report, "solve", run)
    return EXIT_OK


def cmd_cases(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
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
        adversary["case_at_s"] = adversary_case(spec, s, eps=run.eps).value
        adversary["best_response_at_s"] = _br_json(best_response_adv(spec, s, eps=run.eps))
    if args.r_probs:
        r = _parse_probs(args.r_probs)
        defender["case_at_r"] = defender_case(spec, r, eps=run.eps).value
        defender["best_response_at_r"] = _br_json(best_response_def(spec, r, eps=run.eps))
    report = {
        "command": "cases",
        "eps": run.eps,
        "thresholds": _thresholds_json(spec),
        "adversary": adversary,
        "defender": defender,
    }
    _emit(report, "cases", run)
    return EXIT_OK


def cmd_ccr_curve(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
    attack = args.attack
    if not spec.is_real_attack(attack):
        raise ConfigError("ccr-curve needs a real attack index")
    r_max = spec.economics.r_max
    rho = np.linspace(0.0, r_max, run.grid)
    acc = np.array([mdl.acc for mdl in spec.models])
    rob = np.asarray(spec.robustness[:, attack])
    table = {
        mdl.name: [float(v) for v in (1.0 - rho) * acc[i] + rho * rob[i]]
        for i, mdl in enumerate(spec.models)
    }
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
        "rho": [float(v) for v in rho],
        "ccr": table,
        "intersections": intersections,
    }
    names = list(spec.model_names())
    rows = [
        [report["rho"][k]] + [table[name][k] for name in names]
        for k in range(len(report["rho"]))
    ]
    _emit(report, "ccr_curve", run, csv_table=(["rho"] + names, rows))
    return EXIT_OK


def cmd_region_map(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
    rm = build_region_map(
        spec,
        map_kind=args.map,
        grid=run.grid,
        attack_index=args.attack,
        mu=args.mu_adv,
        d_mu=args.delta_mu_def,
        r_max=args.r_max,
    )
    report = {
        "command": "region_map",
        "map": rm.map_kind,
        "x_axis": rm.x_axis,
        "y_axis": rm.y_axis,
        "params": rm.params,
        "grid": run.grid,
        "cells": [{"x": x, "y": y, "case_label": lbl} for x, y, lbl in rm.cells],
        "points": [
            {"name": name, "x": x, "y": y, "case_label": lbl}
            for name, x, y, lbl in rm.points
        ],
    }
    rows = [[x, y, lbl] for x, y, lbl in rm.cells]
    _emit(report, "region_map", run, csv_table=(["x", "y", "case_label"], rows))
    return EXIT_OK


def cmd_dominance(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
    m = payoff_matrices(spec)

    def side(player: str, names: tuple[str, ...]) -> list[dict]:
        rep = dominance_report(m, player, tol=run.eps)
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
                    "mixture": None if a.mixture is None else [float(v) for v in a.mixture],
                    "margin": _finite_or_none(a.margin),
                }
            )
        return out

    report = {
        "command": "dominance",
        "eps": run.eps,
        "defender": side("defender", spec.model_names()),
        "adversary": side("adversary", spec.attack_names()),
    }
    _emit(report, "dominance", run)
    return EXIT_OK


def cmd_envelope(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
    env = upper_envelope_ccr(spec, args.attack, tol=run.eps)
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
    _emit(report, "envelope", run)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _run_config(args)
    spec = load_spec(run.spec_path)
    s = _parse_probs(args.s_probs)
    r = _parse_probs(args.r_probs)
    cfg = SimConfig(
        seed=run.seed,
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
        "s": [float(v) for v in s.probs],
        "r": [float(v) for v in r.probs],
        "mean_utility_adv": res.mean_utility_adv,
        "mean_utility_def": res.mean_utility_def,
        "std_error_adv": res.std_error_adv,
        "std_error_def": res.std_error_def,
        "analytic_utility_adv": conv.analytic_adv,
        "analytic_utility_def": conv.analytic_def,
        "convergence_passed": conv.passed,
        "per_trial": {
            "utility_adv": [float(v) for v in res.utilities_adv],
            "utility_def": [float(v) for v in res.utilities_def],
            "model_played": [int(v) for v in res.models_played],
        },
    }
    _emit(report, "simulate", run)
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


def _add_shared(sub: argparse.ArgumentParser, *, grid: bool = False, seed: bool = False) -> None:
    sub.add_argument("--spec", required=True, help="path to a game config JSON file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--eps", type=_finite_float, default=DEFAULT_EPS)
    if grid:
        sub.add_argument("--grid", type=int, default=101)
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clfgame", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a config against every game invariant")
    _add_shared(p)
    p.set_defaults(handler=cmd_validate)

    p = subs.add_parser("solve", help="equilibria, thresholds and case analysis")
    _add_shared(p)
    p.set_defaults(handler=cmd_solve)

    p = subs.add_parser("cases", help="satisfiable best-response cases (2x2 ordered games)")
    _add_shared(p)
    p.add_argument("--s-probs", default=None, help="defender mix, e.g. 0.5,0.5")
    p.add_argument("--r-probs", default=None, help="adversary mix, e.g. 0.3,0.7")
    p.set_defaults(handler=cmd_cases)

    p = subs.add_parser("ccr-curve", help="CCR of every model over the attack budget")
    _add_shared(p, grid=True)
    p.add_argument("--attack", type=int, default=0)
    p.set_defaults(handler=cmd_ccr_curve)

    p = subs.add_parser("region-map", help="case-precondition regions over a parameter plane")
    _add_shared(p, grid=True)
    p.add_argument("--map", choices=("adv", "def"), required=True)
    p.add_argument("--attack", type=int, default=0)
    p.add_argument("--mu-adv", type=_finite_float, default=None, dest="mu_adv")
    p.add_argument("--delta-mu-def", type=_finite_float, default=None, dest="delta_mu_def")
    p.add_argument("--r-max", type=_finite_float, default=None, dest="r_max")
    p.set_defaults(handler=cmd_region_map)

    p = subs.add_parser("dominance", help="strict dominance report for both players")
    _add_shared(p)
    p.set_defaults(handler=cmd_dominance)

    p = subs.add_parser("envelope", help="upper envelope of per-model net CCR lines")
    _add_shared(p)
    p.add_argument("--attack", type=int, default=0)
    p.set_defaults(handler=cmd_envelope)

    p = subs.add_parser("simulate", help="seeded Monte-Carlo run of a strategy profile")
    _add_shared(p, seed=True)
    p.add_argument("--s-probs", required=True)
    p.add_argument("--r-probs", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r-max", type=_finite_float, default=None, dest="r_max")
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ConfigError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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

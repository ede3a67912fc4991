"""Per-operation correctness checks.

Each check gets the operation, its exit code and its output text and
returns a :class:`Verdict`.  Every output must come with exit code 0 and,
for JSON, parse as strict JSON (no NaN or Infinity tokens).  The
command-specific checks recompute what they can from the input config
with numpy and the README formulas; equilibria and payoff matrices go
through the package's public ``payoff_matrices`` and
``verify_equilibrium`` so the certificates use the same arithmetic as
the program.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

import clfgame

EPS = 1e-9
ENDPOINT_TOL = 1e-12
SIM_BAND_SE = 5.0

ADV_LABELS = ("invalid", "Case 1", "Case 2", "Case 3 (and 1&2) possible")
DEF_LABELS = ("invalid", "Case A", "Case B", "Case C (and A&B) possible")


@dataclass
class Verdict:
    error: str | None = None
    # simulate only: the larger player distance from the analytic utility, in standard errors
    z: float | None = None


class CheckFailure(Exception):
    pass


def _reject_constant(token: str):
    raise CheckFailure(f"output is not strict JSON: contains {token}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise CheckFailure(f"output is not JSON: {err}") from err


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckFailure("empty CSV output")
    return rows[0], rows[1:]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


class Config:
    """The numbers of one config file, as numpy arrays."""

    def __init__(self, path):
        with open(path) as fh:
            raw = json.load(fh)
        e = raw["economics"]
        self.names = [m["name"] for m in raw["models"]]
        self.acc = np.array([m["acc"] for m in raw["models"]])
        self.model_cost = np.array([m.get("ongoing_cost", 0.0) for m in raw["models"]])
        self.attack_cost = np.array([a.get("ongoing_cost", 0.0) for a in raw["attacks"]])
        self.rob = np.array(raw["robustness"], dtype=float)
        self.e = e
        self.mu_adv = (self.attack_cost + e["R_minus_adv"]) / (e["R_plus_adv"] + e["R_minus_adv"])
        self.mu_def = (self.model_cost + e["R_minus_def"]) / (e["R_plus_def"] + e["R_minus_def"])

    def utilities(self, s: np.ndarray, r: np.ndarray, n: int, r_max: float) -> tuple[float, float]:
        """README utilities of profile (s, r) with the horizon n and budget r_max."""
        e = self.e
        real = r[:-1]
        asr = 1.0 - s @ self.rob
        epps_adv = -self.attack_cost - e["R_minus_adv"] + (e["R_plus_adv"] + e["R_minus_adv"]) * asr
        u_adv = -e["I_adv"] + n * r_max * float(real @ epps_adv)
        ccr = ((1.0 - r_max) * self.acc[:, None] + r_max * self.rob) @ real + r[-1] * self.acc
        epps_def = -self.model_cost - e["R_minus_def"] + (e["R_plus_def"] + e["R_minus_def"]) * ccr
        u_def = -e["I_def"] + n * float(s @ epps_def)
        return u_adv, u_def


def _strategy(values) -> "clfgame.Strategy":
    return clfgame.Strategy(np.array(values, dtype=float))


# ---------------------------------------------------------------------------
# command checks


def check_validate(op, text):
    report = strict_json(text)
    _require(report.get("ok") is True and report.get("violations") == [],
             f"validate reported violations: {report.get('violations')}")


def check_solve(op, text):
    report = strict_json(text)
    spec = clfgame.load_spec(op.spec_path)
    m = clfgame.payoff_matrices(spec)
    n, k = m.n_rows, m.n_cols
    profiles = []
    degenerate = False
    if report["route"] == "support_enumeration":
        for eq in report["equilibria"]:
            profiles.append((_strategy(eq["s"]), _strategy(eq["r"])))
            degenerate = degenerate or bool(eq["degenerate"])
        _require(bool(profiles), "solve reported no equilibrium")
        _require(degenerate or len(profiles) % 2 == 1,
                 f"{len(profiles)} equilibria in a game with none flagged degenerate "
                 "(a nondegenerate game has an odd number)")
    else:
        for pe in report["pure_equilibria"]:
            profiles.append((clfgame.Strategy.pure(pe["model"], n), clfgame.Strategy.pure(pe["attack"], k)))
        mixed = report["mixed_equilibrium"]
        if mixed is not None:
            profiles.append((_strategy(mixed["s"]), _strategy(mixed["r"])))
        _require(bool(profiles), "solve reported no equilibrium")
    for s, r in profiles:
        cert = clfgame.verify_equilibrium(m, s, r, tol=EPS)
        _require(cert.certified, f"equilibrium does not re-certify: deviation gain {cert.max_gain!r}")


def check_dominance(op, text):
    report = strict_json(text)
    m = clfgame.payoff_matrices(clfgame.load_spec(op.spec_path))
    for player, own in (("defender", m.u_def), ("adversary", m.u_adv.T)):
        entries = report[player]
        _require(len(entries) == own.shape[0], f"{player}: {len(entries)} entries for {own.shape[0]} actions")
        for a in entries:
            if a["status"] == "undominated":
                continue
            mixture = np.array(a["mixture"], dtype=float)
            gap = mixture @ own - own[a["action"]]
            _require(bool(np.all(gap > EPS)),
                     f"{player} action {a['action']}: certificate beats it by only {gap.min()!r}")
            if a["status"] == "pure_dominated":
                _require(mixture[a["dominated_by"]] == 1.0,
                         f"{player} action {a['action']}: pure certificate is not a unit vector")


def check_ccr_curve(op, text):
    cfg = Config(op.spec_path)
    r_max = cfg.e["r_max"]
    first, last = cfg.acc, (1.0 - r_max) * cfg.acc + r_max * cfg.rob[:, 0]
    grid = op.info.get("grid", 101)
    if op.fmt == "csv":
        header, rows = csv_rows(text)
        _require(header == ["rho"] + cfg.names, f"unexpected CSV header {header}")
        _require(len(rows) == grid, f"{len(rows)} rows for grid {grid}")
        got_first = np.array([float(v) for v in rows[0][1:]])
        got_last = np.array([float(v) for v in rows[-1][1:]])
    else:
        report = strict_json(text)
        _require(len(report["rho"]) == grid, f"{len(report['rho'])} points for grid {grid}")
        got_first = np.array([report["ccr"][name][0] for name in cfg.names])
        got_last = np.array([report["ccr"][name][-1] for name in cfg.names])
    _require(np.allclose(got_first, first, rtol=0.0, atol=ENDPOINT_TOL),
             "ccr at rho = 0 differs from acc_i")
    _require(np.allclose(got_last, last, rtol=0.0, atol=ENDPOINT_TOL),
             "ccr at rho = r_max differs from (1 - r_max) acc_i + r_max rob_ij")


def expected_region_histogram(op) -> Counter:
    """Label counts over the grid from README's case conditions, vectorised."""
    cfg = Config(op.spec_path)
    grid = op.info["grid"]
    x = np.linspace(0.0, 1.0, grid)
    if op.info["map"] == "adv":
        mu = op.info.get("mu_adv", float(cfg.mu_adv[0]))
        xx, yy = np.meshgrid(x, x, indexing="ij")  # x = rob_2, y = rob_1
        b = 1.0 - mu
        ids = np.select(
            [yy >= xx, (yy <= b) & (b <= xx), xx < b],
            [0, 3, 2],
            default=1,
        )
        labels = ADV_LABELS
    else:
        if "delta_mu_def" in op.info:
            d_mu = op.info["delta_mu_def"]
        else:
            d_mu = float(cfg.mu_def[0] - cfg.mu_def[1])
        r_max = op.info.get("r_max", cfg.e["r_max"])
        y = np.linspace(-0.3, 1.0, grid)
        xx, yy = np.meshgrid(x, y, indexing="ij")  # x = delta_rob, y = delta_acc
        invalid = (yy <= 0.0) | (xx <= 0.0) | (xx + yy >= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (yy - d_mu) / (yy + xx)
        ids = np.select([invalid, t < 0.0, t > r_max], [0, 1, 2], default=3)
        labels = DEF_LABELS
    counts = np.bincount(ids.ravel(), minlength=4)
    return Counter({labels[i]: int(c) for i, c in enumerate(counts) if c})


def check_region_map(op, text):
    if op.fmt == "csv":
        header, rows = csv_rows(text)
        _require(header == ["x", "y", "case_label"], f"unexpected CSV header {header}")
        got = Counter(row[2] for row in rows)
    else:
        report = strict_json(text)
        _require(report["map"] == op.info["map"], f"map kind {report['map']!r}")
        got = Counter(cell["case_label"] for cell in report["cells"])
    want = expected_region_histogram(op)
    _require(got == want, f"label histogram {dict(got)} differs from recomputed {dict(want)}")


def check_simulate(op, text) -> Verdict:
    report = strict_json(text)
    cfg = Config(op.spec_path)
    info = op.info
    n = info.get("n", cfg.e["n"])
    r_max = info.get("r_max", cfg.e["r_max"])
    _require(report["trials"] == info["trials"], f"{report['trials']} trials, asked {info['trials']}")
    _require(len(report["per_trial"]["utility_adv"]) == info["trials"], "per-trial series has the wrong length")
    want = cfg.utilities(np.array(info["s"]), np.array(info["r"]), n, r_max)
    got = (report["mean_utility_adv"], report["mean_utility_def"])
    se = (report["std_error_adv"], report["std_error_def"])
    z = 0.0
    failures = []
    for player, w, g, e in zip(("adversary", "defender"), want, got, se):
        gap = abs(g - w)
        floor = 1e-6 * (1.0 + abs(w))
        if gap > SIM_BAND_SE * e + floor:
            failures.append(f"{player} mean {g!r} is {gap / e if e else float('inf'):.1f} SE "
                            f"from the analytic {w!r}")
        if e > 0.0:
            z = max(z, gap / e)
    return Verdict("; ".join(failures) or None, z)


def check_cases(op, text):
    report = strict_json(text)
    cfg = Config(op.spec_path)
    adv, dfn = report["adversary"], report["defender"]
    _require(adv["case_at_s"] in adv["satisfiable"], "adversary case at s is not satisfiable")
    _require(dfn["case_at_r"] in dfn["satisfiable"], "defender case at r is not satisfiable")
    gap = (1.0 - float(np.array(op.info["s"]) @ cfg.rob[:, 0])) - float(cfg.mu_adv[0])
    want = "never_attack" if gap < -EPS else "always_attack" if gap > EPS else "indifferent"
    _require(adv["case_at_s"] == want, f"adversary case {adv['case_at_s']!r}, expected {want!r}")


def check_envelope(op, text):
    report = strict_json(text)
    cfg = Config(op.spec_path)
    r_max = cfg.e["r_max"]
    segments = report["segments"]
    _require(bool(segments), "empty envelope")
    _require(segments[0]["rho_start"] == 0.0 and segments[-1]["rho_end"] == r_max,
             "envelope does not span [0, r_max]")
    intercepts = cfg.acc - cfg.mu_def
    slopes = cfg.rob[:, 0] - cfg.acc
    for a, b in zip(segments, segments[1:]):
        _require(a["rho_end"] == b["rho_start"], "envelope segments are not contiguous")
    for seg in segments:
        mid = 0.5 * (seg["rho_start"] + seg["rho_end"])
        values = intercepts + slopes * mid
        _require(values[seg["model"]] >= values.max() - EPS,
                 f"model {seg['model']} is not on top at rho = {mid!r}")


CHECKS = {
    "validate": check_validate,
    "solve": check_solve,
    "cases": check_cases,
    "ccr-curve": check_ccr_curve,
    "region-map": check_region_map,
    "dominance": check_dominance,
    "envelope": check_envelope,
    "simulate": check_simulate,
}


def check(op, returncode, text: str) -> Verdict:
    """Check one operation's exit code and output."""
    if returncode != 0:
        return Verdict(f"exit code {returncode}")
    try:
        verdict = CHECKS[op.command](op, text)
    except CheckFailure as err:
        return Verdict(str(err))
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return Verdict(f"malformed report: {type(err).__name__}: {err}")
    return verdict or Verdict()

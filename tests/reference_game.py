"""Per-entry game formulas, kept as the reference for the array game core.

Plain copies of the scalar CCR and EPPS functions, the i-by-j
``payoff_matrices`` loop, the mixed EPPS and utility functions and the
per-cell region-map labelling as they were before ``clfgame`` computed
them from one CCR table and one EPPS table.  ``tests/test_game_core.py``
requires the array code to return bit-identical payoff matrices, pure
payoffs and region maps, and mixed payoffs within 1e-12 relative.

The 2x2 case rules below are copies of the per-player, per-case code
that ``clfgame.analytic`` replaced with one reach rule per player and one
case rule for both: the reachable cases, the case at a strategy, the best
responses and the fully mixed equilibrium.  ``tests/test_case_rules.py``
requires both to agree exactly, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clfgame.analytic import (
    AdversaryCase,
    BestResponseSet,
    DefenderCase,
    MixedEquilibrium2x2,
    _require_ordered,
    defend_threshold,
    delta_acc,
    delta_ccr,
    delta_rob,
)
from clfgame.core import (
    DEFAULT_EPS,
    DimensionError,
    GameSpec,
    Strategy,
    _check_model_index,
    asr,
    asr_mixed,
)
from clfgame.payoff import EppsVector, PayoffMatrices, delta_mu_def, mu_adv
from clfgame.solver import verify_equilibrium


@dataclass(frozen=True, eq=False)
class RegionMap:
    """A region map as the per-cell code built it: one (x, y, label) tuple per cell."""

    map_kind: str
    x_axis: str
    y_axis: str
    params: dict
    xs: np.ndarray
    ys: np.ndarray
    cells: tuple[tuple[float, float, str], ...]
    points: tuple[tuple[str, float, float, str], ...]


def ccr(spec: GameSpec, model_index: int, attack_index: int, rho: float) -> float:
    """Correct classification rate when a fraction rho of samples is perturbed.

    ``rho`` must lie in ``[0, r_max]``.  Against no-attack the rate is the
    clean accuracy regardless of ``rho``.
    """
    _check_model_index(spec, model_index)
    r_max = spec.economics.r_max
    if not 0.0 <= rho <= r_max:
        raise ValueError(f"rho={rho!r} outside [0, r_max={r_max!r}]")
    acc_i = spec.models[model_index].acc
    if not spec.is_real_attack(attack_index):
        return acc_i
    return (1.0 - rho) * acc_i + rho * float(spec.robustness[model_index, attack_index])


def ccr_mixed(spec: GameSpec, model_index: int, r: Strategy) -> float:
    """Expected CCR of a model against a mixed attack choice, at rho = r_max."""
    _check_model_index(spec, model_index)
    if len(r) != spec.n_attacks:
        raise DimensionError(f"adversary strategy length {len(r)} != {spec.n_attacks} actions")
    r_max = spec.economics.r_max
    acc_i = spec.models[model_index].acc
    per_attack = np.empty(spec.n_attacks)
    per_attack[:-1] = (1.0 - r_max) * acc_i + r_max * spec.robustness[model_index, :]
    per_attack[-1] = acc_i
    return float(r.probs @ per_attack)


def epps_adv_pure(spec: GameSpec, model_index: int, attack_index: int) -> float:
    """Adversary EPPS of a real attack against a pure model choice."""
    e = spec.economics
    a = asr(spec, model_index, attack_index)  # rejects NoAttack
    o_j = spec.attacks[attack_index].ongoing_cost
    return -o_j - e.r_minus_adv * (1.0 - a) + e.r_plus_adv * a


def epps_adv(spec: GameSpec, s: Strategy) -> EppsVector:
    """Adversary EPPS of every action against a mixed model choice.

    The no-attack entry is fixed at 0: an idle adversary neither earns
    nor spends per sample.
    """
    if len(s) != spec.n_models:
        raise DimensionError(f"defender strategy length {len(s)} != {spec.n_models} models")
    e = spec.economics
    m = spec.n_attacks
    values = np.zeros(m)
    if m > 1:
        asr_vec = 1.0 - s.probs @ spec.robustness
        costs = np.array([spec.attacks[j].ongoing_cost for j in range(m - 1)])
        values[:-1] = -costs - e.r_minus_adv + (e.r_plus_adv + e.r_minus_adv) * asr_vec
    return EppsVector(values=values, owner="adversary")


def epps_def_pure(spec: GameSpec, model_index: int, attack_index: int) -> float:
    """Defender EPPS of a model against one pure adversary action, at rho = r_max."""
    e = spec.economics
    c = ccr(spec, model_index, attack_index, e.r_max)  # acc_i against NoAttack
    o_i = spec.models[model_index].ongoing_cost
    return -o_i - e.r_minus_def * (1.0 - c) + e.r_plus_def * c


def epps_def(spec: GameSpec, r: Strategy) -> EppsVector:
    """Defender EPPS of every model against a mixed adversary action."""
    if len(r) != spec.n_attacks:
        raise DimensionError(f"adversary strategy length {len(r)} != {spec.n_attacks} actions")
    e = spec.economics
    values = np.array(
        [
            -spec.models[i].ongoing_cost
            - e.r_minus_def
            + (e.r_plus_def + e.r_minus_def) * ccr_mixed(spec, i, r)
            for i in range(spec.n_models)
        ]
    )
    return EppsVector(values=values, owner="defender")


def utility_adv(spec: GameSpec, s: Strategy, r: Strategy) -> float:
    """Adversary utility: -i_adv + n * r_max * <r, EPPS_adv(s)>."""
    e = spec.economics
    return -e.i_adv + e.n * e.r_max * float(r.probs @ epps_adv(spec, s).values)


def utility_def(spec: GameSpec, s: Strategy, r: Strategy) -> float:
    """Defender utility: -i_def + n * <s, EPPS_def(r)>."""
    e = spec.economics
    return -e.i_def + e.n * float(s.probs @ epps_def(spec, r).values)


def payoff_matrices(spec: GameSpec) -> PayoffMatrices:
    """Utilities of every pure action pair, as two N x M matrices.

    Row i, column j holds each player's utility when model i meets action
    j; the last column is the no-attack action, where the adversary's
    utility is exactly ``-i_adv``.  Bilinearity makes mixed utilities
    equal ``s^T U r`` for both matrices.
    """
    e = spec.economics
    n_models, n_attacks = spec.n_models, spec.n_attacks
    u_adv = np.empty((n_models, n_attacks))
    u_def = np.empty((n_models, n_attacks))
    for i in range(n_models):
        for j in range(n_attacks):
            if spec.is_real_attack(j):
                u_adv[i, j] = -e.i_adv + e.n * e.r_max * epps_adv_pure(spec, i, j)
            else:
                u_adv[i, j] = -e.i_adv
            u_def[i, j] = -e.i_def + e.n * epps_def_pure(spec, i, j)
    return PayoffMatrices(u_adv=u_adv, u_def=u_def)


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


def adversary_case(spec: GameSpec, s: Strategy, eps: float = DEFAULT_EPS) -> AdversaryCase:
    """Which regime the adversary is in against defender mix ``s``."""
    _require_ordered(spec)
    gap = asr_mixed(spec, s, 0) - mu_adv(spec, 0)
    if gap < -eps:
        return AdversaryCase.NEVER_ATTACK
    if gap > eps:
        return AdversaryCase.ALWAYS_ATTACK
    return AdversaryCase.INDIFFERENT


def adversary_preconditions(spec: GameSpec) -> frozenset[AdversaryCase]:
    """Which adversary regimes are reachable for *some* defender mix.

    ASR(s) sweeps [1 - rob_2, 1 - rob_1] as s_1 runs over [0, 1], so each
    regime is reachable iff the break-even point sits on the right side of
    (or inside) that interval.
    """
    _require_ordered(spec)
    m = mu_adv(spec, 0)
    rob1 = float(spec.robustness[0, 0])
    rob2 = float(spec.robustness[1, 0])
    out = set()
    if 1.0 - m < rob2:
        out.add(AdversaryCase.NEVER_ATTACK)
    if rob1 < 1.0 - m:
        out.add(AdversaryCase.ALWAYS_ATTACK)
    if rob1 <= 1.0 - m <= rob2:
        out.add(AdversaryCase.INDIFFERENT)
    return frozenset(out)


def defender_case(spec: GameSpec, r: Strategy, eps: float = DEFAULT_EPS) -> DefenderCase:
    """Which regime the defender is in against adversary mix ``r``."""
    _require_ordered(spec)
    gap = delta_ccr(spec, r) - delta_mu_def(spec)
    if gap < -eps:
        return DefenderCase.ALWAYS_DEFEND
    if gap > eps:
        return DefenderCase.NEVER_DEFEND
    return DefenderCase.INDIFFERENT


def defender_preconditions(spec: GameSpec) -> frozenset[DefenderCase]:
    """Which defender regimes are reachable for *some* adversary mix."""
    _require_ordered(spec)
    t = defend_threshold(spec)
    r_max = spec.economics.r_max
    out = set()
    if t < r_max:
        out.add(DefenderCase.ALWAYS_DEFEND)
    if delta_mu_def(spec) < delta_acc(spec):
        out.add(DefenderCase.NEVER_DEFEND)
    if 0.0 <= t <= r_max:
        out.add(DefenderCase.INDIFFERENT)
    return frozenset(out)


def best_response_adv(spec: GameSpec, s: Strategy, eps: float = DEFAULT_EPS) -> BestResponseSet:
    """Adversary best response to defender mix ``s``: attack, idle, or any mix."""
    case = adversary_case(spec, s, eps)
    if case is AdversaryCase.ALWAYS_ATTACK:
        return BestResponseSet.pure(0)
    if case is AdversaryCase.NEVER_ATTACK:
        return BestResponseSet.pure(spec.no_attack_index)
    return BestResponseSet.any_mix()


def best_response_def(spec: GameSpec, r: Strategy, eps: float = DEFAULT_EPS) -> BestResponseSet:
    """Defender best response to adversary mix ``r``: model 1, model 2, or any mix."""
    case = defender_case(spec, r, eps)
    if case is DefenderCase.NEVER_DEFEND:
        return BestResponseSet.pure(0)
    if case is DefenderCase.ALWAYS_DEFEND:
        return BestResponseSet.pure(1)
    return BestResponseSet.any_mix()


def mixed_nash_2x2(spec: GameSpec, eps: float = DEFAULT_EPS) -> MixedEquilibrium2x2 | None:
    """The unique fully mixed equilibrium, or None when it does not exist.

    Exists exactly when both indifference points are interior:
    ``rob_1 < 1 - mu_adv < rob_2`` and ``0 < t < r_max`` for the defend
    threshold ``t``.  Boundary equality produces no fully mixed point and
    returns None; so does ``r_max = 0``.  The returned strategies are
    certified against the full payoff matrices and the deviation gains
    are reported as residuals.
    """
    _require_ordered(spec)
    e = spec.economics
    if e.r_max <= 0.0:
        return None
    m = mu_adv(spec, 0)
    rob1 = float(spec.robustness[0, 0])
    rob2 = float(spec.robustness[1, 0])
    if not rob1 < 1.0 - m < rob2:
        return None
    t = defend_threshold(spec)
    if not 0.0 < t < e.r_max:
        return None
    s1 = (rob2 - 1.0 + m) / delta_rob(spec)
    r1 = t / e.r_max
    s_star = Strategy((s1, 1.0 - s1))
    r_star = Strategy((r1, 1.0 - r1))
    cert = verify_equilibrium(payoff_matrices(spec), s_star, r_star, tol=eps)
    return MixedEquilibrium2x2(
        s_star=s_star,
        r_star=r_star,
        residuals=(cert.adv_gain, cert.def_gain),
        unique=True,
    )

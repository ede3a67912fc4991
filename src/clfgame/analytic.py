"""Closed-form analysis of the two-model, attack-or-not game.

Under the strict ordering ``acc_1 > acc_2 > rob_2 > rob_1`` (model 1
accurate but fragile, model 2 hardened) each player's best response is
governed by a single affine quantity:

* adversary: ``ASR(s) = 1 - rob_2 + s_1 * (rob_2 - rob_1)``, strictly
  increasing in the weight on the fragile model.  Attack beats idle
  exactly when ``ASR(s)`` clears the break-even threshold ``mu_adv``.
* defender: ``dCCR(r) = dacc - r_1 * r_max * (dacc + drob)``, strictly
  decreasing in the attack weight ``r_1``.  Model 1 beats model 2 exactly
  when ``dCCR(r)`` clears the break-even gap ``dmu_def``.

Each player therefore has three regimes (prefer one action, prefer the
other, indifferent), and when both indifference conditions can hold in
the interior the game has a unique fully mixed equilibrium with

    s_1* = (rob_2 - 1 + mu_adv) / (rob_2 - rob_1)
    r_1* = (dacc - dmu_def) / ((dacc + drob) * r_max)

Everything here is exact arithmetic on the inputs; no iteration.
:func:`build_region_map` labels whole planes of such games at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS,
    DimensionError,
    GameSpec,
    Strategy,
    _check_model_index,
    _require_real_attack,
    asr_mixed,
    check_attack_index,
    check_ordering_2x2,
)
from .payoff import delta_mu_def, mu_adv, payoff_matrices
from .solver import verify_equilibrium


class OrderingError(ValueError):
    """The 2x2 closed-form analysis needs acc_1 > acc_2 > rob_2 > rob_1."""


class AdversaryCase(enum.Enum):
    """Adversary regime: ASR(s) below, above or at ``mu_adv``, in that order.

    ``DefenderCase`` shares the order, which the case and reach rules index.
    """

    NEVER_ATTACK = "never_attack"  # case 1: ASR below break-even, idle is optimal
    ALWAYS_ATTACK = "always_attack"  # case 2: ASR above break-even, attack is optimal
    INDIFFERENT = "indifferent"  # case 3: exactly at break-even, any mix optimal


class DefenderCase(enum.Enum):
    """Defender regime: dCCR(r) below, above or at ``dmu_def``, in that order."""

    ALWAYS_DEFEND = "always_defend"  # case A: hardened model 2 is optimal
    NEVER_DEFEND = "never_defend"  # case B: accurate model 1 is optimal
    INDIFFERENT = "indifferent"  # case C: exactly at break-even, any mix optimal


@dataclass(frozen=True)
class BestResponseSet:
    """Either one pure action or the whole simplex (under indifference)."""

    pure_index: int | None

    @classmethod
    def pure(cls, index: int) -> "BestResponseSet":
        return cls(pure_index=index)

    @classmethod
    def any_mix(cls) -> "BestResponseSet":
        return cls(pure_index=None)

    @property
    def is_any_mix(self) -> bool:
        return self.pure_index is None

    def contains(self, index: int) -> bool:
        return self.pure_index is None or self.pure_index == index


@dataclass(frozen=True, eq=False)
class MixedEquilibrium2x2:
    """The unique fully mixed equilibrium, when the interior conditions hold.

    ``residuals`` are the certified deviation-gain bounds (adversary,
    defender) measured against the full payoff matrices.
    """

    s_star: Strategy
    r_star: Strategy
    residuals: tuple[float, float]
    unique: bool = True


def _require_2x2(spec: GameSpec) -> None:
    if spec.n_models != 2 or spec.n_attacks != 2:
        raise DimensionError(
            f"closed-form analysis requires 2 models and 2 attack actions, "
            f"got {spec.n_models} and {spec.n_attacks}"
        )


def _require_ordered(spec: GameSpec) -> None:
    _require_2x2(spec)
    if not check_ordering_2x2(spec):
        raise OrderingError("ordering acc_1 > acc_2 > rob_2 > rob_1 does not hold")


def delta_acc(spec: GameSpec) -> float:
    """Clean-accuracy gap acc_1 - acc_2."""
    _require_2x2(spec)
    return spec.models[0].acc - spec.models[1].acc


def delta_rob(spec: GameSpec) -> float:
    """Robustness gap rob_2 - rob_1."""
    _require_2x2(spec)
    return float(spec.robustness[1, 0] - spec.robustness[0, 0])


def delta_ccr(spec: GameSpec, r: Strategy) -> float:
    """CCR gap of model 1 over model 2 against a mixed adversary action.

    Affine in the attack weight: dacc - r_1 * r_max * (dacc + drob).
    """
    _require_2x2(spec)
    if len(r) != 2:
        raise DimensionError("adversary strategy must have length 2")
    r1 = float(r.probs[0])
    da, dr = delta_acc(spec), delta_rob(spec)
    return da - r1 * spec.economics.r_max * (da + dr)


def _case_at(cases: type[enum.Enum], gap: float, eps: float):
    """The member of ``cases`` for ``gap`` = quantity - break-even: below, above or at."""
    below, above, at = cases
    if gap < -eps:
        return below
    if gap > eps:
        return above
    return at


def _reachable(cases: type[enum.Enum], flags) -> frozenset:
    return frozenset(case for case, ok in zip(cases, flags) if ok)


# action 1 below break-even, action 0 above, any mix at: for both players
_RESPONSES = (BestResponseSet.pure(1), BestResponseSet.pure(0), BestResponseSet.any_mix())


def _best_response(case: enum.Enum) -> BestResponseSet:
    return _RESPONSES[list(type(case)).index(case)]


def _adversary_reach(rob_2, rob_1, mu):
    """Whether ASR(s) can fall below, rise above and sit at ``mu``, on floats or arrays.

    ASR(s) sweeps [1 - rob_2, 1 - rob_1] as s_1 runs over [0, 1].
    """
    b = 1.0 - mu
    return b < rob_2, rob_1 < b, (rob_1 <= b) & (b <= rob_2)


def _defender_reach(t, r_max):
    """Whether dCCR(r) can fall below, rise above and sit at ``dmu_def``, on floats or arrays.

    dCCR crosses break-even at the attacked fraction ``t`` (the defend
    threshold), and ``r_1 * r_max`` sweeps [0, r_max].  Above reads ``t > 0``,
    not ``dmu_def < dacc``: under the ordering ``0 < dacc + drob < 2``, so ``t``
    has the sign of ``dacc - dmu_def``, and a nonzero numerator divided by a
    number below 2 cannot round to 0.
    """
    return t < r_max, t > 0.0, (0.0 <= t) & (t <= r_max)


def adversary_case(spec: GameSpec, s: Strategy, eps: float = DEFAULT_EPS) -> AdversaryCase:
    """Which regime the adversary is in against defender mix ``s``."""
    _require_ordered(spec)
    return _case_at(AdversaryCase, asr_mixed(spec, s, 0) - mu_adv(spec, 0), eps)


def adversary_preconditions(spec: GameSpec) -> frozenset[AdversaryCase]:
    """Which adversary regimes are reachable for *some* defender mix."""
    _require_ordered(spec)
    rob_1, rob_2 = spec.robustness[:, 0].tolist()
    return _reachable(AdversaryCase, _adversary_reach(rob_2, rob_1, mu_adv(spec, 0)))


def defender_case(spec: GameSpec, r: Strategy, eps: float = DEFAULT_EPS) -> DefenderCase:
    """Which regime the defender is in against adversary mix ``r``."""
    _require_ordered(spec)
    return _case_at(DefenderCase, delta_ccr(spec, r) - delta_mu_def(spec), eps)


def defender_preconditions(spec: GameSpec) -> frozenset[DefenderCase]:
    """Which defender regimes are reachable for *some* adversary mix."""
    _require_ordered(spec)
    return _reachable(DefenderCase, _defender_reach(defend_threshold(spec), spec.economics.r_max))


def best_response_adv(spec: GameSpec, s: Strategy, eps: float = DEFAULT_EPS) -> BestResponseSet:
    """Adversary best response to defender mix ``s``: attack, idle, or any mix."""
    return _best_response(adversary_case(spec, s, eps))


def best_response_def(spec: GameSpec, r: Strategy, eps: float = DEFAULT_EPS) -> BestResponseSet:
    """Defender best response to adversary mix ``r``: model 1, model 2, or any mix."""
    return _best_response(defender_case(spec, r, eps))


def defend_threshold(spec: GameSpec) -> float:
    """Attack budget above which the hardened model enters the picture.

    Equals (dacc - dmu_def) / (dacc + drob); with equal ongoing model
    costs this reduces to dacc / (dacc + drob).  If ``r_max`` stays at or
    below this threshold the accurate model is a best response against
    every adversary mix, i.e. hardening cannot pay off.
    """
    _require_ordered(spec)
    return _defend_threshold(delta_acc(spec), delta_rob(spec), delta_mu_def(spec))


def _defend_threshold(d_acc, d_rob, d_mu):
    """The defend threshold (d_acc - d_mu) / (d_acc + d_rob), on floats or arrays."""
    return (d_acc - d_mu) / (d_acc + d_rob)


def mixed_nash_2x2(spec: GameSpec, eps: float = DEFAULT_EPS) -> MixedEquilibrium2x2 | None:
    """The unique fully mixed equilibrium, or None when it does not exist.

    Exists exactly when both players can land strictly on either side of
    break-even: ``rob_1 < 1 - mu_adv < rob_2`` and ``0 < t < r_max`` for the
    defend threshold ``t``.  Boundary equality, ``r_max = 0`` included,
    gives None.  The returned strategies are certified against the full
    payoff matrices and the deviation gains are reported as residuals.
    """
    _require_ordered(spec)
    r_max = spec.economics.r_max
    rob_1, rob_2 = spec.robustness[:, 0].tolist()
    m = mu_adv(spec, 0)
    t = defend_threshold(spec)
    if not all(_adversary_reach(rob_2, rob_1, m)[:2] + _defender_reach(t, r_max)[:2]):
        return None
    s1 = (rob_2 - 1.0 + m) / delta_rob(spec)
    r1 = t / r_max
    s_star = Strategy((s1, 1.0 - s1))
    r_star = Strategy((r1, 1.0 - r1))
    cert = verify_equilibrium(payoff_matrices(spec), s_star, r_star, tol=eps)
    return MixedEquilibrium2x2(
        s_star=s_star,
        r_star=r_star,
        residuals=(cert.adv_gain, cert.def_gain),
        unique=True,
    )


def ccr_intersection(spec: GameSpec, model_a: int, model_b: int, attack_index: int) -> float | None:
    """Perturbed fraction where two models' CCR lines against one attack cross.

    Returns the exact crossing point when it lies in [0, 1]; None when the
    lines are parallel or cross outside the unit interval.
    """
    _check_model_index(spec, model_a)
    _check_model_index(spec, model_b)
    _require_real_attack(spec, attack_index)
    dacc = spec.models[model_a].acc - spec.models[model_b].acc
    drob = float(spec.robustness[model_b, attack_index] - spec.robustness[model_a, attack_index])
    if dacc + drob == 0.0:
        return None
    rho = _defend_threshold(dacc, drob, 0.0)
    if 0.0 <= rho <= 1.0:
        return rho
    return None


# Case labels of the region maps; a map's codes are indices into these tuples.
ADV_CASE_LABELS = ("invalid", "Case 1", "Case 2", "Case 3 (and 1&2) possible")
DEF_CASE_LABELS = ("invalid", "Case A", "Case B", "Case C (and A&B) possible")


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Rasterised case labels over a 2-d parameter plane, plus overlay points.

    The cell at ``(xs[i], ys[j])`` holds ``labels[codes[i, j]]``.
    """

    map_kind: str  # "adv" | "def"
    x_axis: str
    y_axis: str
    params: dict
    xs: np.ndarray
    ys: np.ndarray
    labels: tuple[str, str, str, str]
    codes: np.ndarray  # uint8, shape (grid, grid)
    points: tuple[tuple[str, float, float, str], ...]


def _region_codes(invalid, reach) -> np.ndarray:
    """Case-label indices from reach flags: at if reachable, else the one side reached."""
    _, above, at = reach
    return np.select([invalid, at, above], [0, 3, 2], default=1).astype(np.uint8)


def _adversary_codes(rob_2: np.ndarray, rob_1: np.ndarray, mu_adv: float) -> np.ndarray:
    """Reachable adversary cases at (rob_2, rob_1) points, as ADV_CASE_LABELS indices."""
    return _region_codes(rob_1 >= rob_2, _adversary_reach(rob_2, rob_1, mu_adv))


def _defender_codes(
    d_rob: np.ndarray, d_acc: np.ndarray, delta_mu_def: float, r_max: float
) -> np.ndarray:
    """Reachable defender cases at (delta_rob, delta_acc) points, as DEF_CASE_LABELS indices."""
    invalid = (d_acc <= 0.0) | (d_rob <= 0.0) | (d_acc + d_rob >= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # only invalid points divide by 0
        t = _defend_threshold(d_acc, d_rob, delta_mu_def)
    return _region_codes(invalid, _defender_reach(t, r_max))


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
    explicitly lets one map be drawn for a whole family of games.  The adv
    map reads only ``mu``, the def map only ``d_mu`` and ``r_max``; passing
    one the map does not read raises ValueError.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    unread = {"adv": {"delta_mu_def": d_mu, "r_max": r_max}, "def": {"mu_adv": mu}}
    for key, value in unread.get(map_kind, {}).items():
        if value is not None:
            raise ValueError(f"{key} does not apply to the {map_kind} map")
    check_attack_index(spec, attack_index)
    rob = spec.robustness[:, attack_index]
    xs = np.linspace(0.0, 1.0, grid)
    if map_kind == "adv":
        if mu is None:
            mu = mu_adv(spec, attack_index)
        ys = np.linspace(0.0, 1.0, grid)
        point_xs, point_ys = rob[1:], np.full(spec.n_models - 1, rob[0])
        axes, labels, codes = ("rob_2", "rob_1"), ADV_CASE_LABELS, _adversary_codes
        params = {"mu_adv": mu}
    elif map_kind == "def":
        if d_mu is None:
            try:
                d_mu = delta_mu_def(spec)
            except DimensionError:
                d_mu = 0.0
        if r_max is None:
            r_max = spec.economics.r_max
        if not 0.0 <= r_max <= 1.0:
            raise ValueError("r_max out of [0,1]")
        ys = np.linspace(-0.3, 1.0, grid)
        point_xs, point_ys = rob[1:] - rob[0], spec.acc[0] - spec.acc[1:]
        axes, labels, codes = ("delta_rob", "delta_acc"), DEF_CASE_LABELS, _defender_codes
        params = {"delta_mu_def": d_mu, "r_max": r_max}
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")

    cell_codes = codes(xs[:, None], ys[None, :], **params)
    names = [f"{spec.models[0].name}_vs_{spec.models[k].name}" for k in range(1, spec.n_models)]
    point_labels = [labels[c] for c in codes(point_xs, point_ys, **params).tolist()]
    points = tuple(zip(names, point_xs.tolist(), point_ys.tolist(), point_labels))
    return RegionMap(map_kind, *axes, params, xs, ys, labels, cell_codes, points)

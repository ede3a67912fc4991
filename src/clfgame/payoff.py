"""Expected per-sample payoffs (EPPS), utilities, and payoff matrices.

For the adversary, a perturbed sample either fools the deployed model
(probability ASR, reward ``r_plus_adv``) or is caught (penalty
``r_minus_adv``), and always bears the attack's ongoing cost.  For the
defender the same logic runs on correct classification.  Break-even
accuracy thresholds fall out directly:

    mu_adv_j = (o_j + r_minus_adv) / (r_plus_adv + r_minus_adv)
    mu_def_i = (o_i + r_minus_def) / (r_plus_def + r_minus_def)

An attack is worth running exactly when its ASR clears ``mu_adv``;
a model earns its keep when its CCR clears ``mu_def_i``.

Utilities scale EPPS by the deployment horizon: the adversary touches
``n * r_max`` samples, the defender classifies all ``n``.  Both are
bilinear in the mixed strategies, which is what lets the general
bimatrix machinery operate on plain payoff matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GameSpec,
    Strategy,
    DimensionError,
    _check_model_index,
    _frozen_array,
    _require_real_attack,
    ccr_table,
)


@dataclass(frozen=True, eq=False)
class EppsVector:
    """Per-action expected per-sample payoff for one player."""

    values: np.ndarray
    owner: str  # "adversary" or "defender"

    def __post_init__(self) -> None:
        if self.owner not in ("adversary", "defender"):
            raise ValueError(f"unknown owner {self.owner!r}")
        object.__setattr__(self, "values", _frozen_array(self.values))


@dataclass(frozen=True, eq=False)
class PayoffMatrices:
    """N x M utility grids for both players over pure action pairs."""

    u_adv: np.ndarray
    u_def: np.ndarray

    def __post_init__(self) -> None:
        u_adv = np.asarray(self.u_adv, dtype=float)
        u_def = np.asarray(self.u_def, dtype=float)
        if u_adv.ndim != 2 or u_adv.shape != u_def.shape:
            raise DimensionError(
                f"payoff matrices must share a 2-d shape, got {u_adv.shape} and {u_def.shape}"
            )
        object.__setattr__(self, "u_adv", _frozen_array(u_adv))
        object.__setattr__(self, "u_def", _frozen_array(u_def))

    @property
    def n_rows(self) -> int:
        return int(self.u_adv.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.u_adv.shape[1])


def _adv_denominator(spec: GameSpec) -> float:
    e = spec.economics
    denom = e.r_plus_adv + e.r_minus_adv
    if denom <= 0.0:
        raise ValueError("r_plus_adv + r_minus_adv must be positive")
    return denom


def _def_denominator(spec: GameSpec) -> float:
    e = spec.economics
    denom = e.r_plus_def + e.r_minus_def
    if denom <= 0.0:
        raise ValueError("r_plus_def + r_minus_def must be positive")
    return denom


def mu_adv(spec: GameSpec, attack_index: int) -> float:
    """Break-even ASR of a real attack: below it the attack loses money."""
    _require_real_attack(spec, attack_index)
    e = spec.economics
    o_j = spec.attacks[attack_index].ongoing_cost
    return (o_j + e.r_minus_adv) / _adv_denominator(spec)


def mu_def(spec: GameSpec, model_index: int) -> float:
    """Break-even CCR of a model: below it operating the model loses money."""
    _check_model_index(spec, model_index)
    e = spec.economics
    o_i = spec.models[model_index].ongoing_cost
    return (o_i + e.r_minus_def) / _def_denominator(spec)


def delta_mu_def(spec: GameSpec) -> float:
    """Break-even gap mu_def_1 - mu_def_2 = (o_1 - o_2) / (r_plus_def + r_minus_def)."""
    if spec.n_models != 2:
        raise DimensionError("delta_mu_def requires exactly 2 models")
    o1 = spec.models[0].ongoing_cost
    o2 = spec.models[1].ongoing_cost
    return (o1 - o2) / _def_denominator(spec)


def epps_tables(spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample payoffs of every pure action pair: ``(E_adv, E_def)``, both N x M.

    A player with success rate ``rate`` (ASR for the adversary, CCR at
    ``rho = r_max`` for the defender) earns ``r_plus`` on a success, pays
    ``r_minus`` on a failure and bears its ongoing cost.  The adversary's
    no-attack column is 0: an idle adversary neither earns nor spends.
    """

    def epps(cost, r_minus, r_plus, rate):
        return -cost - r_minus * (1.0 - rate) + r_plus * rate

    e = spec.economics
    asr = np.zeros((spec.n_models, spec.n_attacks))
    asr[:, :-1] = 1.0 - spec.robustness
    e_adv = epps(spec.attack_costs, e.r_minus_adv, e.r_plus_adv, asr)
    e_adv[:, -1] = 0.0
    e_def = epps(spec.model_costs[:, None], e.r_minus_def, e.r_plus_def, ccr_table(spec, e.r_max))
    return e_adv, e_def


def epps_adv_pure(spec: GameSpec, model_index: int, attack_index: int) -> float:
    """Adversary EPPS of a real attack against a pure model choice."""
    _check_model_index(spec, model_index)
    _require_real_attack(spec, attack_index)
    return float(epps_tables(spec)[0][model_index, attack_index])


def epps_adv(spec: GameSpec, s: Strategy) -> EppsVector:
    """Adversary EPPS of every action against a mixed model choice: ``s @ E_adv``.

    The no-attack entry is 0: an idle adversary neither earns nor spends
    per sample.
    """
    if len(s) != spec.n_models:
        raise DimensionError(f"defender strategy length {len(s)} != {spec.n_models} models")
    return EppsVector(values=s.probs @ epps_tables(spec)[0], owner="adversary")


def epps_def_pure(spec: GameSpec, model_index: int, attack_index: int) -> float:
    """Defender EPPS of a model against one pure adversary action, at rho = r_max."""
    _check_model_index(spec, model_index)
    spec.is_real_attack(attack_index)  # raises IndexError when out of range
    return float(epps_tables(spec)[1][model_index, attack_index])


def epps_def(spec: GameSpec, r: Strategy) -> EppsVector:
    """Defender EPPS of every model against a mixed adversary action: ``E_def @ r``."""
    if len(r) != spec.n_attacks:
        raise DimensionError(f"adversary strategy length {len(r)} != {spec.n_attacks} actions")
    return EppsVector(values=epps_tables(spec)[1] @ r.probs, owner="defender")


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
    e_adv, e_def = epps_tables(spec)
    u_adv = -e.i_adv + e.n * e.r_max * e_adv
    u_adv[:, -1] = -e.i_adv  # not -i_adv + 0.0, which turns -0.0 into 0.0
    return PayoffMatrices(u_adv=u_adv, u_def=-e.i_def + e.n * e_def)

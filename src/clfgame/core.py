"""Domain model for the classifier attack/defence game.

A defender deploys one of N classifier models; an adversary controls up to
a fraction ``r_max`` of the sample stream and either perturbs it with one
of M-1 attack methods or leaves it alone (the distinguished no-attack
action, always listed last).  Model quality is summarised by clean
accuracy ``acc_i`` and per-attack robustness ``rob_ij``; economics enter
through per-sample rewards, per-sample ongoing costs, and one-off
investments.

Two per-sample metrics drive everything downstream:

* ASR (attack success rate): ``asr_ij = 1 - rob_ij``.  Undefined for the
  no-attack action.
* CCR (correct classification rate) at perturbed fraction ``rho``:
  ``ccr_ij(rho) = (1 - rho) * acc_i + rho * rob_ij``, and ``acc_i``
  against no-attack regardless of ``rho``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Absolute tolerance on strategy normalisation: vectors whose entries sum
# to 1 within this bound are renormalised exactly, anything further off is
# rejected.
STRATEGY_SUM_TOL = 1e-12

# Default tolerance for closed-form case comparisons and equilibrium
# certification throughout the package.
DEFAULT_EPS = 1e-9


class DimensionError(ValueError):
    """An operation was given a game of the wrong shape."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelProfile:
    """One classifier the defender can deploy."""

    name: str
    acc: float
    ongoing_cost: float = 0.0


@dataclass(frozen=True)
class AttackAction:
    """One adversary action: a real attack method, or no-attack."""

    name: str
    ongoing_cost: float = 0.0
    no_attack: bool = False


def no_attack_action(name: str = "no_attack") -> AttackAction:
    """The distinguished do-nothing adversary action (zero ongoing cost)."""
    return AttackAction(name=name, ongoing_cost=0.0, no_attack=True)


@dataclass(frozen=True)
class EconomicParams:
    """Reward/cost structure for both players.

    ``r_plus_*`` / ``r_minus_*`` are per-sample rewards and penalties,
    ``i_*`` one-off investments, ``n`` the number of samples classified
    over the deployment horizon, and ``r_max`` the largest fraction of the
    stream the adversary can control.
    """

    r_plus_def: float
    r_minus_def: float
    r_plus_adv: float
    r_minus_adv: float
    i_def: float = 0.0
    i_adv: float = 0.0
    n: int = 1
    r_max: float = 1.0


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one game instance.

    ``robustness`` holds ``rob_ij`` for the N models against the M-1 real
    attacks (the no-attack column is implicit).  Instances are cheap
    value objects; all invariant checking lives in :func:`validate_spec`
    so that malformed instances can be constructed, inspected and
    reported on.
    """

    models: tuple[ModelProfile, ...]
    attacks: tuple[AttackAction, ...]
    robustness: np.ndarray
    economics: EconomicParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        try:
            rob = np.array(self.robustness, dtype=float)
        except OverflowError:
            rob = np.vectorize(_as_float, otypes=[float])(np.array(self.robustness, dtype=object))
        if rob.ndim == 1:
            # single real attack given as a flat column
            rob = rob.reshape(-1, 1)
        rob.setflags(write=False)
        object.__setattr__(self, "robustness", rob)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def n_attacks(self) -> int:
        return len(self.attacks)

    @property
    def no_attack_index(self) -> int:
        return len(self.attacks) - 1

    @property
    def acc(self) -> np.ndarray:
        return _frozen_array([m.acc for m in self.models])

    @property
    def model_costs(self) -> np.ndarray:
        return _frozen_array([m.ongoing_cost for m in self.models])

    @property
    def attack_costs(self) -> np.ndarray:
        """Ongoing cost of every adversary action, no-attack (0) last."""
        return _frozen_array([a.ongoing_cost for a in self.attacks])

    def real_attack_indices(self) -> range:
        return range(len(self.attacks) - 1)

    def is_real_attack(self, attack_index: int) -> bool:
        if not 0 <= attack_index < len(self.attacks):
            raise IndexError(f"attack index {attack_index} out of range")
        return not self.attacks[attack_index].no_attack

    def model_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.models)

    def attack_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attacks)


@dataclass(frozen=True, eq=False)
class Strategy:
    """A mixed strategy: nonnegative weights summing to one.

    Inputs whose sum is within ``STRATEGY_SUM_TOL`` of 1 are renormalised
    exactly; anything further off is rejected.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("strategy must be a non-empty 1-d probability vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("strategy entries must be finite")
        if np.any(probs < 0.0):
            raise ValueError("strategy entries must be nonnegative")
        with np.errstate(over="ignore"):  # a sum beyond the float range is inf
            total = float(probs.sum())
        if abs(total - 1.0) > STRATEGY_SUM_TOL:
            raise ValueError(
                f"strategy entries must sum to 1 within {STRATEGY_SUM_TOL}, got {total!r}"
            )
        object.__setattr__(self, "probs", _frozen_array(probs / total))

    def __len__(self) -> int:
        return int(self.probs.size)

    @classmethod
    def pure(cls, index: int, size: int) -> "Strategy":
        if not 0 <= index < size:
            raise IndexError(f"pure-strategy index {index} out of range for size {size}")
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, size: int) -> "Strategy":
        return cls(np.full(size, 1.0 / size))

    def pure_index(self) -> int | None:
        """Index of the single supported action, or None if truly mixed."""
        k = int(np.argmax(self.probs))
        return k if self.probs[k] == 1.0 else None


def _as_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _is_finite(value: float) -> bool:
    return math.isfinite(_as_float(value))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_spec(spec: GameSpec) -> ValidationReport:
    """Check every structural and numeric invariant of a game instance.

    Returns a report listing all violations rather than stopping at the
    first, so a CLI run can show the user everything wrong with a config
    at once.
    """
    bad: list[str] = []
    n, m = spec.n_models, spec.n_attacks

    if n < 1:
        bad.append("at least one model required")
    if m < 2:
        bad.append("at least two attack actions required (one real attack plus no-attack)")

    # NaN passes every range comparison below, so finiteness is checked first
    for model in spec.models:
        if not 0.0 <= model.acc <= 1.0:
            bad.append(f"model {model.name!r}: acc out of [0,1]")
        if not _is_finite(model.ongoing_cost):
            bad.append(f"model {model.name!r}: ongoing_cost must be finite")
        elif model.ongoing_cost < 0.0:
            bad.append(f"model {model.name!r}: ongoing_cost must be >= 0")

    flagged = [a for a in spec.attacks if a.no_attack]
    if len(flagged) != 1:
        bad.append(f"exactly one NoAttack action required, found {len(flagged)}")
    elif not spec.attacks[-1].no_attack:
        bad.append("the NoAttack action must be last in the attack list")
    for attack in spec.attacks:
        if not _is_finite(attack.ongoing_cost):
            bad.append(f"attack {attack.name!r}: ongoing_cost must be finite")
        elif attack.ongoing_cost < 0.0:
            bad.append(f"attack {attack.name!r}: ongoing_cost must be >= 0")
        if attack.no_attack and attack.ongoing_cost != 0.0:
            bad.append("NoAttack ongoing cost must be exactly 0")

    for kind, names in (("model", spec.model_names()), ("attack", spec.attack_names())):
        for name, count in Counter(names).items():
            if count > 1:
                bad.append(f"{kind} name {name!r} is not unique")

    rob = spec.robustness
    if rob.shape != (n, max(m - 1, 0)):
        bad.append(
            f"robustness shape {rob.shape} does not match (N, M-1) = ({n}, {m - 1})"
        )
    elif not np.all(np.isfinite(rob)):
        bad.append("robustness must be finite")
    elif rob.size and (np.any(rob < 0.0) or np.any(rob > 1.0)):
        bad.append("robustness out of [0,1]")

    e = spec.economics
    for label, value in (
        ("r_plus_def", e.r_plus_def),
        ("r_minus_def", e.r_minus_def),
        ("r_plus_adv", e.r_plus_adv),
        ("r_minus_adv", e.r_minus_adv),
        ("i_def", e.i_def),
        ("i_adv", e.i_adv),
    ):
        if not _is_finite(value):
            bad.append(f"economics: {label} must be finite")
        elif value < 0.0:
            bad.append(f"economics: {label} must be >= 0")
    if e.r_plus_adv + e.r_minus_adv <= 0.0:
        bad.append("economics: r_plus_adv + r_minus_adv must be positive")
    if e.r_plus_def + e.r_minus_def <= 0.0:
        bad.append("economics: r_plus_def + r_minus_def must be positive")
    if not _is_finite(e.n):
        bad.append("economics: n must be finite")
    elif int(e.n) != e.n or e.n < 1:
        bad.append("economics: n must be an integer >= 1")
    if not 0.0 <= e.r_max <= 1.0:
        bad.append("economics: r_max out of [0,1]")

    return ValidationReport(ok=not bad, violations=tuple(bad))


def _check_model_index(spec: GameSpec, model_index: int) -> None:
    if not 0 <= model_index < spec.n_models:
        raise IndexError(f"model index {model_index} out of range")


def _require_real_attack(spec: GameSpec, attack_index: int) -> None:
    if not spec.is_real_attack(attack_index):
        raise ValueError("ASR undefined for NoAttack")


def check_attack_index(spec: GameSpec, attack_index: int) -> None:
    """Reject any index but a real attack's, 0..M-2, with a ValueError."""
    if attack_index not in spec.real_attack_indices():
        raise ValueError(
            f"attack index {attack_index} out of range: "
            f"the real attacks are 0..{spec.n_attacks - 2}"
        )


def check_ordering_2x2(spec: GameSpec) -> bool:
    """Whether acc_1 > acc_2 > rob_2 > rob_1 holds (strictly).

    The closed-form two-model analysis assumes model 1 is the accurate
    undefended model and model 2 the hardened one, with hardening that
    costs clean accuracy but pays off under attack.
    """
    if spec.n_models != 2 or spec.n_attacks != 2:
        raise DimensionError("ordering check requires exactly 2 models and 2 attack actions")
    acc1, acc2 = spec.models[0].acc, spec.models[1].acc
    rob1, rob2 = float(spec.robustness[0, 0]), float(spec.robustness[1, 0])
    return acc1 > acc2 > rob2 > rob1


def asr(spec: GameSpec, model_index: int, attack_index: int) -> float:
    """Attack success rate of a real attack against a model."""
    _check_model_index(spec, model_index)
    _require_real_attack(spec, attack_index)
    return 1.0 - float(spec.robustness[model_index, attack_index])


def ccr_table(spec: GameSpec, rho) -> np.ndarray:
    """CCR of every model against every action, at perturbed fraction ``rho``.

    The table is N x M with the no-attack column equal to ``acc``; an
    array ``rho`` adds its shape as leading axes.  ``rho`` is not checked
    against ``r_max``.
    """
    rho = np.asarray(rho, dtype=float)[..., None, None]
    table = np.empty(rho.shape[:-2] + (spec.n_models, spec.n_attacks))
    table[..., :-1] = (1.0 - rho) * spec.acc[:, None] + rho * spec.robustness
    table[..., -1] = spec.acc
    return table


def ccr(spec: GameSpec, model_index: int, attack_index: int, rho: float) -> float:
    """Correct classification rate when a fraction rho of samples is perturbed.

    ``rho`` must lie in ``[0, r_max]``.  Against no-attack the rate is the
    clean accuracy regardless of ``rho``.
    """
    _check_model_index(spec, model_index)
    r_max = spec.economics.r_max
    if not 0.0 <= rho <= r_max:
        raise ValueError(f"rho={rho!r} outside [0, r_max={r_max!r}]")
    spec.is_real_attack(attack_index)  # raises IndexError when out of range
    return float(ccr_table(spec, rho)[model_index, attack_index])


def asr_mixed(spec: GameSpec, s: Strategy, attack_index: int) -> float:
    """ASR of a real attack against a mixed model choice: 1 - sum_i s_i rob_ij."""
    _require_real_attack(spec, attack_index)
    if len(s) != spec.n_models:
        raise DimensionError(f"defender strategy length {len(s)} != {spec.n_models} models")
    return 1.0 - float(s.probs @ spec.robustness[:, attack_index])


def ccr_mixed(spec: GameSpec, model_index: int, r: Strategy) -> float:
    """Expected CCR of a model against a mixed attack choice, at rho = r_max."""
    _check_model_index(spec, model_index)
    if len(r) != spec.n_attacks:
        raise DimensionError(f"adversary strategy length {len(r)} != {spec.n_attacks} actions")
    return float(r.probs @ ccr_table(spec, spec.economics.r_max)[model_index])

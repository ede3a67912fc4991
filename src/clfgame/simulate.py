"""Seeded Monte-Carlo realisation of the per-sample game.

Each trial plays out one deployment horizon: the defender draws a model
once from ``s``, the adversary controls exactly ``floor(n * r_max)``
samples and assigns each an action drawn from ``r``.  A sample hit by a
real attack fools the model with probability ``1 - rob_ij`` (adversary
earns ``r_plus_adv``, defender misclassifies); a caught attack costs the
adversary ``r_minus_adv`` and the sample is classified correctly.
Untouched samples are classified correctly with probability ``acc_i``.
Ongoing costs accrue per perturbed sample (adversary) and per classified
sample (defender); investments are paid once per trial.

Randomness comes from fixed-stride PCG64 substreams
(``PCG64(seed).jumped(trial)``), one per trial, so results are
bit-identical across runs and independent of trial order.  Draws that
are deterministic (pure strategies, empty sample groups) consume no
randomness, which keeps distributionally identical configurations
stream-identical too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import GameSpec, Strategy, _frozen_array, _is_finite
from .payoff import utility_adv, utility_def


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``n`` and ``r_max`` override the spec's economics."""

    seed: int
    n: int
    trials: int
    r_max: float

    def __post_init__(self) -> None:
        if not _is_finite(self.n):
            raise ValueError("n must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if not 0.0 <= self.r_max <= 1.0:
            raise ValueError("r_max out of [0,1]")


@dataclass(frozen=True, eq=False)
class SimResult:
    mean_utility_adv: float
    mean_utility_def: float
    std_error_adv: float
    std_error_def: float
    utilities_adv: np.ndarray  # per-trial
    utilities_def: np.ndarray
    models_played: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    passed_adv: bool
    passed_def: bool
    empirical_adv: float
    analytic_adv: float
    std_error_adv: float
    empirical_def: float
    analytic_def: float
    std_error_def: float


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed).jumped(trial))


def simulate(spec: GameSpec, s: Strategy, r: Strategy, cfg: SimConfig) -> SimResult:
    """Run ``cfg.trials`` independent one-shot deployments of the profile (s, r)."""
    if len(s) != spec.n_models or len(r) != spec.n_attacks:
        raise ValueError("strategy lengths do not match the spec")
    e = spec.economics
    n_models = spec.n_models
    n_real = spec.n_attacks - 1
    acc, model_costs, attack_costs = spec.acc, spec.model_costs, spec.attack_costs
    rob = spec.robustness

    # the small nudge guards against the float product landing a hair
    # under an exactly-representable integer budget
    n_controlled = int(math.floor(cfg.n * cfg.r_max + 1e-9))
    pure_s = s.pure_index()
    pure_r = r.pure_index()

    util_adv = np.empty(cfg.trials)
    util_def = np.empty(cfg.trials)
    models_played = np.empty(cfg.trials, dtype=int)

    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        i = pure_s if pure_s is not None else int(rng.choice(n_models, p=s.probs))

        if n_controlled == 0:
            counts = np.zeros(spec.n_attacks, dtype=int)
        elif pure_r is not None:
            counts = np.zeros(spec.n_attacks, dtype=int)
            counts[pure_r] = n_controlled
        else:
            counts = rng.multinomial(n_controlled, r.probs)

        adv = -e.i_adv
        correct = 0
        attacked = 0
        for j in range(n_real):
            c = int(counts[j])
            if c == 0:
                continue
            fooled = int(rng.binomial(c, 1.0 - rob[i, j]))
            adv += -attack_costs[j] * c + e.r_plus_adv * fooled - e.r_minus_adv * (c - fooled)
            correct += c - fooled
            attacked += c
        clean = cfg.n - attacked
        if clean:
            correct += int(rng.binomial(clean, acc[i]))

        util_adv[t] = adv
        util_def[t] = (
            -e.i_def
            - cfg.n * model_costs[i]
            + e.r_plus_def * correct
            - e.r_minus_def * (cfg.n - correct)
        )
        models_played[t] = i

    def stderr(x: np.ndarray) -> float:
        if cfg.trials < 2:
            return 0.0
        return float(np.std(x, ddof=1) / math.sqrt(cfg.trials))

    return SimResult(
        mean_utility_adv=float(util_adv.mean()),
        mean_utility_def=float(util_def.mean()),
        std_error_adv=stderr(util_adv),
        std_error_def=stderr(util_def),
        utilities_adv=_frozen_array(util_adv),
        utilities_def=_frozen_array(util_def),
        models_played=_frozen_array(models_played, dtype=int),
    )


def convergence_check(
    spec: GameSpec,
    s: Strategy,
    r: Strategy,
    cfg: SimConfig,
    *,
    sim: SimResult | None = None,
) -> ConvergenceReport:
    """Compare simulated mean utilities against the analytic ones at 3 standard errors.

    ``sim`` is a result of ``simulate(spec, s, r, cfg)`` already at hand;
    without it the simulation is run here.

    The analytic side is evaluated with the config's ``n`` and ``r_max``
    substituted into the economics, so both sides describe the same
    deployment.  The band gets a tiny absolute floor on top of 3 standard
    errors: a degenerate profile (say, a zero attack budget) has zero
    variance, and averaging 100 identical floats still accumulates about
    an ulp of rounding error that would otherwise fail an exact
    comparison.
    """
    if sim is None:
        sim = simulate(spec, s, r, cfg)
    matched = replace(
        spec, economics=replace(spec.economics, n=cfg.n, r_max=cfg.r_max)
    )
    analytic_adv = utility_adv(matched, s, r)
    analytic_def = utility_def(matched, s, r)
    slack_adv = 3.0 * sim.std_error_adv + 1e-9 * (1.0 + abs(analytic_adv))
    slack_def = 3.0 * sim.std_error_def + 1e-9 * (1.0 + abs(analytic_def))
    ok_adv = abs(sim.mean_utility_adv - analytic_adv) <= slack_adv
    ok_def = abs(sim.mean_utility_def - analytic_def) <= slack_def
    return ConvergenceReport(
        passed=ok_adv and ok_def,
        passed_adv=ok_adv,
        passed_def=ok_def,
        empirical_adv=sim.mean_utility_adv,
        analytic_adv=analytic_adv,
        std_error_adv=sim.std_error_adv,
        empirical_def=sim.mean_utility_def,
        analytic_def=analytic_def,
        std_error_def=sim.std_error_def,
    )

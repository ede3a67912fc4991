"""One generator per trial, kept as the reference for the simulator's stream reuse.

A plain copy of the trial loop as it was before ``clfgame.simulate`` ran
every trial on one reused generator: each trial builds
``Generator(PCG64(seed).jumped(trial))`` from scratch and draws the model
with ``Generator.choice``.  ``tests/test_simulate_streams.py`` requires
the reused-generator loop to return bit-identical results.
"""

from __future__ import annotations

import math

import numpy as np

from clfgame.core import GameSpec, Strategy, _frozen_array
from clfgame.simulate import SimConfig, SimResult


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

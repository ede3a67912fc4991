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

Randomness comes from fixed-stride PCG64 substreams: trial ``t`` draws
from exactly the stream of ``PCG64(seed).jumped(t)``, so results are
bit-identical across runs and independent of trial order.  The loop
builds neither a generator nor a bit generator per trial.  PCG64 moves
its 128-bit state by an LCG with the stream's fixed increment, so one
jump is an affine map of the state mod 2**128, whose two coefficients
numpy's own ``advance`` gives once per run (``_substream_states``).
Each trial's start state is then a Python int, stepped by that map and
written into one state dict that is assigned to the bit generator of
one reused ``Generator``.  The model lottery is
``Generator.choice``'s own arithmetic, one uniform draw against the
normalised cdf, with the cdf built once.  Draws that are deterministic
(pure strategies, empty sample groups) consume no randomness, which
keeps distributionally identical configurations stream-identical too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import GameSpec, Strategy, _frozen_array, _is_finite
from .payoff import utility_adv, utility_def

# numpy's PCG64 jump stride: ``jumped(t)`` advances the state by t times this
JUMP_STRIDE = 0x9E3779B97F4A7C15F39CC0605CEDC835
_STATE_MASK = 2**128 - 1


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``n`` and ``r_max`` override the spec's economics."""

    seed: int
    n: int
    trials: int
    r_max: float

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not _is_finite(self.n):
            raise ValueError("n must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be an integer >= 1")
        if self.n > 2**63 - 1:  # the largest count numpy's draws accept
            raise ValueError("n must be at most 2**63 - 1")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
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


def _substream_states(bits: np.random.PCG64, count: int) -> Iterator[int]:
    """The 128-bit start states of ``PCG64(seed).jumped(t)`` for t < count,
    with bits at ``PCG64(seed)``.  Moves bits to probe states on first use.

    One jump is ``x -> (mul * x + add) % 2**128`` for the stream's fixed
    increment; numpy's own ``advance`` on the probe states 0 and 1 gives
    ``add`` and ``mul + add``.
    """
    state = bits.state
    x = state["state"]["state"]
    images = []
    for probe in (0, 1):
        state["state"]["state"] = probe
        bits.state = state
        bits.advance(JUMP_STRIDE)
        images.append(bits.state["state"]["state"])
    add = images[0]
    mul = (images[1] - add) & _STATE_MASK
    for _ in range(count):
        yield x
        x = (mul * x + add) & _STATE_MASK


def simulate(spec: GameSpec, s: Strategy, r: Strategy, cfg: SimConfig) -> SimResult:
    """Run ``cfg.trials`` independent one-shot deployments of the profile (s, r)."""
    if len(s) != spec.n_models or len(r) != spec.n_attacks:
        raise ValueError("strategy lengths do not match the spec")
    e = spec.economics
    n = cfg.n
    n_real = spec.n_attacks - 1
    acc = spec.acc.tolist()
    attack_costs = spec.attack_costs.tolist()
    fool_p = (1.0 - spec.robustness).tolist()
    # the defender's per-model terms, added in the same order as in the full sum
    base_def = [-e.i_def - n * cost for cost in spec.model_costs.tolist()]

    # the small nudge guards against the float product landing a hair
    # under an exactly-representable integer budget; above 2**53 the
    # product can round past n itself
    n_controlled = min(n, int(math.floor(n * cfg.r_max + 1e-9)))
    pure_s = s.pure_index()
    pure_r = r.pure_index()
    if pure_s is None:
        cdf = s.probs.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
    fixed_counts = None  # the attack counts, unless the adversary's mix is drawn per trial
    if n_controlled == 0 or pure_r is not None:
        fixed_counts = [0] * spec.n_attacks
        if n_controlled:
            fixed_counts[pure_r] = n_controlled

    util_adv, util_def, models_played = [], [], []
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    bits = rng.bit_generator
    state = bits.state  # one dict, rewritten and assigned once per trial
    start = state["state"]
    for x in _substream_states(bits, cfg.trials):
        start["state"] = x
        bits.state = state
        i = pure_s if pure_s is not None else bisect_right(cdf, rng.random())
        if fixed_counts is None:
            counts = rng.multinomial(n_controlled, r.probs).tolist()
        else:
            counts = fixed_counts

        adv = -e.i_adv
        correct = 0
        attacked = 0
        for j in range(n_real):
            c = counts[j]
            if c == 0:
                continue
            fooled = int(rng.binomial(c, fool_p[i][j]))
            adv += -attack_costs[j] * c + e.r_plus_adv * fooled - e.r_minus_adv * (c - fooled)
            correct += c - fooled
            attacked += c
        clean = n - attacked
        if clean:
            correct += int(rng.binomial(clean, acc[i]))

        util_adv.append(adv)
        util_def.append(base_def[i] + e.r_plus_def * correct - e.r_minus_def * (n - correct))
        models_played.append(i)
    util_adv = np.array(util_adv, dtype=float)
    util_def = np.array(util_def, dtype=float)

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

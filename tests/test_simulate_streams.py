"""The reused-generator trial loop draws exactly the parent's per-trial streams.

``clfgame.simulate`` no longer builds ``Generator(PCG64(seed).jumped(t))``
for every trial; it steps each trial's start state as a Python int,
assigns it to one generator's bit generator, and replaces
``Generator.choice`` with the same cdf arithmetic.  Every
per-trial array must equal ``tests/reference_simulate.py`` under
``tobytes()``.
"""

import numpy as np
import pytest

from clfgame.core import Strategy
from clfgame.simulate import JUMP_STRIDE, SimConfig, _substream_states, simulate

from conftest import general_spec, make_spec, random_strategy
import reference_simulate

SEEDS = [0, 2**32 + 1, 2**70]
BUDGETS = {"zero": (400, 0.0), "full": (400, 1.0), "fractional": (37, 0.3)}


def assert_same_streams(spec, s, r, cfg):
    got = simulate(spec, s, r, cfg)
    want = reference_simulate.simulate(spec, s, r, cfg)
    for field in ("utilities_adv", "utilities_def", "models_played"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field
    for field in ("mean_utility_adv", "mean_utility_def", "std_error_adv", "std_error_def"):
        assert getattr(got, field) == getattr(want, field), field


def profile(rng, spec, side: str, kind: str) -> Strategy:
    size = spec.n_models if side == "s" else spec.n_attacks
    if kind == "pure":
        return Strategy.pure(int(rng.integers(size)), size)
    return random_strategy(rng, size)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("kind_s", ["pure", "mixed"])
@pytest.mark.parametrize("kind_r", ["pure", "mixed"])
def test_profiles_and_budgets_match_reference(seed, budget, kind_s, kind_r):
    case = [list(BUDGETS).index(budget), int(kind_s == "mixed"), int(kind_r == "mixed")]
    rng = np.random.default_rng([seed % 2**32, *case])
    spec = general_spec(rng, n_models=3, n_attacks=4)
    n, r_max = BUDGETS[budget]
    cfg = SimConfig(seed=seed, n=n, trials=40, r_max=r_max)
    assert_same_streams(spec, profile(rng, spec, "s", kind_s), profile(rng, spec, "r", kind_r), cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_probability_entries_match_reference(seed):
    # flat steps in the cdf: zero-weight models and attacks, first, inner and last
    spec = general_spec(np.random.default_rng(7), n_models=5, n_attacks=4)
    s = Strategy((0.0, 0.25, 0.0, 0.75, 0.0))
    r = Strategy((0.5, 0.0, 0.5, 0.0))
    assert_same_streams(spec, s, r, SimConfig(seed=seed, n=300, trials=200, r_max=0.6))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_trial_matches_reference(seed):
    spec = general_spec(np.random.default_rng(11), n_models=2, n_attacks=3)
    s, r = Strategy((0.4, 0.6)), Strategy((0.2, 0.3, 0.5))
    assert_same_streams(spec, s, r, SimConfig(seed=seed, n=50, trials=1, r_max=0.5))


def test_fully_attacked_budget_matches_reference():
    # every sample attacked: no clean draw, and a model with zero robustness
    spec = make_spec([0.9, 0.6], [[0.0, 0.4], [0.7, 1.0]], r_plus_adv=2.0, r_minus_adv=0.5)
    cfg = SimConfig(seed=3, n=25, trials=30, r_max=1.0)
    for r in (Strategy((0.5, 0.5, 0.0)), Strategy.pure(1, 3), Strategy((0.2, 0.3, 0.5))):
        assert_same_streams(spec, Strategy((0.5, 0.5)), r, cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_cursor_walks_the_jumped_substreams(seed):
    # catches a numpy whose PCG64.jumped uses another stride
    cursor = np.random.PCG64(seed)
    for t in range(64):
        assert cursor.state == np.random.PCG64(seed).jumped(t).state, t
        cursor.advance(JUMP_STRIDE)


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_cursor_walks_the_jumped_substreams(seed):
    bits = np.random.PCG64(seed)
    got = list(_substream_states(bits, 1025))
    want = [np.random.PCG64(seed).jumped(t).state for t in range(1025)]
    assert {w["state"]["inc"] for w in want} == {bits.state["state"]["inc"]}
    assert got == [w["state"]["state"] for w in want]


@pytest.mark.parametrize("kind_r", ["pure", "mixed"])
def test_long_run_matches_reference(kind_r):
    # the pure mix plays a real attack, so every trial draws a binomial
    rng = np.random.default_rng([2**32 + 1, int(kind_r == "mixed")])
    spec = general_spec(rng, n_models=3, n_attacks=3)
    r = Strategy.pure(1, 3) if kind_r == "pure" else random_strategy(rng, 3)
    cfg = SimConfig(seed=2**70 + 9, n=120, trials=2500, r_max=0.7)
    assert_same_streams(spec, random_strategy(rng, 3), r, cfg)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3"])
def test_seed_must_be_non_negative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        SimConfig(seed=seed, n=10, trials=5, r_max=0.5)

"""The 2x2 case rules against the per-player, per-case reference.

``clfgame.analytic`` derives the reachable cases, the case at a strategy,
the best responses and the existence of the fully mixed equilibrium from
one reach rule per player and one case rule shared by both.  The games
here are drawn from a grid of sixteenths, where every break-even point,
defend threshold and indifference strategy is exact, so the draws land
on ties: the break-even robustness equal to ``rob_1`` or ``rob_2``, the
defend threshold equal to 0 or ``r_max``, and ``r_max`` of 0 or 1.  On
every draw the rules must give what ``reference_game`` gives, bit for
bit, at eps 0, 1e-9 and 1e-3.
"""

import pytest

import reference_game as ref
from clfgame.analytic import (
    adversary_case,
    adversary_preconditions,
    best_response_adv,
    best_response_def,
    defender_case,
    defender_preconditions,
    mixed_nash_2x2,
)
from clfgame.core import Strategy

from conftest import make_spec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = (0.0, 1e-9, 1e-3)


def sixteenths(lo, hi):
    return st.integers(lo, hi).map(lambda k: k / 16)


@st.composite
def ordered_games(draw):
    grid = sorted(draw(st.lists(st.integers(0, 16), min_size=4, max_size=4, unique=True)))
    rob_1, rob_2, acc_2, acc_1 = (k / 16 for k in grid)
    d_acc, d_rob = acc_1 - acc_2, rob_2 - rob_1
    r_max = draw(st.one_of(st.sampled_from([0.0, 1.0]), sixteenths(1, 15)))

    # adversary: break-even robustness 1 - mu_adv in [rob_1, rob_2], ends included, or anywhere
    breakeven_rob = draw(st.one_of(sixteenths(grid[0], grid[1]), sixteenths(0, 16)))
    mu = 1.0 - breakeven_rob
    r_minus_adv = draw(st.integers(0, int(16 * mu))) / 16
    scale_adv = draw(st.sampled_from([0.5, 1.0, 2.0]))

    # defender: defend threshold in [0, r_max], ends included, or anywhere
    t = draw(sixteenths(0, 16)) * r_max
    d_mu = draw(st.one_of(st.just(d_acc - t * (d_acc + d_rob)), sixteenths(-16, 16)))
    r_minus_def = draw(sixteenths(0, 16))
    scale_def = draw(st.sampled_from([0.5, 1.0, 2.0]))
    o_2 = max(0.0, -d_mu) + draw(sixteenths(0, 4))

    return make_spec(
        [acc_1, acc_2],
        [[rob_1], [rob_2]],
        attack_costs=[scale_adv * (mu - r_minus_adv)],
        r_plus_adv=scale_adv * (1.0 - r_minus_adv),
        r_minus_adv=scale_adv * r_minus_adv,
        model_costs=[scale_def * (o_2 + d_mu), scale_def * o_2],
        r_plus_def=scale_def * (1.0 - r_minus_def),
        r_minus_def=scale_def * r_minus_def,
        r_max=r_max,
    )


def probes(first: list[float]) -> list[Strategy]:
    """Both pure strategies, the even mix and each first weight in [0, 1]."""
    weights = [0.0, 1.0, 0.5] + [w for w in first if 0.0 <= w <= 1.0]
    return [Strategy((w, 1.0 - w)) for w in weights]


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(spec=ordered_games())
def test_case_rules_match_the_reference(spec):
    assert adversary_preconditions(spec) == ref.adversary_preconditions(spec)
    assert defender_preconditions(spec) == ref.defender_preconditions(spec)

    got, want = mixed_nash_2x2(spec), ref.mixed_nash_2x2(spec)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.s_star.probs.tobytes() == want.s_star.probs.tobytes()
        assert got.r_star.probs.tobytes() == want.r_star.probs.tobytes()
        assert got.residuals == want.residuals

    # the indifference weights, where they exist, put the probes on the ties
    rob_1, rob_2 = spec.robustness[:, 0].tolist()
    e = spec.economics
    mu = (spec.attacks[0].ongoing_cost + e.r_minus_adv) / (e.r_plus_adv + e.r_minus_adv)
    s_probes = probes([(rob_2 - 1.0 + mu) / (rob_2 - rob_1)])
    t = ref.defend_threshold(spec)
    r_probes = probes([t / e.r_max] if e.r_max > 0.0 else [])
    for eps in EPS:
        for s in s_probes:
            assert adversary_case(spec, s, eps) is ref.adversary_case(spec, s, eps)
            assert best_response_adv(spec, s, eps) == ref.best_response_adv(spec, s, eps)
        for r in r_probes:
            assert defender_case(spec, r, eps) is ref.defender_case(spec, r, eps)
            assert best_response_def(spec, r, eps) == ref.best_response_def(spec, r, eps)

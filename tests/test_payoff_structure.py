"""Every game ``payoff_matrices`` builds is rank 1 once its players are rescaled.

With gamma = n r_max (R+_adv + R-_adv) and kappa = n r_max (R+_def + R-_def),
the real attacks give ``U_adv[i, j] = c_j - gamma rob_ij`` and
``U_def[i, j] = d_i + kappa rob_ij``.  So ``U_adv / gamma + U_def / kappa`` is
a row term plus a column term on the real attacks, and the no-attack column
adds ``acc_i``: double-centred, the sum is ``(acc - mean acc)`` times a fixed
column profile, of rank at most 1.  A zero budget (gamma = kappa = 0) leaves
the adversary ``-I_adv`` everywhere and each model one payoff whatever the
attack.
"""

import dataclasses

import numpy as np
import pytest

from clfgame.payoff import payoff_matrices

from conftest import general_spec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
SPECS = dict(
    seed=st.integers(0, 2**32 - 1), n_models=st.integers(1, 4), n_actions=st.integers(2, 5)
)


@SETTINGS
@hypothesis.given(**SPECS)
def test_rescaled_payoff_sum_is_rank_one_after_double_centring(seed, n_models, n_actions):
    spec = general_spec(np.random.default_rng(seed), n_models, n_actions)
    e = spec.economics
    gamma = e.n * e.r_max * (e.r_plus_adv + e.r_minus_adv)
    kappa = e.n * e.r_max * (e.r_plus_def + e.r_minus_def)
    hypothesis.assume(gamma > 0.0 and kappa > 0.0)
    m = payoff_matrices(spec)
    u_adv, u_def = m.u_adv / gamma, m.u_def / kappa
    scale = max(np.abs(u_adv).max(), np.abs(u_def).max())
    total = u_adv + u_def
    centred = total - total.mean(axis=0) - total.mean(axis=1)[:, None] + total.mean()

    assert np.linalg.svd(centred, compute_uv=False)[1:].max(initial=0.0) <= 1e-12 * scale
    # equal real-attack columns; the no-attack column differs by the centred accuracy
    assert np.abs(centred[:, :-1] - centred[:, :1]).max() <= 1e-12 * scale
    acc = spec.acc - spec.acc.mean()
    assert np.abs(centred[:, -1] - centred[:, 0] - acc).max() <= 1e-12 * scale


@SETTINGS
@hypothesis.given(**SPECS)
def test_zero_budget_game_is_constant_for_the_adversary_and_per_row_for_the_defender(
    seed, n_models, n_actions
):
    spec = general_spec(np.random.default_rng(seed), n_models, n_actions)
    spec = dataclasses.replace(spec, economics=dataclasses.replace(spec.economics, r_max=0.0))
    m = payoff_matrices(spec)
    assert (m.u_adv == -spec.economics.i_adv).all()
    assert (m.u_def == m.u_def[:, :1]).all()

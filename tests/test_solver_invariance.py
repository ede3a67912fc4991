"""Relabelling and duplicating actions leave ``support_enumeration``'s answer in place.

Nash equilibria do not depend on the order in which actions are listed,
and a copy of a row adds no equilibrium that folding the copy's weight
back into the original does not already give.  Both are checked on
random valid specs of 2-4 x 2-4.
"""

import numpy as np
import pytest

from clfgame.payoff import PayoffMatrices, payoff_matrices
from clfgame.solver import support_enumeration

from conftest import general_spec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
ATOL = 1e-9


def _game(seed, n_models, n_cols):
    return payoff_matrices(general_spec(np.random.default_rng(seed), n_models, n_cols))


def _profiles(found):
    return [(eq.s.probs, eq.r.probs) for eq in found]


def _same_set(a, b):
    """Every profile of ``a`` is within ATOL of one in ``b``, and the other way round."""

    def covered(x, ys):
        return any(np.allclose(x[0], y[0], atol=ATOL) and np.allclose(x[1], y[1], atol=ATOL) for y in ys)

    return all(covered(x, b) for x in a) and all(covered(y, a) for y in b)


@SETTINGS
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_models=st.integers(2, 4),
    n_cols=st.integers(2, 4),
    data=st.data(),
)
def test_permuting_actions_permutes_the_equilibria(seed, n_models, n_cols, data):
    m = _game(seed, n_models, n_cols)
    rows = np.array(data.draw(st.permutations(range(n_models))))
    cols = np.array(data.draw(st.permutations(range(n_cols))))
    permuted = PayoffMatrices(u_adv=m.u_adv[rows][:, cols], u_def=m.u_def[rows][:, cols])

    found = _profiles(support_enumeration(m))
    # row i of the permuted game is row rows[i] of the original
    mapped = []
    for s, r in _profiles(support_enumeration(permuted)):
        s_back, r_back = np.empty_like(s), np.empty_like(r)
        s_back[rows], r_back[cols] = s, r
        mapped.append((s_back, r_back))
    assert len(mapped) == len(found)
    assert _same_set(mapped, found)


@SETTINGS
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    n_models=st.integers(2, 4),
    n_cols=st.integers(2, 4),
)
def test_duplicating_a_row_keeps_the_folded_equilibrium_set(seed, n_models, n_cols):
    m = _game(seed, n_models, n_cols)
    doubled = PayoffMatrices(
        u_adv=np.vstack([m.u_adv, m.u_adv[:1]]), u_def=np.vstack([m.u_def, m.u_def[:1]])
    )

    folded = []
    for s, r in _profiles(support_enumeration(doubled)):
        s_folded = s[:-1].copy()
        s_folded[0] += s[-1]
        folded.append((s_folded, r))
    assert _same_set(folded, _profiles(support_enumeration(m)))

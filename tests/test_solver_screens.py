"""Soundness of the stacked screens in front of the per-pair path.

``support_enumeration`` hands a support pair to ``_support_pair`` only if
its stacked screens keep it.  A screen may keep pairs the exact path
rejects, never the other way round: every pair it drops must be one on
which ``_support_pair`` returns None.  On the same games, the boolean
mask of ``pure_equilibria`` must list what the reference's loop lists.
"""

import itertools

import numpy as np
import pytest

import reference_solver as ref
from clfgame import solver
from clfgame.payoff import PayoffMatrices
from clfgame.solver import DEFAULT_TOL, support_enumeration

from test_solver_batched import FAMILIES, random_game

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


GAMES = dict(
    family=st.sampled_from(FAMILIES),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([DEFAULT_TOL, 1e-6, 1e-2]),
    jitter=st.sampled_from([0.0, 0.5]),
)


def _supports(size):
    return [c for k in range(1, size + 1) for c in itertools.combinations(range(size), k)]


def _game(rng, family, n, m, tol, jitter):
    game = random_game(rng, family, n, m)
    hypothesis.assume(game is not None)
    if jitter:
        # ties and consistent systems of the family, broken by less than tol:
        # the exact path still accepts them, so a screen must keep them
        game = PayoffMatrices(
            u_adv=game.u_adv + jitter * tol * rng.uniform(-1.0, 1.0, (n, m)),
            u_def=game.u_def + jitter * tol * rng.uniform(-1.0, 1.0, (n, m)),
        )
    return game


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(**GAMES)
def test_every_screened_out_pair_is_rejected_by_the_exact_path(family, n, m, seed, tol, jitter):
    rng = np.random.default_rng(seed)
    game = _game(rng, family, n, m, tol, jitter)
    # the residual tolerance support_enumeration hands the exact path
    scale = max(1.0, float(np.abs(game.u_adv).max()), float(np.abs(game.u_def).max()))
    res_tol = max(tol, 1e-11 * scale)

    reached = set()
    support_pair = solver._support_pair

    def recording(m_, rows, cols, tol_, res_tol_):
        assert (tol_, res_tol_) == (tol, res_tol)
        reached.add((rows, cols))
        return support_pair(m_, rows, cols, tol_, res_tol_)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solver, "_support_pair", recording)
        support_enumeration(game, tol)

    for rows in _supports(n):
        for cols in _supports(m):
            if (rows, cols) not in reached:
                assert support_pair(game, rows, cols, tol, res_tol) is None, (rows, cols)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(**GAMES)
def test_pure_equilibria_mask_lists_what_the_loop_lists(family, n, m, seed, tol, jitter):
    game = _game(np.random.default_rng(seed), family, n, m, tol, jitter)
    got = solver.pure_equilibria(game, tol)
    assert got == ref.pure_equilibria(game, tol)
    assert all(type(i) is int and type(j) is int for i, j in got)

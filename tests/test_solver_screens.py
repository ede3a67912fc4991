"""Soundness of the stacked screens and exact tests in front of the per-pair tail.

``support_enumeration`` hands a support pair to its per-pair tail,
``_support_pair``, only if its stacked screens keep it and the stacked
exact tests of both sides accept it.  Together they may keep pairs the
one-pair reference rejects, never the other way round: every pair that
never reaches the tail must be one on which ``reference_solver.support_pair``
returns None.  On the same games, the boolean mask of ``pure_equilibria``
must list what the reference's loop lists.
The dominance max-min search skips supports by a pure bound before
building their systems; every candidate of a skipped support must score
strictly below the search's result.
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

    def recording(m_, rows, cols, s_full, r_full, degenerate, tol_):
        assert tol_ == tol
        reached.add((rows, cols))
        return support_pair(m_, rows, cols, s_full, r_full, degenerate, tol_)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solver, "_support_pair", recording)
        support_enumeration(game, tol)

    for rows in _supports(n):
        for cols in _supports(m):
            if (rows, cols) not in reached:
                assert ref.support_pair(game, rows, cols, tol, res_tol) is None, (rows, cols)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(**GAMES)
def test_pure_equilibria_mask_lists_what_the_loop_lists(family, n, m, seed, tol, jitter):
    game = _game(np.random.default_rng(seed), family, n, m, tol, jitter)
    got = solver.pure_equilibria(game, tol)
    assert got == ref.pure_equilibria(game, tol)
    assert all(type(i) is int and type(j) is int for i, j in got)


def _skipped_supports_lose(g):
    """Run the max-min search on ``g`` and check every support it skipped.

    A search that stacks no system at all (``g``'s rows are each
    constant) skips every support, and a candidate of a skipped support
    may then tie the search's value, or pass it by rounding alone.
    Otherwise a support is skipped only by its pure bound, which must keep
    every support whose bound equals the search's value, and each of its
    candidates scores below that value.  Returns the number of supports of
    two or more rows whose pure bound equals that value.
    """
    kept = {}
    stacked = solver._stacked_indifference

    def recording(a, row_sets, col_sets, pairs=None):
        kept[row_sets.shape[1]] = set(pairs[0].tolist())
        return stacked(a, row_sets, col_sets, pairs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solver, "_stacked_indifference", recording)
        best_v, _ = solver._max_min_gap(g)
    k, l = g.shape
    slack = 1e-9 * max(1.0, float(np.abs(g).max()))
    sizes = list(range(2, min(k, l) + 1))
    assert sorted(kept) == sizes or not kept and (g == g[:, :1]).all()
    ties = 0
    for size in sizes:
        for s, support in enumerate(itertools.combinations(range(k), size)):
            bound = g[list(support)].max(axis=0).min()
            ties += bound == best_v
            if s in kept.get(size, ()):
                continue
            assert not kept or bound < best_v - slack, (support, bound, best_v)
            for cols in itertools.combinations(range(l), size):
                sigma = ref.max_min_candidate(g, support, cols)
                if sigma is not None:
                    v = float((sigma @ g).min())
                    assert v < best_v or not kept and v <= best_v + slack, (support, cols)
    return ties


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(**GAMES)
def test_max_min_search_skips_only_losing_supports_in_games(family, n, m, seed, tol, jitter):
    game = _game(np.random.default_rng(seed), family, n, m, tol, jitter)
    for p in (game.u_def, game.u_adv.T):
        for action in range(len(p)):
            others = [i for i in range(len(p)) if i != action]
            if others:
                _skipped_supports_lose(p[others] - p[action])


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    entries=st.sampled_from(["normal", "integer", "tied_columns"]),
    k=st.integers(2, 7),
    l=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_min_search_skips_only_losing_supports_in_wide_gaps(entries, k, l, seed):
    g = np.random.default_rng(seed).standard_normal((k, l))
    if entries == "integer":
        g = np.round(2.0 * g)
    elif entries == "tied_columns" and l >= 2:
        g[:, 1] = g[:, 0]
    _skipped_supports_lose(g)


def test_max_min_search_keeps_supports_whose_bound_ties_the_value():
    # small integer entries make a support's pure bound equal the search's
    # value often; the bound must keep every such support
    rng = np.random.default_rng(20260827)
    ties = sum(_skipped_supports_lose(np.round(2.0 * rng.standard_normal((k, 6)))) for k in (3, 4, 5) * 4)
    assert ties > 0

"""The batched solver against the one-system-at-a-time reference.

Support enumeration and the dominance max-min search stack their
indifference systems into batched LAPACK calls.  Their results must be
bit-identical to those of ``reference_solver``, which builds and solves
every system on its own.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import reference_solver as ref
from clfgame import solver
from clfgame.payoff import PayoffMatrices, payoff_matrices
from clfgame.solver import (
    SolverGuardError,
    dominance_report,
    support_enumeration,
)

from conftest import general_spec

FAMILIES = ("generic", "tied_columns", "integer", "constant_u_adv", "zero_budget")
# 1..6 actions per side; the reference's cost doubles with each action, so
# the largest sides meet small opponents, plus one full 6 x 6 game
SHAPES = [(n, m) for n in range(1, 7) for m in range(1, 7) if n + m <= 8] + [(6, 6)]


def random_game(rng, family: str, n: int, m: int) -> PayoffMatrices | None:
    """An n x m game of one family, or None where the family has no such game."""
    if family == "zero_budget":
        if m < 2:
            return None  # a spec needs a real attack besides no-attack
        spec = general_spec(rng, n_models=n, n_attacks=m)
        spec = dataclasses.replace(spec, economics=dataclasses.replace(spec.economics, r_max=0.0))
        return payoff_matrices(spec)
    u_adv = rng.standard_normal((n, m))
    u_def = rng.standard_normal((n, m))
    if family == "tied_columns":
        if m < 2:
            return None
        u_adv[:, 1] = u_adv[:, 0]
        u_def[:, 1] = u_def[:, 0]
    elif family == "integer":
        u_adv = np.round(2.0 * u_adv)
        u_def = np.round(2.0 * u_def)
    elif family == "constant_u_adv":
        u_adv = np.full((n, m), 0.3)
    return PayoffMatrices(u_adv=u_adv, u_def=u_def)


def assert_same_equilibria(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.row_support == w.row_support and g.col_support == w.col_support
        assert all(type(i) is int for i in g.row_support + g.col_support)
        assert g.s.probs.tobytes() == w.s.probs.tobytes()
        assert g.r.probs.tobytes() == w.r.probs.tobytes()
        assert g.max_deviation_gain == w.max_deviation_gain
        assert type(g.degenerate) is bool and g.degenerate == w.degenerate


def assert_same_dominance(m: PayoffMatrices, monkeypatch):
    for player in ("defender", "adversary"):
        got = dominance_report(m, player)
        with monkeypatch.context() as patched:
            patched.setattr(solver, "_max_min_gap", ref.max_min_gap)
            want = dominance_report(m, player)
        assert len(got.actions) == len(want.actions)
        for a, b in zip(got.actions, want.actions):
            assert (a.action, a.status, a.dominated_by) == (b.action, b.status, b.dominated_by)
            assert np.float64(a.margin).tobytes() == np.float64(b.margin).tobytes()
            if b.mixture is None:
                assert a.mixture is None
            else:
                assert a.mixture.tobytes() == b.mixture.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_support_enumeration_matches_reference(family):
    rng = np.random.default_rng([20260816, FAMILIES.index(family)])
    compared = 0
    for n, m in SHAPES:
        game = random_game(rng, family, n, m)
        if game is None:
            continue
        assert_same_equilibria(support_enumeration(game), ref.support_enumeration(game))
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("family", FAMILIES)
def test_dominance_matches_reference(family, monkeypatch):
    rng = np.random.default_rng([20260817, FAMILIES.index(family)])
    for n, m in SHAPES:
        game = random_game(rng, family, n, m)
        if game is not None:
            assert_same_dominance(game, monkeypatch)


def test_max_min_gap_matches_reference_on_wide_matrices():
    # the 7 x 8 gaps of an 8 x 8 game, beyond the sizes the game families reach
    rng = np.random.default_rng(20260818)
    for g in (rng.standard_normal((7, 8)), np.round(2.0 * rng.standard_normal((7, 8)))):
        v, sigma = solver._max_min_gap(g)
        want_v, want_sigma = ref.max_min_gap(g)
        assert v == want_v
        assert sigma.tobytes() == want_sigma.tobytes()


def test_chunk_boundaries_match_reference(monkeypatch):
    monkeypatch.setattr(solver, "_STACK_CHUNK", 7)
    rng = np.random.default_rng(20260819)
    for family, n, m in (("generic", 4, 5), ("integer", 5, 4), ("zero_budget", 4, 4)):
        game = random_game(rng, family, n, m)
        assert_same_equilibria(support_enumeration(game), ref.support_enumeration(game))
        assert_same_dominance(game, monkeypatch)


@pytest.mark.parametrize("shape", [(13, 2), (2, 13)])
def test_guards_fire_before_any_stacked_system(shape, monkeypatch):
    def no_stacking(*args):
        raise AssertionError("stacked systems built for a game beyond the size guard")

    monkeypatch.setattr(solver, "_stacked_indifference", no_stacking)
    m = PayoffMatrices(u_adv=np.zeros(shape), u_def=np.zeros(shape))
    for player in ("defender", "adversary"):
        with pytest.raises(SolverGuardError):
            dominance_report(m, player)
    with pytest.raises(SolverGuardError):
        support_enumeration(m)


@pytest.mark.parametrize("family", ["generic", "zero_budget", "tied_columns"])
def test_seven_by_seven_matches_reference(family, monkeypatch):
    rng = np.random.default_rng([20260820, FAMILIES.index(family)])
    game = random_game(rng, family, 7, 7)
    assert_same_equilibria(support_enumeration(game), ref.support_enumeration(game))
    assert_same_dominance(game, monkeypatch)


def test_chunk_mixing_singular_and_nonsingular_systems_matches_reference(monkeypatch):
    # tied columns make every square system holding both of them singular;
    # a chunk of 5 systems then mixes singular and nonsingular ones
    masks = []
    stacked = solver._stacked_indifference

    def recording_stacked(*args):
        for rows, lhs, sol, solved in stacked(*args):
            if lhs.shape[1] == lhs.shape[2]:
                masks.append(solved.copy())
            yield rows, lhs, sol, solved

    monkeypatch.setattr(solver, "_STACK_CHUNK", 5)
    monkeypatch.setattr(solver, "_stacked_indifference", recording_stacked)
    game = random_game(np.random.default_rng(20260821), "tied_columns", 4, 4)
    assert_same_equilibria(support_enumeration(game), ref.support_enumeration(game))
    assert_same_dominance(game, monkeypatch)
    assert any(mask.any() and not mask.all() for mask in masks)


@pytest.mark.parametrize("family", ["tied_columns", "zero_budget", "integer"])
def test_stacked_solve_flags_exactly_the_singular_systems(family):
    # the one stacked solve must flag the systems on which np.linalg.solve
    # raises (getrf's exact zero pivot, slogdet's sign 0) and give every
    # other system the bytes np.linalg.solve gives it on its own
    a = random_game(np.random.default_rng([20260822, FAMILIES.index(family)]), family, 5, 5).u_def
    seen_singular = seen_regular = False
    for k in range(1, 5):
        sets = np.array(list(itertools.combinations(range(5), k)))
        for _, lhs, sol, solved in solver._stacked_indifference(a, sets, sets):
            assert solved.tolist() == (np.linalg.slogdet(lhs)[0] != 0).tolist()
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            for p in np.flatnonzero(solved):
                assert sol[p].tobytes() == np.linalg.solve(lhs[p], rhs).tobytes()
            assert np.isnan(sol[~solved]).all()
            seen_singular |= not solved.all()
            seen_regular |= solved.any()
    assert seen_regular and seen_singular


def test_zero_budget_game_reaches_the_per_pair_path_once_per_equilibrium(monkeypatch):
    calls = []
    support_pair = solver._support_pair

    def counted(*args):
        calls.append(args[1:3])
        return support_pair(*args)

    monkeypatch.setattr(solver, "_support_pair", counted)
    game = random_game(np.random.default_rng(20260822), "zero_budget", 6, 6)
    found = support_enumeration(game)
    assert len(found) > 1
    assert sorted(calls) == [(e.row_support, e.col_support) for e in found]


def _res_tol(game):
    # the residual tolerance support_enumeration hands the exact path
    scale = max(1.0, float(np.abs(game.u_adv).max()), float(np.abs(game.u_def).max()))
    return max(solver.DEFAULT_TOL, 1e-11 * scale)


def _every_class(game):
    """Each side's matrix with every (row sets, column sets, pairs) size class of it."""
    for a in (game.u_adv, game.u_def.T):
        for k in range(1, a.shape[0] + 1):
            for l in range(1, a.shape[1] + 1):
                own, opp = solver._index_sets(a.shape[0], k), solver._index_sets(a.shape[1], l)
                yield a, own, opp, np.divmod(np.arange(len(own) * len(opp)), len(opp))


@pytest.mark.parametrize("family", FAMILIES)
def test_mixing_weights_matches_reference_on_every_pair(family):
    # every pair of each size class on both sides, the pairs the screens
    # drop included, decided in one stacked pass
    rng = np.random.default_rng([20260823, FAMILIES.index(family)])
    compared = 0
    for n, m in SHAPES:
        game = random_game(rng, family, n, m) if max(n, m) <= 4 else None
        if game is None:
            continue
        res_tol = _res_tol(game)
        for a, own, opp, pairs in _every_class(game):
            accept, x_full, degenerate = solver._mixing_weights(
                a, own, opp, pairs, solver.DEFAULT_TOL, res_tol
            )
            for p, (i, j) in enumerate(zip(*pairs)):
                rows, cols = tuple(own[i].tolist()), tuple(opp[j].tolist())
                want = ref.mixing_weights(a, rows, cols, solver.DEFAULT_TOL, res_tol)
                assert accept[p] == (want is not None)
                if want is not None:
                    assert x_full[p].tobytes() == want[0].tobytes()
                    assert degenerate[p] == want[1]
                compared += 1
    assert compared > 1000


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_least_squares_matches_lstsq_on_every_unsolved_system(family, chunk, monkeypatch):
    # each system the stacked solve leaves unsolved gets np.linalg.lstsq's
    # bytes and residual verdict; chunks of 3 mix solved and unsolved
    # square systems where some are singular and others not.  Each game is
    # also run with its payoffs moved by less than the tolerance, which puts
    # the residuals of its consistent systems near the verdict's threshold.
    calls, mixed = [], []
    least_squares, stacked = solver._least_squares, solver._stacked_indifference

    def recording_least_squares(systems, res_tol):
        got = least_squares(systems, res_tol)
        calls.append((systems.copy(), res_tol, *got))
        return got

    def recording_stacked(*args):
        for rows, lhs, sol, solved in stacked(*args):
            mixed.append(solved.any() and not solved.all())
            yield rows, lhs, sol, solved

    if chunk:
        monkeypatch.setattr(solver, "_STACK_CHUNK", chunk)
    monkeypatch.setattr(solver, "_least_squares", recording_least_squares)
    monkeypatch.setattr(solver, "_stacked_indifference", recording_stacked)
    rng = np.random.default_rng([20260829, FAMILIES.index(family)])
    for n, m in SHAPES:
        game = random_game(rng, family, n, m) if max(n, m) <= 5 else None
        if game is None:
            continue
        jitter = 0.5 * solver.DEFAULT_TOL
        moved = PayoffMatrices(
            u_adv=game.u_adv + jitter * rng.uniform(-1.0, 1.0, (n, m)),
            u_def=game.u_def + jitter * rng.uniform(-1.0, 1.0, (n, m)),
        )
        for g in (game, moved):
            res_tol = _res_tol(g)
            for a, own, opp, pairs in _every_class(g):
                solver._mixing_weights(a, own, opp, pairs, solver.DEFAULT_TOL, res_tol)

    compared = rank_deficient = near_threshold = 0
    for systems, res_tol, sol, consistent in calls:
        for lhs, x, ok in zip(systems, sol, consistent):
            rhs = np.zeros(len(lhs))
            rhs[-1] = 1.0
            want = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            resid = np.max(np.abs(lhs @ want - rhs))
            assert x.tobytes() == want.tobytes()
            assert ok == (not resid > res_tol)
            rank_deficient += np.linalg.matrix_rank(lhs) < min(lhs.shape)
            near_threshold += 1e-3 * res_tol < resid < 1e3 * res_tol
            compared += 1
    assert compared > 1000
    if family != "generic":
        assert rank_deficient > 0 and near_threshold > 0
    if chunk and family in ("tied_columns", "integer"):
        assert any(mixed)


@pytest.mark.parametrize("family", ["zero_budget", "tied_columns"])
def test_six_by_six_degenerate_games_stack_each_side_once_per_size_class(family, monkeypatch):
    # the exact path stacks each class's surviving pairs once per side, and
    # its least squares never falls back to numpy's one-system lstsq
    game = random_game(np.random.default_rng([20260830, FAMILIES.index(family)]), family, 6, 6)
    want = ref.support_enumeration(game)
    counts = {"stacked": 0, "screen": 0}
    stacked, screen = solver._stacked_indifference, solver._screen

    def counting_stacked(*args):
        counts["stacked"] += 1
        return stacked(*args)

    def counting_screen(*args):
        counts["screen"] += 1
        return screen(*args)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called by support enumeration")

    monkeypatch.setattr(solver, "_stacked_indifference", counting_stacked)
    monkeypatch.setattr(solver, "_screen", counting_screen)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    assert_same_equilibria(support_enumeration(game), want)
    assert 0 < counts["stacked"] - counts["screen"] <= 2 * 6 * 6


@pytest.mark.parametrize("family", ["generic", "tied_columns", "integer", "zero_budget"])
def test_eight_by_eight_dominance_matches_reference(family, monkeypatch):
    game = random_game(np.random.default_rng([20260824, FAMILIES.index(family)]), family, 8, 8)
    assert_same_dominance(game, monkeypatch)


def test_pure_bound_skips_most_max_min_systems_on_an_eight_by_eight_game(monkeypatch):
    # every search of an 8 x 8 game without the bound would stack all
    # sum_s C(k, s) C(l, s) square systems of its k x l gap matrix
    searched, stacked_pairs = [], []
    max_min_gap, stacked = solver._max_min_gap, solver._stacked_indifference

    def recording_search(g):
        searched.append(g.shape)
        return max_min_gap(g)

    def recording_stacked(a, row_sets, col_sets, pairs=None):
        stacked_pairs.append(len(pairs[0]))
        return stacked(a, row_sets, col_sets, pairs)

    monkeypatch.setattr(solver, "_max_min_gap", recording_search)
    monkeypatch.setattr(solver, "_stacked_indifference", recording_stacked)
    game = random_game(np.random.default_rng(20260825), "generic", 8, 8)
    for player in ("defender", "adversary"):
        dominance_report(game, player)
    unpruned = sum(math.comb(k, s) * math.comb(l, s) for k, l in searched for s in range(2, k + 1))
    assert len(searched) >= 8
    assert sum(stacked_pairs) <= 0.7 * unpruned


def test_zero_budget_dominance_stacks_no_systems(monkeypatch):
    # every row of a zero-budget game's gap matrices is constant, so each
    # square system of two or more rows is singular
    def no_stacking(*args):
        raise AssertionError("a system stacked for a gap matrix of constant rows")

    monkeypatch.setattr(solver, "_stacked_indifference", no_stacking)
    game = random_game(np.random.default_rng(20260828), "zero_budget", 8, 8)
    for player in ("defender", "adversary"):
        dominance_report(game, player)


def test_constant_rows_give_the_best_pure_row():
    # the search stops after the pure rows; the full search solves a few of
    # these singular systems and here scores a mixture of the three top rows
    # one ulp above their constant
    top, low = -1.842649543609305, -2.515994215623561
    g = np.repeat(np.array([[top], [low], [top], [low], [top]]), 8, axis=1)
    v, sigma = solver._max_min_gap(g)
    assert v == top
    assert sigma.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_index_sets_are_shared_read_only_tables():
    sets = solver._index_sets(6, 3)
    assert sets is solver._index_sets(6, 3)
    assert sets.tolist() == [list(c) for c in itertools.combinations(range(6), 3)]
    with pytest.raises(ValueError):
        sets[0, 0] = 5


def _solved_bytes(g):
    equilibria = [
        (e.row_support, e.col_support, e.s.probs.tobytes(), e.r.probs.tobytes(),
         np.float64(e.max_deviation_gain).tobytes(), e.degenerate)
        for e in support_enumeration(g)
    ]
    dominance = [
        (a.action, a.status, a.dominated_by, np.float64(a.margin).tobytes(),
         None if a.mixture is None else a.mixture.tobytes())
        for player in ("defender", "adversary")
        for a in dominance_report(g, player).actions
    ]
    return equilibria, dominance


def test_results_do_not_depend_on_the_index_set_cache():
    rng = np.random.default_rng(20260826)
    games = [random_game(rng, family, 5, 5) for family in FAMILIES]
    first = [_solved_bytes(g) for g in games]
    solver._index_sets.cache_clear()
    assert [_solved_bytes(g) for g in games] == first

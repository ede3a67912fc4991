"""One-system-at-a-time enumeration, kept as the reference for the batched solver.

A plain copy of the per-pair support enumeration loop and of the max-min
vertex search as they were before ``clfgame.solver`` stacked its
indifference systems into batched LAPACK calls: every system is built
and solved on its own, and ``support_pair`` decides one support pair on
its own.  ``tests/test_solver_batched.py`` requires the batched code to
return bit-identical results.  ``pure_equilibria`` is the double loop
that ``clfgame.solver.pure_equilibria`` replaced with one boolean mask;
``tests/test_solver_screens.py`` requires equal lists, checks every pair
the batched solver never hands to its per-pair tail against
``support_pair``, and solves each candidate of every support the batched
max-min search skips with ``max_min_candidate``, one step of
``max_min_gap``.
"""

from __future__ import annotations

import itertools

import numpy as np

from clfgame.core import Strategy
from clfgame.payoff import PayoffMatrices
from clfgame.solver import DEFAULT_TOL, EquilibriumResult, verify_equilibrium


def pure_equilibria(m: PayoffMatrices, tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    col_best_def = m.u_def.max(axis=0)  # defender's best against each column
    row_best_adv = m.u_adv.max(axis=1)  # adversary's best against each row
    out = []
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            if (
                m.u_def[i, j] >= col_best_def[j] - tol
                and m.u_adv[i, j] >= row_best_adv[i] - tol
            ):
                out.append((i, j))
    return out


def mixing_weights(a, rows, cols, tol, res_tol):
    k, l = len(rows), len(cols)
    sub = a[np.ix_(rows, cols)]
    lhs = np.zeros((l + 1, k + 1))
    lhs[:l, :k] = sub.T
    lhs[:l, k] = -1.0
    lhs[l, :k] = 1.0
    rhs = np.zeros(l + 1)
    rhs[l] = 1.0

    degenerate = False
    if l == k:
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            degenerate = True
            sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        degenerate = True
        sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    if degenerate and np.max(np.abs(lhs @ sol - rhs)) > res_tol:
        return None

    x = sol[:k]
    if np.any(x < -tol):
        return None
    x = np.clip(x, 0.0, None)
    total = x.sum()
    if total <= 0.0:
        return None
    x = x / total
    if np.any(x <= tol):
        return None
    x_full = np.zeros(a.shape[0])
    x_full[list(rows)] = x
    return x_full, degenerate


def nonempty_subsets(size):
    subsets = []
    for k in range(1, size + 1):
        subsets.extend(itertools.combinations(range(size), k))
    return subsets


def support_pair(m: PayoffMatrices, rows, cols, tol, res_tol) -> EquilibriumResult | None:
    got_s = mixing_weights(m.u_adv, rows, cols, tol, res_tol)
    if got_s is None:
        return None
    got_r = mixing_weights(m.u_def.T, cols, rows, tol, res_tol)
    if got_r is None:
        return None
    s_full, deg_s = got_s
    r_full, deg_r = got_r
    degenerate = deg_s or deg_r

    adv_payoffs = s_full @ m.u_adv
    v_adv = adv_payoffs[list(cols)].max()
    def_payoffs = m.u_def @ r_full
    v_def = def_payoffs[list(rows)].max()

    for j in range(m.n_cols):
        if j in cols:
            continue
        if adv_payoffs[j] > v_adv + tol:
            return None
        if adv_payoffs[j] > v_adv - tol:
            degenerate = True
    for i in range(m.n_rows):
        if i in rows:
            continue
        if def_payoffs[i] > v_def + tol:
            return None
        if def_payoffs[i] > v_def - tol:
            degenerate = True

    s = Strategy(s_full)
    r = Strategy(r_full)
    cert = verify_equilibrium(m, s, r, tol)
    if not cert.certified:
        return None
    return EquilibriumResult(
        s=s,
        r=r,
        row_support=rows,
        col_support=cols,
        max_deviation_gain=cert.max_gain,
        degenerate=degenerate,
    )


def support_enumeration(m: PayoffMatrices, tol: float = DEFAULT_TOL) -> list[EquilibriumResult]:
    scale = max(1.0, float(np.abs(m.u_adv).max()), float(np.abs(m.u_def).max()))
    res_tol = max(tol, 1e-11 * scale)

    results = []
    for rows in nonempty_subsets(m.n_rows):
        for cols in nonempty_subsets(m.n_cols):
            found = support_pair(m, rows, cols, tol, res_tol)
            if found is not None:
                results.append(found)
    results.sort(key=lambda e: (e.row_support, e.col_support))
    return results


def max_min_gap(g):
    k, l = g.shape
    best_v = -np.inf
    best_sigma = None
    for idx in range(k):
        v = float(g[idx].min())
        if v > best_v:
            sigma = np.zeros(k)
            sigma[idx] = 1.0
            best_v, best_sigma = v, sigma
    for size in range(2, k + 1):
        for support in itertools.combinations(range(k), size):
            for cols in itertools.combinations(range(l), size):
                sigma = max_min_candidate(g, support, cols)
                if sigma is None:
                    continue
                v = float((sigma @ g).min())
                if v > best_v:
                    best_v, best_sigma = v, sigma
    return best_v, best_sigma


def max_min_candidate(g, support, cols):
    """The mixture over ``support`` equalising ``cols``, or None where there is none."""
    size = len(support)
    lhs = np.zeros((size + 1, size + 1))
    lhs[:size, :size] = g[np.ix_(support, cols)].T
    lhs[:size, size] = -1.0
    lhs[size, :size] = 1.0
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return None
    w = sol[:size]
    if np.any(w < -1e-12):
        return None
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        return None
    sigma = np.zeros(g.shape[0])
    sigma[list(support)] = w / total
    return sigma

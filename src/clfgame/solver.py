"""General bimatrix machinery over the payoff matrices.

Nothing here knows about accuracies or attack budgets: the functions take
:class:`~clfgame.payoff.PayoffMatrices` (defender = row player maximising
``u_def``, adversary = column player maximising ``u_adv``) and do plain
finite game theory on them:

* equilibrium enumeration over all support pairs, with post-hoc
  verification of every candidate;
* strict dominance, pure and by mixtures (the mixture certificates come
  from exact vertex enumeration of the max-min LP, so no LP solver
  dependency);
* the piecewise-linear upper envelope of per-model net-CCR lines, which
  is what a defender who can re-pick the model for every attack budget
  would sit on.

Enumeration costs grow combinatorially, so the enumerating entry points
refuse games with more than ``MAX_ENUM_ACTIONS`` actions per side.  One
kernel, :func:`_stacked_indifference`, builds every small indifference
system of both enumerations and solves the square ones in stacked LAPACK
batches.  Support enumeration screens each size class's pairs in those
batches (:func:`_screen`) and decides the survivors in one stacked pass
per side (:func:`_mixing_weights`), whose unsolved systems go through one
stacked least-squares call per batch; only the pairs both sides accept are
checked one at a time.  The dominance max-min search (:func:`_max_min_gap`)
skips, before building any system, every support that a pure bound rules out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import DEFAULT_EPS, GameSpec, Strategy, _frozen_array, check_attack_index
from .payoff import PayoffMatrices, break_even_rates

DEFAULT_TOL = DEFAULT_EPS
MAX_ENUM_ACTIONS = 12

# Indifference systems per stacked LAPACK call.  Bounds the scratch arrays
# (a chunk of the largest systems the size guard admits, 13 x 13, is about
# 5 MB per array) however many support pairs a size class has.
_STACK_CHUNK = 4096


class SolverGuardError(RuntimeError):
    """A combinatorial routine was asked to handle a game beyond its size guard."""


def _guard_size(n_rows: int, n_cols: int) -> None:
    if n_rows > MAX_ENUM_ACTIONS or n_cols > MAX_ENUM_ACTIONS:
        raise SolverGuardError(
            f"enumeration limited to {MAX_ENUM_ACTIONS} actions per side, "
            f"got {n_rows} x {n_cols}"
        )


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Best pure-deviation gains of both players at a profile."""

    certified: bool
    adv_gain: float
    def_gain: float

    @property
    def max_gain(self) -> float:
        return max(self.adv_gain, self.def_gain)


def verify_equilibrium(
    m: PayoffMatrices, s: Strategy, r: Strategy, tol: float = DEFAULT_TOL
) -> EquilibriumCertificate:
    """Certify a profile by measuring each player's best deviation gain.

    The gains are ``max_j (s^T U_adv)_j - s^T U_adv r`` and
    ``max_i (U_def r)_i - s^T U_def r``; the profile is certified when
    both are at most ``tol``.  Gains are never meaningfully negative
    (mixing cannot beat the best pure response).
    """
    if len(s) != m.n_rows or len(r) != m.n_cols:
        raise ValueError(
            f"strategy lengths ({len(s)}, {len(r)}) do not match matrix shape "
            f"({m.n_rows}, {m.n_cols})"
        )
    adv_payoffs = s.probs @ m.u_adv
    def_payoffs = m.u_def @ r.probs
    adv_gain = float(adv_payoffs.max() - adv_payoffs @ r.probs)
    def_gain = float(def_payoffs.max() - s.probs @ def_payoffs)
    return EquilibriumCertificate(
        certified=adv_gain <= tol and def_gain <= tol,
        adv_gain=adv_gain,
        def_gain=def_gain,
    )


def pure_equilibria(m: PayoffMatrices, tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    """All pure profiles that are mutual best responses within ``tol``."""
    mask = m.u_def >= m.u_def.max(axis=0) - tol  # defender's best against each column
    mask &= m.u_adv >= m.u_adv.max(axis=1)[:, None] - tol  # adversary's best against each row
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """One verified equilibrium with its support and certification bound."""

    s: Strategy
    r: Strategy
    row_support: tuple[int, ...]
    col_support: tuple[int, ...]
    max_deviation_gain: float
    degenerate: bool


def _mixing_weights(
    a: np.ndarray,
    own: np.ndarray,
    opp: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    tol: float,
    res_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights over row sets of ``a`` equalising the opponent's payoff on column sets.

    Pair ``p`` joins the row set ``own[pairs[0][p]]`` with the column set
    ``opp[pairs[1][p]]``.  Returns ``(accept, x_full, degenerate)`` per
    pair: an accepted pair's ``x_full`` row is strictly positive exactly on
    its row set; a pair is rejected when its system is inconsistent or its
    solution leaves the simplex face.  Systems and square solves come from
    one :func:`_stacked_indifference` call; the systems it leaves unsolved
    (non-square or singular) are ``degenerate`` and go through
    :func:`_least_squares`, one call per chunk.
    """
    k, n_pairs = own.shape[1], len(pairs[0])
    accept = np.ones(n_pairs, dtype=bool)
    x_full = np.zeros((n_pairs, a.shape[0]))
    degenerate = np.zeros(n_pairs, dtype=bool)
    lo = 0
    for rows, lhs, sol, solved in _stacked_indifference(a, own, opp, pairs):
        hi = lo + len(rows)
        ok = accept[lo:hi]  # a view: the tests below write into accept
        ls = degenerate[lo:hi] = ~solved
        if ls.any():
            sol[ls], ok[ls] = _least_squares(lhs[ls], res_tol)
        x = sol[:, :k]
        ok &= ~(x < -tol).any(axis=1)
        x = x.clip(0.0)
        total = x.sum(axis=1, keepdims=True)
        positive = total > 0.0
        ok &= positive[:, 0]
        np.divide(x, total, out=x, where=positive)  # no 0 / 0 on rejected pairs
        # a boundary solution; the smaller support enumerates it on its own
        ok &= ~(x <= tol).any(axis=1)
        x_full[np.arange(lo, hi)[:, None], rows] = x
        lo = hi
    return accept, x_full, degenerate


def _least_squares(systems: np.ndarray, res_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq`` on stacked systems whose right-hand side is the last unit vector.

    One gufunc call, with ``lstsq``'s default cutoff, gives each system the
    bytes ``lstsq`` gives it alone.  Also returns which residuals are within ``res_tol``.
    """
    rhs = np.zeros((*systems.shape[:2], 1))
    rhs[:, -1] = 1.0
    rcond = np.finfo(float).eps * max(systems.shape[1:])
    # numpy's own error state, but an SVD that does not converge raises
    # FloatingPointError here instead of LinAlgError
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        fit = _umath_linalg.lstsq(systems, rhs, rcond, signature="ddd->ddid")[0]
    return fit[..., 0], ~(np.abs(systems @ fit - rhs).max(axis=(1, 2)) > res_tol)


def _stacked_indifference(
    a: np.ndarray,
    row_sets: np.ndarray,
    col_sets: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Build the indifference systems of many pairs and solve the square ones.

    The only place the system is written: for a row set of size ``k`` and
    a column set of size ``l``, ``(x^T a)[j] = v`` on the column set and
    ``sum x = 1``, an ``(l+1, k+1)`` matrix in ``(x, v)`` whose right-hand
    side is the last unit vector.  Pair ``p`` joins ``row_sets[pairs[0][p]]``
    with ``col_sets[pairs[1][p]]``; by default every row set meets every
    column set, in the order of a loop over row sets around a loop over
    column sets.  Yields ``(rows, lhs, sol, solved)`` per chunk of at most
    ``_STACK_CHUNK`` pairs: the chunk's row sets ``(B, k)``, its systems
    ``(B, l+1, k+1)``, and for square systems numpy's solve accepts
    (``solved``) their solutions ``(B, k+1)``, bit-identical to solving
    each system on its own; other rows of ``sol`` are NaN.  A square chunk
    is factorised once, in one stacked solve.
    """
    k, l = row_sets.shape[1], col_sets.shape[1]
    if pairs is None:
        pairs = np.divmod(np.arange(len(row_sets) * len(col_sets)), len(col_sets))
    row_idx, col_idx = pairs
    for lo in range(0, len(row_idx), _STACK_CHUNK):
        rows = row_sets[row_idx[lo : lo + _STACK_CHUNK]]
        cols = col_sets[col_idx[lo : lo + _STACK_CHUNK]]
        b = len(rows)
        lhs = np.zeros((b, l + 1, k + 1))
        lhs[:, :l, :k] = a[rows[:, None, :], cols[:, :, None]]
        lhs[:, :l, k] = -1.0
        lhs[:, l, :k] = 1.0
        sol = np.full((b, k + 1), np.nan)
        solved = np.zeros(b, dtype=bool)
        if k == l:
            rhs = np.zeros((b, k + 1, 1))
            rhs[:, k] = 1.0
            # numpy's public solve is this gufunc inside an errstate that raises
            # when any system has an exact zero pivot in getrf; called
            # directly it writes NaN for just those systems, so the chunk
            # is factorised once and the others keep their bytes
            with np.errstate(all="ignore"):
                sol = _umath_linalg.solve(lhs, rhs, signature="dd->d")[..., 0]
            solved = ~np.isnan(sol).any(axis=1)
        yield rows, lhs, sol, solved


def _screen(
    a: np.ndarray,
    row_sets: np.ndarray,
    col_sets: np.ndarray,
    tol: float,
    res_tol: float,
    margin: float,
    pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """False for the ``pairs`` that the exact path surely rejects.

    One side of the exact path: weights over a row set of ``a`` that
    equalise the opponent's payoff ``x @ a`` across a column set, then no
    column off that set more than ``tol`` above the set's best.  A pair is
    dropped when

    * a square nonsingular system has a weight below ``-tol``, the exact
      path's own test on the bit-identical solution;
    * a least-squares system's residual is above a thousand times
      ``res_tol``: from one stacked reduced QR when it is overdetermined
      (``e - Q Q^T e``; span(Q) contains the column space, so this is
      never above ``lstsq``'s residual), otherwise from a stacked
      pseudo-inverse with ``lstsq``'s cutoff;
    * some column off the set beats the set's best column by more than
      ``margin`` on every row of the row set, and so beats the set's value
      under any mixture of those rows;
    * a square nonsingular system's normalised mixture puts some column
      off the set more than ``margin`` above the set's best.

    ``margin`` is ``tol + 1e-9 * scale`` (``scale`` bounds the payoffs):
    stacked payoffs differ from the exact path's ``x @ a`` by rounding of
    a dozen products and a weight sum, orders of magnitude below the extra
    ``1e-9 * scale``.  Every other pair is kept for the exact path to decide.
    """
    k, l = row_sets.shape[1], col_sets.shape[1]
    masks = []
    for rows, lhs, sol, solved in _stacked_indifference(a, row_sets, col_sets, pairs):
        payoffs = a[rows]  # (B, k, columns of a)
        on_set = lhs[:, :l, :k]  # (B, l, k): the set's columns, transposed
        keep = ~np.any(sol[:, :k] < -tol, axis=1)
        keep &= ~np.any((payoffs - on_set.max(axis=1)[..., None]).min(axis=1) > margin, axis=1)
        ls = np.flatnonzero(keep & ~solved)
        if ls.size:
            systems = lhs[ls]
            if l > k:
                q = np.linalg.qr(systems)[0]
                resid = np.einsum("bij,bj->bi", q, q[:, -1])
            else:
                rcond = np.finfo(float).eps * max(systems.shape[1:])
                x = np.linalg.pinv(systems, rcond=rcond)[..., -1]
                resid = np.einsum("bij,bj->bi", systems, x)
            resid[:, -1] -= 1.0
            keep[ls] = ~(np.abs(resid).max(axis=1) > 1e3 * res_tol)
        live = np.flatnonzero(keep & solved)
        if live.size:
            w = np.clip(sol[live, :k], 0.0, None)
            x = w / w.sum(axis=1, keepdims=True)
            value = np.einsum("bk,bkc->bc", x, payoffs[live])
            top = np.einsum("blk,bk->bl", on_set[live], x).max(axis=1)
            keep[live] = ~np.any(value > (top + margin)[:, None], axis=1)
        masks.append(keep)
    return np.concatenate(masks)


def support_enumeration(m: PayoffMatrices, tol: float = DEFAULT_TOL) -> list[EquilibriumResult]:
    """Enumerate equilibria over every pair of supports.

    For each pair (I, J) the defender mix on I must equalise the
    adversary's payoff across J and vice versa; candidates then pass
    off-support optimality checks and final certification.  Equal-size
    supports give square indifference systems; unequal sizes only admit
    solutions in degenerate games and are handled by least squares with a
    residual check.  Off-support payoff ties within ``tol`` also raise
    the degenerate flag.

    Each (|I|, |J|) size class is first screened on both sides in stacked
    LAPACK batches (:func:`_screen`), which drops only pairs the exact path
    would reject.  The side whose systems are overdetermined is screened
    first, and the other side only over the pairs it keeps.  Square classes
    start on the side in ``U_def`` (the adversary's mixture, equalising the
    defender's payoffs): in a zero-budget game ``U_adv`` is constant, so
    the side in ``U_adv`` would reject nothing there.  Either order keeps
    the same pairs, those both screens keep.  The exact path then decides
    the survivors in one stacked pass per side (:func:`_mixing_weights`),
    the ``U_def`` side over the pairs the ``U_adv`` side accepts; only a
    pair both accept reaches the off-support checks and certification
    (:func:`_support_pair`), one pair at a time.
    """
    n, mm = m.n_rows, m.n_cols
    _guard_size(n, mm)
    scale = max(1.0, float(np.abs(m.u_adv).max()), float(np.abs(m.u_def).max()))
    res_tol = max(tol, 1e-11 * scale)
    margin = tol + 1e-9 * scale

    results: list[EquilibriumResult] = []
    col_classes = [_index_sets(mm, l) for l in range(1, mm + 1)]
    for k in range(1, n + 1):
        row_sets = _index_sets(n, k)
        for col_sets in col_classes:
            # pair p joins row set p // q with column set p % q
            q = len(col_sets)
            live = np.arange(len(row_sets) * q)
            sides = [(m.u_adv, row_sets, col_sets, False), (m.u_def.T, col_sets, row_sets, True)]
            for a, own, opp, swap in sides[::-1] if k >= col_sets.shape[1] else sides:
                if live.size:
                    i, j = np.divmod(live, q)
                    live = live[_screen(a, own, opp, tol, res_tol, margin, (j, i) if swap else (i, j))]
            if not live.size:
                continue
            # the exact path, on the pairs both screens keep
            i, j = np.divmod(live, q)
            ok, s_full, deg_s = _mixing_weights(m.u_adv, row_sets, col_sets, (i, j), tol, res_tol)
            i, j, s_full, deg_s = i[ok], j[ok], s_full[ok], deg_s[ok]
            ok, r_full, deg_r = _mixing_weights(m.u_def.T, col_sets, row_sets, (j, i), tol, res_tol)
            for p in np.flatnonzero(ok):
                rows = tuple(row_sets[i[p]].tolist())
                cols = tuple(col_sets[j[p]].tolist())
                degenerate = bool(deg_s[p] or deg_r[p])
                found = _support_pair(m, rows, cols, s_full[p], r_full[p], degenerate, tol)
                if found is not None:
                    results.append(found)
    results.sort(key=lambda e: (e.row_support, e.col_support))
    return results


def _support_pair(
    m: PayoffMatrices,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    s_full: np.ndarray,
    r_full: np.ndarray,
    degenerate: bool,
    tol: float,
) -> EquilibriumResult | None:
    """The verified equilibrium with supports (rows, cols) and mixtures (s_full, r_full), if any."""
    for payoffs, support in ((s_full @ m.u_adv, cols), (m.u_def @ r_full, rows)):
        value = float(payoffs[list(support)].max())
        for j, v in enumerate(payoffs.tolist()):
            if j in support:
                continue
            if v > value + tol:
                return None
            degenerate |= v > value - tol  # an off-support tie

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


@functools.cache
def _index_sets(size: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(size)``, one per row, in ``itertools`` order.

    Cached, since every action's max-min search and every size class of
    support enumeration asks for the same few tables; the array is
    read-only because every caller shares it.
    """
    sets = np.array(list(itertools.combinations(range(size), k)), dtype=np.intp).reshape(-1, k)
    sets.setflags(write=False)
    return sets


# ---------------------------------------------------------------------------
# strict dominance


@dataclass(frozen=True, eq=False)
class ActionDominance:
    """Dominance status of one action, with its certificate when dominated.

    ``margin`` is the worst-case strict improvement of the certificate
    over the dominated action (the max-min mixture gap for undominated
    actions, where it is at most the tolerance; ``-inf`` for an action
    with no alternatives).
    """

    action: int
    status: str  # "undominated" | "pure_dominated" | "mixed_dominated"
    dominated_by: int | None = None
    mixture: np.ndarray | None = None
    margin: float = 0.0


@dataclass(frozen=True)
class DominanceReport:
    player: str  # "defender" | "adversary"
    actions: tuple[ActionDominance, ...]

    def dominated_actions(self) -> tuple[int, ...]:
        return tuple(a.action for a in self.actions if a.status != "undominated")


def _own_payoffs(m: PayoffMatrices, player: str) -> np.ndarray:
    if player == "defender":
        return np.asarray(m.u_def)
    if player == "adversary":
        return np.asarray(m.u_adv).T
    raise ValueError(f"unknown player {player!r}")


def _max_min_gap(g: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Maximise over mixtures sigma the worst-column value of ``sigma^T g``.

    Exact vertex enumeration of the max-min LP: every optimal basic
    solution equalises the value across some column set of the same size
    as its support, so enumerating those square systems (plus the pure
    mixtures) and evaluating the true objective at each candidate reaches
    the optimum.  The first candidate, in enumeration order, that attains
    the largest value wins.

    A row set ``S`` is skipped, before any of its systems is built, when
    its pure bound ``UB(S) = min_j max_{i in S} g[i, j]`` is below the
    best value so far by more than ``slack``: no mixture over ``S``
    scores above ``UB(S)``, and in floating point a candidate's own
    ``(sigma @ g).min()`` exceeds it by at most about ``2 k eps max|g|``,
    far below ``slack = 1e-9 * max(1, max|g|)``.  A skipped candidate
    thus scores strictly below the best value: it could not have won, nor
    could its batched score have lifted a chunk's best, and the result
    does not depend on where the chunks break, so the winner and its bytes
    are those of the full search.  With non-finite ``g`` (``slack`` is
    infinite) or a NaN bound nothing is skipped.  If every row of a finite
    ``g`` is constant (as in a zero-budget game), the best pure row is the
    exact optimum and no support of two or more rows is searched; the full
    search could report a mixture scoring one ulp above it by rounding.
    Supports larger than the column count have no square system and are
    not enumerated.
    """
    k, l = g.shape
    best_v = -np.inf
    best_sigma: np.ndarray | None = None
    for idx in range(k):
        v = float(g[idx].min())
        if v > best_v:
            sigma = np.zeros(k)
            sigma[idx] = 1.0
            best_v, best_sigma = v, sigma
    finite = bool(np.isfinite(g).all())
    if finite and (g == g[:, :1]).all():
        return best_v, best_sigma
    # A stacked score differs from the candidate's own ``(sigma @ g).min()``
    # by summation order alone, far below ``slack``; every candidate within
    # ``slack`` of a chunk's best is scored again on its own, in order, so
    # the winner and its value are those of a one-at-a-time search.
    slack = 1e-9 * max(1.0, float(np.abs(g).max())) if finite else np.inf
    for size in range(2, min(k, l) + 1):
        row_sets, col_sets = _index_sets(k, size), _index_sets(l, size)
        # the row sets whose pure bound could still reach the best value
        kept = np.flatnonzero(~(g[row_sets].max(axis=1).min(axis=1) < best_v - slack))
        q = len(col_sets)
        pairs = (np.repeat(kept, q), np.tile(np.arange(q), len(kept)))
        for supports, _, sol, solved in _stacked_indifference(g, row_sets, col_sets, pairs):
            w = np.clip(sol[:, :size], 0.0, None)
            total = w.sum(axis=1)
            live = np.flatnonzero(
                solved & ~np.any(sol[:, :size] < -1e-12, axis=1) & ~(total <= 0.0)
            )
            x = w[live] / total[live, None]
            score = np.einsum("bs,bsl->bl", x, g[supports[live]]).min(axis=1)
            top = np.max(score, initial=best_v, where=~np.isnan(score))
            for i in live[~(score < top - slack)]:
                sigma = np.zeros(k)
                sigma[supports[i]] = w[i] / w[i].sum()
                v = float((sigma @ g).min())
                if v > best_v:
                    best_v, best_sigma = v, sigma
    return best_v, best_sigma


def dominance_report(m: PayoffMatrices, player: str, tol: float = DEFAULT_TOL) -> DominanceReport:
    """Classify each of one player's actions as undominated or strictly dominated.

    Pure dominators are preferred when they exist (and are themselves
    degenerate mixtures, so a pure-dominated action is in particular
    mixed-dominated); otherwise a strictly dominating mixture over the
    remaining actions is searched for.  Every reported certificate beats
    the dominated action by more than ``tol`` against each opponent pure
    action.
    """
    p = _own_payoffs(m, player)
    k, l = p.shape
    _guard_size(k, l)
    entries: list[ActionDominance] = []
    for action in range(k):
        others = [i for i in range(k) if i != action]
        if not others:
            entries.append(ActionDominance(action=action, status="undominated", margin=-np.inf))
            continue
        diffs = p[others] - p[action]
        worst = diffs.min(axis=1)
        best = int(np.argmax(worst))
        if worst[best] > tol:
            mixture = np.zeros(k)
            mixture[others[best]] = 1.0
            entries.append(
                ActionDominance(
                    action=action,
                    status="pure_dominated",
                    dominated_by=others[best],
                    mixture=_frozen_array(mixture),
                    margin=float(worst[best]),
                )
            )
            continue
        v, sigma_others = _max_min_gap(diffs)
        if v > tol and sigma_others is not None:
            mixture = np.zeros(k)
            mixture[others] = sigma_others
            entries.append(
                ActionDominance(
                    action=action,
                    status="mixed_dominated",
                    mixture=_frozen_array(mixture),
                    margin=float(v),
                )
            )
        else:
            entries.append(ActionDominance(action=action, status="undominated", margin=float(v)))
    return DominanceReport(player=player, actions=tuple(entries))


# ---------------------------------------------------------------------------
# upper envelope of per-model net-CCR lines


@dataclass(frozen=True)
class EnvelopeSegment:
    rho_start: float
    rho_end: float
    model_index: int


@dataclass(frozen=True)
class EnvelopeBreakpoint:
    rho: float
    models: tuple[int, ...]  # every line through the breakpoint, lowest first


@dataclass(frozen=True)
class EnvelopeSegments:
    """Piecewise-linear upper envelope over the attack budget [0, r_max]."""

    segments: tuple[EnvelopeSegment, ...]
    breakpoints: tuple[EnvelopeBreakpoint, ...]
    attack_index: int
    r_max: float


def upper_envelope_ccr(
    spec: GameSpec, attack_index: int, tol: float = DEFAULT_TOL
) -> EnvelopeSegments:
    """Which model maximises net CCR at each attack budget rho in [0, r_max].

    Each model contributes the line ``f_i(rho) = ccr_i(rho) - mu_def_i``;
    the envelope's exact breakpoints come from pairwise line
    intersections (no sampling).  Ties go to the lower model index, and a
    breakpoint where several lines meet is reported once with all
    participants.
    """
    check_attack_index(spec, attack_index)
    n = spec.n_models
    r_max = spec.economics.r_max
    acc = spec.acc
    intercepts = acc - break_even_rates(spec)[1]
    slopes = spec.robustness[:, attack_index] - acc

    def values(rho: float) -> np.ndarray:
        return intercepts + slopes * rho

    if r_max == 0.0:
        winner = int(np.argmax(intercepts))
        return EnvelopeSegments(
            segments=(EnvelopeSegment(0.0, 0.0, winner),),
            breakpoints=(),
            attack_index=attack_index,
            r_max=r_max,
        )

    candidates = {0.0, r_max}
    for i in range(n):
        for j in range(i + 1, n):
            if slopes[i] == slopes[j]:
                continue
            x = (intercepts[j] - intercepts[i]) / (slopes[i] - slopes[j])
            if 0.0 < x < r_max:
                candidates.add(float(x))
    xs = sorted(candidates)

    # winner of each non-empty interval between adjacent candidates, plus the
    # interval's left endpoint (the fallback breakpoint if lines are parallel)
    winners: list[int] = []
    interval_starts: list[float] = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        if x1 <= x0:
            continue
        winners.append(int(np.argmax(values(0.5 * (x0 + x1)))))
        interval_starts.append(x0)

    segments: list[EnvelopeSegment] = []
    breakpoints: list[EnvelopeBreakpoint] = []
    tie_tol = max(tol, 1e-12 * max(1.0, float(np.abs(intercepts).max() + np.abs(slopes).max())))
    start = 0.0
    current = winners[0]
    for idx in range(1, len(winners)):
        nxt = winners[idx]
        if nxt == current:
            continue
        denom = slopes[current] - slopes[nxt]
        if denom == 0.0:
            x_star = interval_starts[idx]
        else:
            x_star = float((intercepts[nxt] - intercepts[current]) / denom)
        segments.append(EnvelopeSegment(start, x_star, current))
        vals = values(x_star)
        top = vals.max()
        participants = tuple(int(i) for i in range(n) if vals[i] >= top - tie_tol)
        breakpoints.append(EnvelopeBreakpoint(rho=x_star, models=participants))
        start = x_star
        current = nxt
    segments.append(EnvelopeSegment(start, r_max, current))
    return EnvelopeSegments(
        segments=tuple(segments),
        breakpoints=tuple(breakpoints),
        attack_index=attack_index,
        r_max=r_max,
    )

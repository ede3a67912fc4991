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
* iterated elimination of strictly dominated actions;
* the piecewise-linear upper envelope of per-model net-CCR lines, which
  is what a defender who can re-pick the model for every attack budget
  would sit on;
* a brute-force simplex-grid oracle used to cross-check the above.

Enumeration costs grow combinatorially, so the enumerating entry points
refuse games with more than ``MAX_ENUM_ACTIONS`` actions per side.  Both
enumerations solve their small indifference systems in stacked LAPACK
batches (:func:`_stacked_indifference`) rather than one call at a time,
with one LU factorisation per square system: a second pass runs only
over a chunk that holds a singular system.  Support enumeration screens
the pairs in those batches (:func:`_screen`) before its exact per-pair
path: overdetermined least-squares systems by a QR projection residual,
the others by a pseudo-inverse residual, and the off-support conditions
by two tests with margin ``tol + 1e-9 * scale``, one that needs no mixture
and one on the mixtures of square systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    tol: float,
    res_tol: float,
):
    """Weights over ``rows`` of ``a`` equalising the opponent's payoff on ``cols``.

    Solves ``(x^T a)[j] = v`` for ``j in cols`` together with
    ``sum x = 1``.  Returns ``(x_full, degenerate)`` with ``x_full``
    strictly positive exactly on ``rows``, or None when the system is
    inconsistent or the solution leaves the simplex face.  Non-square or
    singular systems go through least squares (with a residual
    consistency check) and are flagged degenerate.
    """
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
        # boundary solution; the smaller support enumerates it on its own
        return None
    x_full = np.zeros(a.shape[0])
    x_full[list(rows)] = x
    return x_full, degenerate


def _stacked_indifference(
    a: np.ndarray,
    row_sets: np.ndarray,
    col_sets: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
):
    """The systems :func:`_mixing_weights` builds, for many pairs at once.

    Pair ``p`` joins ``row_sets[pairs[0][p]]`` with ``col_sets[pairs[1][p]]``;
    by default every row set meets every column set, in the order of a
    loop over row sets around a loop over column sets.  Yields
    ``(rows, lhs, sol, solved)`` per chunk of at most ``_STACK_CHUNK``
    pairs: the chunk's row sets ``(B, k)``, its systems
    ``(B, l+1, k+1)``, and for square systems that ``np.linalg.solve``
    accepts (``solved``) their solutions ``(B, k+1)``, bit-identical to
    solving each system on its own; other rows of ``sol`` are NaN.

    A square chunk is factorised once: one stacked solve, and only when
    some system in it is singular a second pass over the others.
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
            try:
                sol = np.linalg.solve(lhs, rhs)[..., 0]
                solved[:] = True
            except np.linalg.LinAlgError:
                # sign 0 is getrf's exact zero pivot, the test on which
                # np.linalg.solve raises for a singular system
                solved = np.linalg.slogdet(lhs)[0] != 0
                sol[solved] = np.linalg.solve(lhs[solved], rhs[solved])[..., 0]
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
    """False for the ``pairs`` on which :func:`_support_pair` surely returns None.

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
    LAPACK batches (:func:`_screen`), which drops only pairs the exact
    per-pair path would reject; every other pair goes through that path.
    The side whose systems are overdetermined is screened first, and the
    other side only over the pairs it keeps.
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
            # pair p joins row set p // Q with column set p % Q; the
            # overdetermined side is screened first and the other side
            # builds systems for its survivors only
            q = len(col_sets)
            live = np.arange(len(row_sets) * q)
            sides = [(m.u_adv, row_sets, col_sets, False), (m.u_def.T, col_sets, row_sets, True)]
            for a, own, opp, swap in sides[::-1] if k > col_sets.shape[1] else sides:
                if live.size:
                    i, j = np.divmod(live, q)
                    live = live[_screen(a, own, opp, tol, res_tol, margin, (j, i) if swap else (i, j))]
            for p in live:
                rows = tuple(row_sets[p // q].tolist())
                cols = tuple(col_sets[p % q].tolist())
                found = _support_pair(m, rows, cols, tol, res_tol)
                if found is not None:
                    results.append(found)
    results.sort(key=lambda e: (e.row_support, e.col_support))
    return results


def _support_pair(
    m: PayoffMatrices,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    tol: float,
    res_tol: float,
) -> EquilibriumResult | None:
    """The verified equilibrium with supports exactly (rows, cols), if any."""
    got_s = _mixing_weights(m.u_adv, rows, cols, tol, res_tol)
    if got_s is None:
        return None
    got_r = _mixing_weights(m.u_def.T, cols, rows, tol, res_tol)
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
            degenerate = True  # off-support tie
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


def _index_sets(size: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(size)``, one per row, in ``itertools`` order."""
    return np.array(list(itertools.combinations(range(size), k)), dtype=np.intp).reshape(-1, k)


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
    # A stacked score differs from the candidate's own ``(sigma @ g).min()``
    # by summation order alone, far below ``slack``; every candidate within
    # ``slack`` of a chunk's best is scored again on its own, in order, so
    # the winner and its value are those of a one-at-a-time search.
    slack = 1e-9 * max(1.0, float(np.abs(g).max())) if np.isfinite(g).all() else np.inf
    for size in range(2, k + 1):
        for supports, _, sol, solved in _stacked_indifference(
            g, _index_sets(k, size), _index_sets(l, size)
        ):
            w = np.clip(sol[:, :size], 0.0, None)
            total = w.sum(axis=1)
            live = np.flatnonzero(
                solved & ~np.any(sol[:, :size] < -1e-12, axis=1) & ~(total <= 0.0)
            )
            sigmas = np.zeros((len(live), k))
            np.put_along_axis(sigmas, supports[live], w[live] / total[live, None], axis=1)
            score = (sigmas @ g).min(axis=1)
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


@dataclass(frozen=True, eq=False)
class EliminationStep:
    player: str
    action: int  # original index
    status: str  # "pure_dominated" | "mixed_dominated"
    dominated_by: int | None = None  # original index
    margin: float = 0.0


@dataclass(frozen=True, eq=False)
class EliminationResult:
    reduced: PayoffMatrices
    rows: tuple[int, ...]  # surviving original row indices
    cols: tuple[int, ...]
    trace: tuple[EliminationStep, ...]


def iterated_elimination(m: PayoffMatrices, tol: float = DEFAULT_TOL) -> EliminationResult:
    """Remove strictly dominated actions (mixed dominance) until a fixpoint.

    Strict dominance makes the survivor set independent of removal order,
    so all of a player's dominated actions fall in one sweep.  The trace
    records every removal in original indices.
    """
    _guard_size(m.n_rows, m.n_cols)
    rows = list(range(m.n_rows))
    cols = list(range(m.n_cols))
    trace: list[EliminationStep] = []
    changed = True
    while changed:
        changed = False
        for player in ("defender", "adversary"):
            live = rows if player == "defender" else cols
            if len(live) <= 1:
                continue
            sub = PayoffMatrices(
                u_adv=m.u_adv[np.ix_(rows, cols)],
                u_def=m.u_def[np.ix_(rows, cols)],
            )
            report = dominance_report(sub, player, tol)
            doomed = [a for a in report.actions if a.status != "undominated"]
            if not doomed:
                continue
            for a in doomed:
                trace.append(
                    EliminationStep(
                        player=player,
                        action=live[a.action],
                        status=a.status,
                        dominated_by=None if a.dominated_by is None else live[a.dominated_by],
                        margin=a.margin,
                    )
                )
            for a in sorted((a.action for a in doomed), reverse=True):
                del live[a]
            changed = True
    reduced = PayoffMatrices(
        u_adv=m.u_adv[np.ix_(rows, cols)],
        u_def=m.u_def[np.ix_(rows, cols)],
    )
    return EliminationResult(
        reduced=reduced, rows=tuple(rows), cols=tuple(cols), trace=tuple(trace)
    )


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


# ---------------------------------------------------------------------------
# brute-force grid oracle


@dataclass(frozen=True, eq=False)
class GridProfile:
    s: np.ndarray
    r: np.ndarray
    gain: float


def simplex_grid(dim: int, divisions: int) -> np.ndarray:
    """All points of the probability simplex with coordinates k/divisions."""
    if dim < 1 or divisions < 1:
        raise ValueError("dim and divisions must be positive")
    points: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], divisions, dim)
    return np.array(points, dtype=float) / divisions


def grid_equilibrium_scan(
    m: PayoffMatrices,
    step: float = 0.005,
    gain_tol: float | None = None,
    chunk: int = 1024,
) -> list[GridProfile]:
    """Scan both strategy simplices on a grid for mutual near-best responses.

    With ``gain_tol`` given, returns every grid profile whose maximum
    deviation gain is at most the tolerance; otherwise just the single
    best grid profile.  Purely a cross-checking oracle: cost is the
    product of both grid sizes.
    """
    divisions = max(1, round(1.0 / step))
    counts = [_simplex_count(m.n_rows, divisions), _simplex_count(m.n_cols, divisions)]
    if max(counts) > 200_000:
        raise SolverGuardError(
            f"grid of {counts} points per side is beyond the scan guard; "
            "use a coarser step"
        )
    s_grid = simplex_grid(m.n_rows, divisions)
    r_grid = simplex_grid(m.n_cols, divisions)

    su = s_grid @ m.u_adv  # (P, M): adversary payoff per column under each s
    adv_best = su.max(axis=1)
    ur = m.u_def @ r_grid.T  # (N, Q): defender payoff per row under each r
    def_best = ur.max(axis=0)

    out: list[GridProfile] = []
    best: tuple[float, int, int] | None = None
    for lo in range(0, s_grid.shape[0], chunk):
        hi = min(lo + chunk, s_grid.shape[0])
        adv_cur = su[lo:hi] @ r_grid.T
        def_cur = s_grid[lo:hi] @ ur
        gains = np.maximum(
            adv_best[lo:hi, None] - adv_cur,
            def_best[None, :] - def_cur,
        )
        if gain_tol is None:
            flat = int(np.argmin(gains))
            p, q = divmod(flat, gains.shape[1])
            g = float(gains[p, q])
            if best is None or g < best[0]:
                best = (g, lo + p, q)
        else:
            for p, q in np.argwhere(gains <= gain_tol):
                out.append(
                    GridProfile(
                        s=s_grid[lo + p].copy(),
                        r=r_grid[q].copy(),
                        gain=float(gains[p, q]),
                    )
                )
    if gain_tol is None and best is not None:
        g, p, q = best
        out.append(GridProfile(s=s_grid[p].copy(), r=r_grid[q].copy(), gain=g))
    return out


def _simplex_count(dim: int, divisions: int) -> int:
    import math

    return math.comb(divisions + dim - 1, dim - 1)

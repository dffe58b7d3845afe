"""Dense LP solver and LP-derived checks.

Problems are ``min <c, x>  s.t.  <a_t, x> >= b_t`` with x free.  The solver is
a dense tableau simplex with Bland's anti-cycling rule that starts from the
slack basis: rows with b_t <= 0 are feasible at x = 0, so only rows with
b_t > 0 get an artificial variable, and phase 1 runs only when such a row
exists.  Optimal results carry dual weights and infeasible results Farkas
weights; both are the reduced costs of the slack columns in the final
tableau.  A caller may pass a candidate active set, such as the optimal
basis of a nearby LP: when its vertex and duals pass the simplex's own
stopping rule and the checks below, that optimum is returned without a
pivot, and otherwise the simplex runs as if none were given.  Every result
is checked on the original data before it is returned.  The solver is
deterministic: identical inputs give identical outputs, bit for bit.
"""

import numpy as np
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DimensionMismatchError,
    IterationLimitError,
    NumericalBreakdownError,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_CHECK_TOL = 1e-7
_FEAS_TOL = 1e-9  # the least Slater constant; the least LP probe margin (geometry)
_SLATER_CAP = 1e6


@dataclass(frozen=True)
class LinearProgram:
    """min <cost, x> subject to a_matrix @ x >= rhs (x free)."""

    cost: np.ndarray
    a_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for arr in (self.cost, self.a_matrix, self.rhs):
            if not np.isfinite(arr).all():
                raise ValueError("LP data must be finite")
        if self.a_matrix.ndim != 2 or self.a_matrix.shape[1] != self.cost.shape[0]:
            raise DimensionMismatchError(
                f"constraint matrix shape {self.a_matrix.shape} does not match "
                f"cost dimension {self.cost.shape[0]}"
            )
        if self.rhs.shape[0] != self.a_matrix.shape[0]:
            raise DimensionMismatchError("rhs length does not match row count")

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self.a_matrix.shape[0]


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: float
    solution: Optional[np.ndarray]
    dual_weights: Optional[np.ndarray]  # Farkas weights when infeasible
    # the n rows whose slacks are nonbasic at an optimum, or None
    active: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SlaterCertificate:
    point: np.ndarray
    rho: float
    capped: bool  # slack unbounded; rho hit the configured cap


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * T[row]
    # re-sparsify the pivot column exactly
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _pivot_loop(T, basis, ncols, max_iter, bounded=False):
    """Pivot until no column below `ncols` prices out; return -1, or the
    entering column of an unbounded ray.

    Bland's rule: entering column = smallest index with a negative reduced
    cost, leaving row = smallest ratio, ties broken by smallest basis index.
    With bounded=True (phase 1, whose objective cannot be unbounded) a column
    with no eligible leaving row is numerical noise and is skipped.
    """
    for _ in range(max_iter):
        for enter in (T[-1, :ncols] < -_PIVOT_TOL).nonzero()[0]:
            col = T[:-1, enter]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            if not rows.size:
                if bounded:
                    continue
                return int(enter)
            ratios = T[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
            _pivot(T, basis, ties[basis[ties].argmin()], enter)
            break
        else:
            return -1
    raise IterationLimitError("simplex iteration limit reached")


def _checked(ok, what):
    if not ok:
        raise NumericalBreakdownError(f"simplex result fails its {what} check")


def _failed_check(A, b, c, x, w, value):
    """The first of the primal, dual and duality-gap checks that x, of cost
    value, and its duals w >= 0 fail on the data (A, b, c), or "" when all
    three pass."""
    absA, absx = np.abs(A), np.abs(x)
    if not (b - A @ x <= _CHECK_TOL * (1.0 + np.abs(b) + absA @ absx)).all():
        return "primal"
    if not (np.abs(A.T @ w - c) <= _CHECK_TOL * (1.0 + np.abs(c) + absA.T @ w)).all():
        return "dual"
    if not abs(value - b @ w) <= _CHECK_TOL * (1.0 + np.abs(c) @ absx + np.abs(b) @ w):
        return "duality-gap"
    return ""


def _certified_start(lp: LinearProgram, start):
    """The optimum with active rows S = start, from A_S x = b_S and
    A_S' y = c, if the simplex would stop there (every slack A x - b and
    every y at least -_PIVOT_TOL) and it passes the checks; else None."""
    A, b, c = lp.a_matrix, lp.rhs, lp.cost
    S = [int(i) for i in start]
    if len(S) != lp.n or len(set(S)) != lp.n or not all(0 <= i < lp.m for i in S):
        return None
    try:
        x = np.linalg.solve(A[S], b[S])
        y = np.linalg.solve(A[S].T, c)
    except np.linalg.LinAlgError:
        return None
    if not ((A @ x - b >= -_PIVOT_TOL).all() and (y >= -_PIVOT_TOL).all()):
        return None
    w = np.zeros(lp.m)
    w[S] = np.maximum(y, 0.0)
    value = float(c @ x)
    if _failed_check(A, b, c, x, w, value):
        return None
    return SolveResult(OPTIMAL, value, x, w, np.array(S))


def solve(lp: LinearProgram, start=None) -> SolveResult:
    """Solve the LP, classifying optimal / infeasible / unbounded.

    `start`, n row indices such as another result's `active`, is tried
    first (_certified_start); the simplex runs when it is None or fails.
    Every result is checked on the original data before it is returned, and
    NumericalBreakdownError is raised when a check fails: an optimal x and
    its duals w >= 0 satisfy primal and dual feasibility and close the
    duality gap, an unbounded ray is a recession direction of descent, and
    infeasible results carry Farkas weights w >= 0 with A'w = 0, b'w > 0.
    """
    n, m = lp.n, lp.m
    A, b, c = lp.a_matrix, lp.rhs, lp.cost
    if m == 0:
        if not c.any():
            return SolveResult(OPTIMAL, 0.0, np.zeros(n), np.zeros(0))
        return SolveResult(UNBOUNDED, -np.inf, None, None)
    if start is not None and (res := _certified_start(lp, start)) is not None:
        return res

    # standard form x = u - v, slack s >= 0: [A, -A, -I] z = b.  Rows with
    # b <= 0 are negated so that their slack column is +e_i and starts basic;
    # only rows with b > 0 get an artificial column.
    positive = b > 0.0
    art = positive.nonzero()[0]
    sign = np.where(positive, 1.0, -1.0)
    N = 2 * n + m
    slack = slice(2 * n, N)
    basis = np.arange(2 * n, N)
    basis[art] = N + np.arange(art.size)
    T = np.zeros((m + 1, N + art.size + 1))
    T[:m, :n] = sign[:, None] * A
    T[:m, n : 2 * n] = -T[:m, :n]
    T[np.arange(m), basis] = 1.0
    T[art, art + 2 * n] = -1.0
    T[:m, -1] = np.abs(b)
    max_iter = 2000 + 200 * (m + N)

    if art.size:
        # phase 1: minimize the sum of the artificials
        T[-1, :N] = -T[art, :N].sum(axis=0)
        T[-1, -1] = -T[art, -1].sum()
        _pivot_loop(T, basis, N, max_iter, bounded=True)
        if T[-1, -1] < -1e-8 * max(1.0, np.abs(b).max()):
            # Farkas weights: the slack reduced costs of the phase-1 optimum
            w = np.maximum(T[-1, slack], 0.0)
            residual = np.abs(A.T @ w).max(initial=0.0)
            noise = _CHECK_TOL * np.abs(A).max(initial=0.0) * w.sum()
            _checked(residual <= noise and b @ w > 0.0, "Farkas")
            return SolveResult(INFEASIBLE, np.inf, None, w)
        # an artificial left basic (at level ~0) leaves for its own row's
        # slack, whose column is the negated artificial column: entry -1
        for pos in (basis >= N).nonzero()[0]:
            _pivot(T, basis, pos, 2 * n + art[basis[pos] - N])

    # phase 2, over the structural and slack columns only
    T[-1] = 0.0
    T[-1, :n] = c
    T[-1, n : 2 * n] = -c
    T[-1] -= T[-1, basis] @ T[:m]
    enter = _pivot_loop(T, basis, N, max_iter)
    z = np.zeros(T.shape[1] - 1)
    if enter >= 0:
        z[enter] = 1.0
        z[basis] = -T[:m, enter]
        d = z[:n] - z[n : 2 * n]
        noise = _CHECK_TOL * np.abs(A).sum(axis=1) * np.abs(d).max()
        _checked((A @ d >= -noise).all() and c @ d < 0.0, "unbounded-ray")
        return SolveResult(UNBOUNDED, -np.inf, None, None)

    z[basis] = T[:m, -1]
    x = z[:n] - z[n : 2 * n]
    # duals: the slack reduced costs of the phase-2 optimum
    w = np.maximum(T[-1, slack], 0.0)
    value = float(c @ x)
    failed = _failed_check(A, b, c, x, w, value)
    _checked(not failed, failed)
    # the basis has at most n structural columns, one per u_j / v_j pair
    nonbasic = np.ones(N, dtype=bool)
    nonbasic[basis] = False
    active = nonbasic[slack].nonzero()[0]
    return SolveResult(OPTIMAL, value, x, w, active if active.size == n else None)


def slater_constant(rows):
    """Maximal strong-Slater constant rho* with an attaining point.

    rows is an (m, n+1) array of stacked rows [a_t | b_t].  Solves
    max rho s.t. <a_t, x> >= b_t + rho, rho <= _SLATER_CAP, over (x, rho).
    Returns a SlaterCertificate, or None when rho* <= 0 (no strict slack).
    The LP is written in rho = rho0 + rho' with rho0 = min(_SLATER_CAP, min_t -b_t),
    so that every rhs is <= 0 and the simplex starts feasible.
    """
    if not len(rows):
        raise ValueError("slater_constant needs at least one row")
    A, b = rows[:, :-1], rows[:, -1]
    m, n = A.shape
    rho0 = min(_SLATER_CAP, float(-b.max()))
    aug = np.full((m + 1, n + 1), -1.0)
    aug[:m, :n] = A
    aug[m, :n] = 0.0
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = solve(LinearProgram(cost, aug, np.append(b + rho0, rho0 - _SLATER_CAP)))
    if res.status != OPTIMAL:
        raise NumericalBreakdownError(f"slater LP status {res.status}")
    rho = rho0 - res.value
    if rho <= _FEAS_TOL:
        return None
    return SlaterCertificate(
        point=res.solution[:n].copy(), rho=float(rho), capped=rho >= _SLATER_CAP - 1e-6
    )


"""Dense LP solver and LP-derived checks.

Problems are ``min <c, x>  s.t.  <a_t, x> >= b_t`` with x free.  The solver is
a dense tableau simplex with Bland's anti-cycling rule that starts from the
slack basis: rows with b_t <= 0 are feasible at x = 0, so only rows with
b_t > 0 get an artificial variable, and phase 1 runs only when such a row
exists.  Optimal results carry dual weights and infeasible results Farkas
weights; both are the reduced costs of the slack columns in the final
tableau.  Every result is checked on the original data before it is
returned.  The solver is deterministic: identical inputs give identical
outputs, bit for bit.
"""

import numpy as np
from dataclasses import dataclass
from typing import Optional

from .config import default_tolerances
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
_SLATER_CAP = 1e6


@dataclass(frozen=True)
class LinearProgram:
    """min <cost, x> subject to a_matrix @ x >= rhs (x free)."""

    cost: np.ndarray
    a_matrix: np.ndarray
    rhs: np.ndarray

    @classmethod
    def from_rows(cls, cost, rows) -> "LinearProgram":
        """Build from a list of (a, b) pairs meaning <a, x> >= b."""
        cost = np.asarray(cost, dtype=float)
        n = cost.shape[0]
        if rows:
            a = np.array([np.asarray(r[0], dtype=float) for r in rows])
            b = np.array([float(r[1]) for r in rows])
        else:
            a = np.zeros((0, n))
            b = np.zeros(0)
        return cls(cost=cost, a_matrix=a, rhs=b)

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


def solve(lp: LinearProgram) -> SolveResult:
    """Solve the LP, classifying optimal / infeasible / unbounded.

    Every result is checked on the original data before it is returned, and
    NumericalBreakdownError is raised when a check fails: an optimal x and
    its duals w >= 0 satisfy primal and dual feasibility and close the
    duality gap, an unbounded ray is a recession direction of descent, and
    infeasible results carry Farkas weights w >= 0 with A'w = 0, b'w > 0.
    """
    tol = default_tolerances().feasibility
    n, m = lp.n, lp.m
    A, b, c = lp.a_matrix, lp.rhs, lp.cost
    if m == 0:
        if not c.any():
            return SolveResult(OPTIMAL, 0.0, np.zeros(n), np.zeros(0))
        return SolveResult(UNBOUNDED, -np.inf, None, None)

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
        if T[-1, -1] < -max(tol, 1e-8) * max(1.0, np.abs(b).max()):
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
    absA, absx = np.abs(A), np.abs(x)
    primal_noise = _CHECK_TOL * (1.0 + np.abs(b) + absA @ absx)
    _checked((b - A @ x <= primal_noise).all(), "primal")
    dual_noise = _CHECK_TOL * (1.0 + np.abs(c) + absA.T @ w)
    _checked((np.abs(A.T @ w - c) <= dual_noise).all(), "dual")
    gap_noise = _CHECK_TOL * (1.0 + np.abs(c) @ absx + np.abs(b) @ w)
    _checked(abs(value - b @ w) <= gap_noise, "duality-gap")
    return SolveResult(OPTIMAL, value, x, w)


def slater_constant(rows):
    """Maximal strong-Slater constant rho* with an attaining point.

    Solves max rho s.t. <a_t, x> >= b_t + rho, rho <= _SLATER_CAP, over (x, rho).
    Returns a SlaterCertificate, or None when rho* <= 0 (no strict slack).
    The LP is written in rho = rho0 + rho' with rho0 = min(_SLATER_CAP, min_t -b_t),
    so that every rhs is <= 0 and the simplex starts feasible.
    """
    tol = default_tolerances().feasibility
    rows = list(rows)
    if not rows:
        raise ValueError("slater_constant needs at least one row")
    A = np.array([a for a, _ in rows], dtype=float)
    b = np.array([bt for _, bt in rows], dtype=float)
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
    if rho <= tol:
        return None
    return SlaterCertificate(
        point=res.solution[:n].copy(), rho=float(rho), capped=rho >= _SLATER_CAP - 1e-6
    )


def optimal_face_bounded(lp: LinearProgram) -> bool:
    """True iff the optimal face of a solvable LP is bounded.

    Recession-cone test: the face is bounded iff the cone
    {d : <a_t, d> >= 0, <c, d> = 0} is {0}; checked by 2n LPs maximizing
    +/- d_i over the cone intersected with the unit box.
    """
    tol = default_tolerances().optimality
    n = lp.n
    rows = [(lp.a_matrix[i], 0.0) for i in range(lp.m)]
    rows.append((lp.cost, 0.0))
    rows.append((-lp.cost, 0.0))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, -1.0))
        rows.append((-e, -1.0))
    for i in range(n):
        for s in (1.0, -1.0):
            cost = np.zeros(n)
            cost[i] = -s  # maximize s * d_i
            res = solve(LinearProgram.from_rows(cost, rows))
            if res.status != OPTIMAL:
                raise NumericalBreakdownError(f"recession LP status {res.status}")
            if -res.value > 100 * max(tol, 1e-8):
                return False
    return True

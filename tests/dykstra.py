"""Dykstra's alternating projection onto an H-polytope: a test reference.

The program projects onto an H-polytope as the hull of its enumerated
vertices (Wolfe's algorithm); this routine reaches the same projection from
the halfspaces alone, sharing no code with that path.
"""

import numpy as np

from robust_stability.errors import IterationLimitError

TOL = 1e-11
MAX_SWEEPS = 20_000


def project_onto_halfspaces(p, rows, tol=TOL):
    """Dykstra projection of p onto {x : <a_i, x> >= b_i for all i}, the
    rows [a_i | b_i] of the (m, n+1) array rows.

    Returns (q, dist).  Stops after the first sweep that moves no coordinate
    by more than tol and leaves no row violated by more than 1e-9;
    IterationLimitError if MAX_SWEEPS sweeps leave it unconverged.
    """
    p = np.asarray(p, dtype=float)
    A, b = rows[:, :-1], rows[:, -1]
    norms2 = np.sum(A * A, axis=1)
    x = p.copy()
    corrections = np.zeros((A.shape[0], p.shape[0]))
    for _ in range(MAX_SWEEPS):
        max_move = 0.0
        for i in range(A.shape[0]):
            if norms2[i] == 0.0:
                continue
            y = x - corrections[i]
            viol = b[i] - A[i] @ y
            x_new = y + (viol / norms2[i]) * A[i] if viol > 0.0 else y
            corrections[i] = x_new - y
            max_move = max(max_move, float(np.max(np.abs(x_new - x))))
            x = x_new
        if max_move <= tol and float(np.max(b - A @ x, initial=0.0)) <= 1e-9:
            return x, float(np.linalg.norm(p - x))
    raise IterationLimitError("Dykstra sweep limit reached")

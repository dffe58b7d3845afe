"""Problem data model.

Robust problems carry constraint-wise uncertainty polytopes in R^(n+1)
(vertices are stacked (a, b) rows); a finite LSIO system is one (m, n+1)
array of stacked rows [a | b], each meaning <a, x> >= b, with one label per
row.  The robust counterpart instantiates every uncertainty vertex, which
is exact for polytopal sets by convexity of each U_alpha and linearity of the
constraint in (a, b).
"""

import numpy as np
from dataclasses import dataclass
from typing import Optional

from . import lp as lpmod
from .errors import (
    DimensionMismatchError,
    EmptyUncertaintySetError,
    IndexMismatchError,
)
from .geometry import Polytope, hausdorff


@dataclass(frozen=True)
class LsioProblem:
    """min <cost, x> subject to <a_t, x> >= b_t for the rows [a_t | b_t] of
    the (m, n+1) array rows; labels names the rows, one unique str each."""

    cost: np.ndarray
    rows: np.ndarray
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.rows.ndim != 2 or self.rows.shape[1] != self.dim + 1:
            raise DimensionMismatchError(
                f"rows have shape {self.rows.shape}, cost has dimension {self.dim}"
            )
        if len(self.labels) != len(self.rows):
            raise ValueError(f"{len(self.labels)} labels for {len(self.rows)} rows")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("row labels must be unique within a system")

    @property
    def dim(self) -> int:
        return self.cost.shape[0]

    def to_lp(self) -> lpmod.LinearProgram:
        return lpmod.LinearProgram(self.cost, self.rows[:, :-1], self.rows[:, -1])


@dataclass(frozen=True)
class RobustProblem:
    """Constraint-wise uncertain LP: min over x of <c, x> (or worst-case over
    a cost polytope) subject to <a, x> >= b for every (a, b) in U_alpha.

    constraint_sets maps labels to polytopes in R^(n+1); exactly one of cost
    and cost_set must be present.
    """

    constraint_sets: dict
    cost: Optional[np.ndarray] = None
    cost_set: Optional[Polytope] = None

    def __post_init__(self):
        if (self.cost is None) == (self.cost_set is None):
            raise ValueError("exactly one of cost / cost_set must be given")
        if self.cost is not None:
            object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        if not self.constraint_sets:
            raise EmptyUncertaintySetError("no constraint sets")
        dims = {U.dim for U in self.constraint_sets.values()}
        if len(dims) != 1:
            raise DimensionMismatchError("constraint sets have mixed dimensions")
        d = dims.pop()
        n = self.cost.shape[0] if self.cost is not None else self.cost_set.dim
        if d != n + 1:
            raise DimensionMismatchError(
                f"constraint sets live in R^{d}, expected R^{n + 1}"
            )

    @property
    def dim(self) -> int:
        return self.cost.shape[0] if self.cost is not None else self.cost_set.dim


def robust_counterpart(rp: RobustProblem) -> LsioProblem:
    """Finite LSIO with one row per (constraint label, uncertainty vertex).

    Requires the fixed-cost form; row labels are "<alpha>#<vertexIndex>".
    """
    if rp.cost is None:
        raise ValueError("robust_counterpart needs the fixed-cost form")
    labels = tuple(
        f"{alpha}#{i}"
        for alpha, U in rp.constraint_sets.items()
        for i in range(len(U.vertices))
    )
    return LsioProblem(rp.cost, _stacked_rows(rp, rp.constraint_sets), labels)


def _stacked_rows(rp: RobustProblem, labels) -> np.ndarray:
    """The rows of rp's robust counterpart with its sets taken in the order
    of labels, as one stack of their vertex arrays."""
    return np.concatenate([rp.constraint_sets[alpha].vertices for alpha in labels])


def epigraph_reform(rp: RobustProblem) -> RobustProblem:
    """Lift cost uncertainty into an epigraph constraint.

    min tau s.t. <(-c, 1), (x, tau)> >= 0 for every c in C, original rows
    lifted with 0 coefficient on tau.  Slater slack of the original rows is
    preserved (the new variable does not enter them).
    """
    if rp.cost_set is None:
        raise ValueError("epigraph_reform needs a cost_set")
    n = rp.dim
    sets = {}
    for alpha, U in rp.constraint_sets.items():
        V = U.vertices
        lifted = np.hstack([V[:, :n], np.zeros((V.shape[0], 1)), V[:, n:]])
        sets[alpha] = Polytope(lifted)
    C = rp.cost_set.vertices
    epi = np.hstack([-C, np.ones((C.shape[0], 1)), np.zeros((C.shape[0], 1))])
    sets["_epigraph"] = Polytope(epi)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    return RobustProblem(constraint_sets=sets, cost=cost)


def delta_sigma(s1: LsioProblem, s2: LsioProblem) -> float:
    """sup over shared labels of ||(a1, b1) - (a2, b2)||.

    Defined only on a common index set; differing label sets are an error,
    not a large distance.
    """
    m1 = dict(zip(s1.labels, s1.rows))
    m2 = dict(zip(s2.labels, s2.rows))
    if set(m1) != set(m2):
        raise IndexMismatchError(
            f"label sets differ: {sorted(set(m1) ^ set(m2))}"
        )
    return max(float(np.linalg.norm(m1[k] - m2[k])) for k in m1)


def delta_pi(p1: LsioProblem, p2: LsioProblem) -> float:
    """max(||c1 - c2||, delta_sigma of the systems)."""
    if p1.dim != p2.dim:
        raise DimensionMismatchError("problems have different dimensions")
    return max(float(np.linalg.norm(p1.cost - p2.cost)), delta_sigma(p1, p2))


def constraintwise_distance(rpU: RobustProblem, rpV: RobustProblem) -> float:
    """d_nat: sup over alpha of d_H(U_alpha, V_alpha), in one scan over all
    the pairs that skips each pair whose nearest-vertex bound is strictly
    below the running maximum (geometry.hausdorff on sequences)."""
    if set(rpU.constraint_sets) != set(rpV.constraint_sets):
        raise IndexMismatchError(
            f"constraint labels differ: "
            f"{sorted(set(rpU.constraint_sets) ^ set(rpV.constraint_sets))}"
        )
    U = rpU.constraint_sets
    return hausdorff(list(U.values()), [rpV.constraint_sets[alpha] for alpha in U])


def _collapse(rows, tol):
    out = []
    for v in rows:
        if not any(np.linalg.norm(v - w) <= tol for w in out):
            out.append(v)
    return out


def pi_equivalent(p1: LsioProblem, p2: LsioProblem, tol: float = 1e-12) -> bool:
    """Equal costs and equal constraint sets as unordered (a, b) sets.

    Stronger than equal feasible sets: an extra trivial row breaks it.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatchError("problems have different dimensions")
    if np.linalg.norm(p1.cost - p2.cost) > tol:
        return False
    c1, c2 = _collapse(p1.rows, tol), _collapse(p2.rows, tol)
    def covered(xs, ys):
        return all(any(np.linalg.norm(x - y) <= tol for y in ys) for x in xs)
    return covered(c1, c2) and covered(c2, c1)

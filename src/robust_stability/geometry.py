"""Convex-polytope primitives.

Everything here operates on V-representation polytopes (finite vertex lists).
The workhorse is Wolfe's minimum-norm-point algorithm, an active-set scheme
whose stopping test is the Frank-Wolfe dual gap; it gives certified, exact
projections at desk scale.
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from . import lp as lpmod
from .config import default_tolerances
from .errors import (
    DimensionMismatchError,
    IterationLimitError,
    OriginNotInteriorError,
    UnboundedPolarError,
)

_MNP_GAP_TOL = 1e-9
_MNP_MAX_ITER = 100_000
_DYKSTRA_TOL = 1e-11
_DYKSTRA_MAX_SWEEPS = 20_000
_SUBSET_BLOCK = 4096  # d-subsets per stacked solve; ~3 MB of products at k = 64
_FACET_MAX_SUBSETS = 3 * _SUBSET_BLOCK  # per enumeration in facets(), ~30 ms


@dataclass(frozen=True)
class Polytope:
    """Convex hull of a finite, non-empty vertex list in R^dim.

    Duplicate or redundant vertices are tolerated everywhere.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("vertices must be a non-empty 2-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def translated(self, w) -> "Polytope":
        return Polytope(self.vertices + np.asarray(w, dtype=float))

    def scaled(self, s: float) -> "Polytope":
        return Polytope(self.vertices * float(s))


@dataclass(frozen=True)
class HSet:
    """conv(generators) + {(0,..,0,-mu) : mu >= 0} in R^(n+1).

    Generators are the stacked (a_t, b_t) rows of a constraint system; the
    recession ray points down the last coordinate.
    """

    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] == 0:
            raise ValueError("generators must be a non-empty 2-D array")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        object.__setattr__(self, "generators", g)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]


def _affine_minimizer(B):
    """Min-norm point of the affine hull of the rows of B.

    Returns weights a with sum(a) = 1 minimizing ||B' a||.
    """
    k = B.shape[0]
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = B @ B.T
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:k]


def min_norm_point(points: np.ndarray):
    """Wolfe's algorithm: argmin ||x|| over conv(points).

    Returns (x, weights) with weights a full-length convex combination.
    Termination: <x, x> - min_j <x, p_j> <= _MNP_GAP_TOL * scale (the
    Frank-Wolfe dual gap certificate); IterationLimitError after
    _MNP_MAX_ITER major cycles.
    """
    P = np.asarray(points, dtype=float)
    k = P.shape[0]
    scale = max(1.0, float(np.max(np.sum(P * P, axis=1))))
    start = int(np.argmin(np.sum(P * P, axis=1)))
    S = [start]
    lam = np.array([1.0])
    x = P[start].copy()
    for _ in range(_MNP_MAX_ITER):
        dots = P @ x
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= _MNP_GAP_TOL * scale:
            break
        if j in S:
            break  # numerically stalled; gap is already tiny
        f_prev = x @ x
        S.append(j)
        lam = np.append(lam, 0.0)
        # minor cycles: move to the affine minimizer, dropping vertices that
        # would go negative, until the minimizer is a convex combination
        while True:
            B = P[S]
            a = _affine_minimizer(B)
            if a.min() > 1e-12:
                lam = a
                break
            neg = a <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, lam / (lam - a), np.inf)
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * a
            keep = lam > 1e-12
            if keep.all():  # safeguard against cycling on ties
                keep[int(np.argmin(lam))] = False
            S = [s for s, kp in zip(S, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
        x = P[S].T @ lam
        if x @ x >= f_prev - 1e-18 * scale:
            break  # no progress possible at this precision
    else:
        raise IterationLimitError("min_norm_point iteration limit reached")
    weights = np.zeros(k)
    for s, l in zip(S, lam):
        weights[s] += l
    return x, weights


def project_onto_polytope(p, P: Polytope):
    """Euclidean projection of p onto conv(P); returns (q, dist).

    Unique by strict convexity; optimality is certified by the Frank-Wolfe
    gap inside min_norm_point.  A one-vertex set needs no Wolfe call: Wolfe
    would return its start point, the same row.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[0] != P.dim:
        raise DimensionMismatchError(
            f"point dimension {p.shape[0]} != polytope dimension {P.dim}"
        )
    x = P.vertices[0] - p if len(P.vertices) == 1 else min_norm_point(P.vertices - p)[0]
    q = x + p
    return q, float(np.linalg.norm(x))


def _scan_hausdorff(U: Polytope, V: Polytope, best: float) -> float:
    """max(best, directed_hausdorff(U, V)) by the early break."""
    if U.dim != V.dim:
        raise DimensionMismatchError("polytopes have different dimensions")
    if len(U.vertices) == 1 or len(V.vertices) == 1:  # no bound is cheaper
        return max([best] + [project_onto_polytope(u, V)[1] for u in U.vertices])
    D = V.vertices[None, :, :] - U.vertices[:, None, :]
    nearest = D[np.arange(len(D)), np.argmin(np.sum(D * D, axis=2), axis=1)]
    bounds = [float(np.linalg.norm(x)) for x in nearest]
    for i in sorted(range(len(bounds)), key=lambda i: -bounds[i]):
        if bounds[i] < best:
            break
        best = max(best, project_onto_polytope(U.vertices[i], V)[1])
    return best


def directed_hausdorff(U: Polytope, V: Polytope) -> float:
    """sup_{u in U} inf_{v in V} ||u - v||; attained at a vertex of U.

    Early break (Taha & Hanbury, IEEE TPAMI 2015): Wolfe's projection of u
    starts at the vertex of V nearest to u and only descends, so that
    distance bounds u's.  Vertices are projected in descending order of the
    bound until the next bound is strictly below the running maximum; ties
    are still projected.  One-vertex sets skip the bounds."""
    return _scan_hausdorff(U, V, 0.0)


def hausdorff(U: Polytope, V: Polytope) -> float:
    """Symmetric Hausdorff distance between conv(U) and conv(V); the second
    directed scan breaks early against the first one's maximum."""
    return _scan_hausdorff(V, U, _scan_hausdorff(U, V, 0.0))


def dist_origin_to_hset(H: HSet) -> float:
    """min over lambda in the simplex, mu >= 0 of ||sum lam_i g_i - mu e_last||.

    The ray contributes only mu <= max ||g|| at the optimum, so the set equals
    conv(G union (G - mu_max e_last)) with mu_max = 2 (max ||g|| + 1), and one
    min-norm-point solve is exact.
    """
    G = H.generators
    mu_max = 2.0 * (float(np.max(np.linalg.norm(G, axis=1))) + 1.0)
    shifted = G.copy()
    shifted[:, -1] -= mu_max
    x, _ = min_norm_point(np.vstack([G, shifted]))
    return float(np.linalg.norm(x))


def contains_origin_interior(P: Polytope):
    """(inside, margin): is there r > 0 with ball(0, r) inside conv(P)?

    margin is the smallest, over directions d = +/- e_i, of the largest r with
    r*d in conv(P).  The probe LPs run on the polar system of the inradius:
    by LP duality, for an interior origin

        max{r : r*d in conv(P)} = 1 / max{<d, y> : <v, y> <= 1, v in P},

    and the right-hand maximum is unbounded for some d exactly when the
    origin is not interior (the vertices do not positively span R^dim).
    """
    tol = default_tolerances().feasibility
    rows = [(-v, -1.0) for v in P.vertices]
    margin = np.inf
    for i in range(P.dim):
        for s in (1.0, -1.0):
            cost = np.zeros(P.dim)
            cost[i] = -s  # max s * y_i
            res = lpmod.solve(lpmod.LinearProgram.from_rows(cost, rows))
            if res.status != lpmod.OPTIMAL:
                return False, 0.0
            r_star = -1.0 / res.value
            if r_star <= tol:
                return False, 0.0
            margin = min(margin, r_star)
    return True, float(margin)


def _subset_solutions(M, rhs, d):
    """(M[S], X, M @ X) per block of d-subsets S of M's rows, M[S] x = rhs[S].

    Subsets come in itertools.combinations order; one is dropped exactly when
    its LU meets a zero pivot (slogdet sign 0), where np.linalg.solve raises.
    gesv and gemv run per subset, so every value has a one-subset call's bits.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(len(M)), d))
    while (idx := np.fromiter(itertools.islice(flat, _SUBSET_BLOCK * d), np.intp)).size:
        A = M[idx.reshape(-1, d)]
        ok = np.linalg.slogdet(A)[0] != 0
        X = np.linalg.solve(A[ok], rhs[idx.reshape(-1, d)[ok]][..., None])
        with np.errstate(invalid="ignore"):  # 0 * inf where a solve overflowed
            MX = M @ X
        yield A[ok], X[..., 0], MX[..., 0]


def _polar_vertices(W):
    """Rows y solving d-subsets of W y = 1 with W y <= 1 + 1e-9: the vertices
    of the polar {y : <w, y> <= 1, w a row of W}, duplicates kept."""
    k, d = W.shape
    blocks = _subset_solutions(W, np.ones(k), d)
    Y = [y for _, Y, WY in blocks for y in Y[(WY <= 1.0 + 1e-9).all(axis=1)]]
    return np.array(Y).reshape(-1, d)


class Inradius(NamedTuple):
    value: float
    estimated: bool


def inradius_at_origin(P: Polytope) -> Inradius:
    """Distance from the (interior) origin to the boundary of conv(P).

    Polar-circumradius identity: r* = 1 / max{||y|| : <v_i, y> <= 1 for all
    vertices}; the inner maximum is attained at a vertex of the polar
    H-polytope, found by solving dim-subsets of active constraints in stacked
    blocks.  An inradius or probe margin <= 1e-9 raises UnboundedPolarError.
    A seeded direction sweep (flagged estimated) covers dim > 4 or > 64 vertices.
    """
    inside, margin = contains_origin_interior(P)
    if not inside:
        raise OriginNotInteriorError("origin is not strictly inside conv(P)")
    if margin <= 1e-9:
        raise UnboundedPolarError("origin within tolerance of the boundary")
    V = P.vertices
    k, d = V.shape
    if d <= 4 and k <= 64:
        best = max((float(np.linalg.norm(y)) for y in _polar_vertices(V)), default=0.0)
        if best <= default_tolerances().feasibility:
            raise UnboundedPolarError("polar polytope has no vertices (degenerate)")
        if 1.0 / best <= 1e-9:  # the probe margin's threshold
            raise UnboundedPolarError("origin within tolerance of the boundary")
        return Inradius(value=1.0 / best, estimated=False)
    # fallback: minimize the support function h(u) = max_i <v_i, u> over unit
    # directions by seeded sweep plus shrinking local refinement
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((2000 * d, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    support = np.max(V @ dirs.T, axis=0)
    best_dir = dirs[int(np.argmin(support))]
    best_val = float(np.min(support))
    width = 1.0
    for _ in range(60):
        cand = best_dir[None, :] + width * rng.standard_normal((40, d))
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        vals = np.max(V @ cand.T, axis=0)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_dir = cand[j]
        width *= 0.85
    return Inradius(value=best_val, estimated=True)


class Facets(NamedTuple):
    """conv(P) = {x : normals (x - center) <= offsets}; unit normals."""

    center: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    scale: float  # max(1, max offset)


def facets(P: Polytope):
    """Facets of conv(P) from the polar vertices y of {y : <v - c, y> <= 1},
    c the vertex mean: row y / ||y||, offset 1 / ||y||.  Checked complete:
    each vertex of the H-polytope boxed at twice P's radius (so no facet
    goes missing unseen) lies within 1e-9 * scale of a vertex of P, so after
    the 1e-7 merge the H-polytope lies within 1e-7 + 1e-9 * scale of conv(P).
    None if not, for dim > 4, k > 64, k <= dim or flat P, and where either
    enumeration would solve over _FACET_MAX_SUBSETS d-subsets.
    """
    k, d = P.vertices.shape
    if d > 4 or k > 64 or k <= d or math.comb(k, d) > _FACET_MAX_SUBSETS:
        return None
    c = P.vertices.mean(axis=0)
    W = P.vertices - c
    Y = _polar_vertices(W)
    Y = Y[np.unique(Y.round(9), axis=0, return_index=True)[1]]
    if not len(Y) or math.comb(len(Y) + 2 * d, d) > _FACET_MAX_SUBSETS:
        return None
    off = 1.0 / np.linalg.norm(Y, axis=1)
    scale = float(off.max(initial=1.0))
    box = 2.0 * max(1.0, float(np.max(np.linalg.norm(W, axis=1))))
    rows = [(-y, -1.0) for y in Y] + [(s * e, -box) for e in np.eye(d) for s in (1.0, -1.0)]
    X = np.array(enumerate_hrep_vertices(rows, d)).reshape(-1, d)
    near = np.linalg.norm(X[:, None, :] - W, axis=2).min(axis=1, initial=np.inf)
    if not len(X) or near.max() > 1e-9 * scale:
        return None
    return Facets(c, Y * off[:, None], off, scale)


def project_onto_halfspaces(p, rows):
    """Dykstra projection of p onto {x : <a_i, x> >= b_i for all i}.

    Returns (q, dist).  Converges to the exact Euclidean projection for any
    non-empty intersection of halfspaces; desk-scale inputs settle quickly.
    IterationLimitError if _DYKSTRA_MAX_SWEEPS sweeps leave it unconverged.
    """
    p = np.asarray(p, dtype=float)
    A = np.array([np.asarray(a, dtype=float) for a, _ in rows])
    b = np.array([float(bb) for _, bb in rows])
    norms2 = np.sum(A * A, axis=1)
    m = A.shape[0]
    x = p.copy()
    corrections = np.zeros((m, p.shape[0]))
    for _ in range(_DYKSTRA_MAX_SWEEPS):
        max_move = 0.0
        for i in range(m):
            if norms2[i] == 0.0:
                continue
            y = x - corrections[i]
            viol = b[i] - A[i] @ y
            if viol > 0.0:
                x_new = y + (viol / norms2[i]) * A[i]
            else:
                x_new = y
            corrections[i] = x_new - y
            max_move = max(max_move, float(np.max(np.abs(x_new - x))))
            x = x_new
        resid = float(np.max(b - A @ x, initial=0.0))
        if max_move <= _DYKSTRA_TOL and resid <= 1e-9:
            break
    else:
        raise IterationLimitError("Dykstra sweep limit reached")
    return x, float(np.linalg.norm(p - x))


def enumerate_hrep_vertices(rows, dim: int):
    """Vertices of {x : <a_i, x> >= b_i}, dim <= 4, by basis enumeration.

    Every vertex is the unique solution of dim active rows; candidates are
    filtered by feasibility against all rows and deduplicated.  Subsets of
    rank < dim (singular values <= 1e-12 of the largest) solve to arbitrary
    face points, e.g. on an edge that four facets of a 4-D polytope share.
    """
    A = np.array([np.asarray(a, dtype=float) for a, _ in rows])
    b = np.array([float(bb) for _, bb in rows])
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(A))))
    verts = []
    for S, X, AX in _subset_solutions(A, b, dim):
        keep = np.isfinite(X).all(axis=1) & (AX >= b - 1e-8 * scale).all(axis=1)
        sv = np.linalg.svd(S[keep], compute_uv=False)
        keep[keep] = sv[:, -1] > 1e-12 * sv[:, 0]
        for x in X[keep]:
            if not any(np.linalg.norm(x - w) <= 1e-7 for w in verts):
                verts.append(x)
    return verts

"""Convex-polytope primitives.

Everything here operates on V-representation polytopes (finite vertex lists).
The workhorse is Wolfe's minimum-norm-point algorithm, an active-set scheme
whose stopping test is the Frank-Wolfe dual gap; it gives certified, exact
projections at desk scale, and it is the only projection: an H-polytope is
projected onto as the hull of its vertices (enumerate_hrep_vertices).
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

from . import lp as lpmod
from .errors import (
    DimensionMismatchError,
    IterationLimitError,
    OriginNotInteriorError,
    UnboundedPolarError,
)

_MNP_GAP_TOL = 1e-9
_MNP_MAX_ITER = 100_000
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
    if not np.isfinite(sol).all():
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
    norms2 = np.sum(P * P, axis=1)
    scale = max(1.0, float(norms2.max()))
    start = int(norms2.argmin())
    S = [start]
    lam = np.array([1.0])
    x = P[start].copy()
    for _ in range(_MNP_MAX_ITER):
        dots = P @ x
        j = int(dots.argmin())
        f_prev = x @ x
        if f_prev - dots[j] <= _MNP_GAP_TOL * scale:
            break
        if j in S:
            break  # numerically stalled; gap is already tiny
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
            theta = float(ratios.min())
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * a
            keep = lam > 1e-12
            if keep.all():  # safeguard against cycling on ties
                keep[int(lam.argmin())] = False
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


def _padded(sets):
    """The sets' vertices as one (len(sets), k, dim) block, k the largest
    count; a set with fewer vertices repeats its first, which changes no
    nearest distance and no argmin (the first index is kept)."""
    k, index, start = max(len(P.vertices) for P in sets), [], 0
    for P in sets:
        c = len(P.vertices)
        index += range(start, start + c)
        index += [start] * (k - c)
        start += c
    return np.concatenate([P.vertices for P in sets])[np.array(index).reshape(-1, k)]


def _nearest_bounds(UB, VB):
    """Per pair k of padded blocks UB[k], VB[k], each vertex's distance to
    the nearest vertex of the other set: Wolfe's start, so it bounds that
    vertex's projection distance.  Returns (pairs, ku), (pairs, kv) arrays."""
    if UB.shape[2] != VB.shape[2]:
        raise DimensionMismatchError("polytopes have different dimensions")
    D = VB[:, None, :, :] - UB[:, :, None, :]
    D2 = (D * D).sum(axis=3)
    # the argmins use Wolfe's own squared norms, so they pick its start; the
    # distances are math.sqrt(x.dot(x)) bit for bit (np.linalg.norm's
    # arithmetic, as project_onto_polytope reports it), which einsum and
    # (x * x).sum(-1) are not
    norms = np.sqrt((D[..., None, :] @ D[..., :, None])[..., 0, 0])
    k = np.arange(len(D))[:, None]
    return (
        norms[k, np.arange(D.shape[1]), D2.argmin(axis=2)],
        norms[k, D2.argmin(axis=1), np.arange(D.shape[2])],
    )


def _scan_hausdorff(U: Polytope, V: Polytope, bounds, best: float, known) -> float:
    """max(best, directed_hausdorff(U, V)) by the early break; `known` maps
    vertex indices of U to distances already projected.  Onto a one-vertex
    V the bound is the projection's distance, bit for bit."""
    for i in sorted(range(len(bounds)), key=lambda i: -bounds[i]):
        if bounds[i] < best:
            break
        d = known.get(i)
        if d is None:
            d = bounds[i] if len(V.vertices) == 1 else project_onto_polytope(U.vertices[i], V)[1]
        best = max(best, d)
    return best


def _hausdorff_max(pairs, known=None) -> float:
    """max of d_H(U, V) over pairs (U, V): pairs are visited in descending
    order of their largest vertex bound, until one is strictly below the
    running maximum, and scanned from that maximum.  known[k, side] maps
    vertex indices of pairs[k][side] to distances already projected.  The
    bounds of all pairs come from one padded block per side."""
    known = known or {}
    bu, bv = _nearest_bounds(*(_padded(side) for side in zip(*pairs)))
    # a pad repeats its set's first bound, so the padded row has the same max
    largest = np.maximum(bu.max(axis=1), bv.max(axis=1)).tolist()
    bu, bv = bu.tolist(), bv.tolist()
    best = 0.0
    for k in sorted(range(len(pairs)), key=lambda k: -largest[k]):
        if largest[k] < best:
            break
        U, V = pairs[k]
        best = _scan_hausdorff(U, V, bu[k][: len(U.vertices)], best, known.get((k, 0), {}))
        best = _scan_hausdorff(V, U, bv[k][: len(V.vertices)], best, known.get((k, 1), {}))
    return best


def directed_hausdorff(U: Polytope, V: Polytope) -> float:
    """sup_{u in U} inf_{v in V} ||u - v||; attained at a vertex of U.

    Early break (Taha & Hanbury, IEEE TPAMI 2015): Wolfe's projection of u
    starts at the vertex of V nearest to u and only descends, so that
    distance bounds u's.  Vertices are projected in descending order of the
    bound until the next bound is strictly below the running maximum; ties
    are still projected."""
    bounds = _nearest_bounds(U.vertices[None], V.vertices[None])[0]
    return _scan_hausdorff(U, V, bounds[0].tolist(), 0.0, {})


def hausdorff(U, V) -> float:
    """Symmetric Hausdorff distance between conv(U) and conv(V).

    For equal-length sequences of polytopes, max_k d_H(U[k], V[k]) (d_nat
    of constraint sets), in one scan that skips every pair whose bound
    cannot raise the maximum (_hausdorff_max).
    """
    pairs = [(U, V)] if isinstance(U, Polytope) else list(zip(U, V, strict=True))
    return _hausdorff_max(pairs) if pairs else 0.0


def dist_origin_to_hset(G) -> float:
    """Distance from the origin to H = conv(rows of G) + {(0,..,0,-mu) : mu >= 0}:
    min over lambda in the simplex, mu >= 0 of ||sum lam_i g_i - mu e_last||.

    G is a constraint system's (m, n+1) array of stacked rows [a_t | b_t],
    so H is the system's H set and the ray points down the b coordinate.
    The ray contributes only mu <= max ||g|| at the optimum, so the set equals
    conv(G union (G - mu_max e_last)) with mu_max = 2 (max ||g|| + 1), and one
    min-norm-point solve is exact.
    """
    mu_max = 2.0 * (float(np.max(np.linalg.norm(G, axis=1))) + 1.0)
    shifted = G.copy()
    shifted[:, -1] -= mu_max
    x, _ = min_norm_point(np.vstack([G, shifted]))
    return float(np.linalg.norm(x))


def contains_origin_interior(P: Polytope):
    """(inside, margin): is there r > 0 with ball(0, r) inside conv(P)?

    margin is the smallest, over directions d = +/- e_i, of the largest r with
    r*d in conv(P).  The probe runs on the polar body of the inradius: by LP
    duality, for an interior origin

        max{r : r*d in conv(P)} = 1 / max{<d, y> : <v, y> <= 1, v in P},

    and the right-hand maximum is unbounded for some d exactly when the
    origin is not interior (the vertices do not positively span R^dim).
    Both come from _polar_probe's one pass over that body.
    """
    return _polar_probe(P)[:2]


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


def _polar_bases(W):
    """(W_S, y) stacked over the d-subsets S of W's rows whose solution y of
    W_S y = 1 has W y <= 1 + 1e-9: the vertices of the polar
    {y : <w, y> <= 1, w a row of W}, duplicates kept, with their bases."""
    k, d = W.shape
    S, Y = [np.zeros((0, d, d))], [np.zeros((0, d))]
    for A, X, WX in _subset_solutions(W, np.ones(k), d):
        feasible = (WX <= 1.0 + 1e-9).all(axis=1)
        S.append(A[feasible])
        Y.append(X[feasible])
    return np.concatenate(S), np.concatenate(Y)


def _polar_vertices(W):
    """The vertices of the polar {y : <w, y> <= 1, w a row of W} as rows,
    duplicates kept (_polar_bases)."""
    return _polar_bases(W)[1]


def _certified_directions(S, Y):
    """Per probe direction s e_i, whether some polar vertex y, with basis
    S_y, certifies max{s y_i : W y <= 1} at y, by the tests lp.solve puts to
    an optimum: the multipliers lam = s (row i of S_y^-1) are all
    >= -_PIVOT_TOL (the simplex's stopping test), and w = max(lam, 0)
    reproduces s e_i as S_y' w and closes the gap sum(w) = s y_i within
    _CHECK_TOL (lp._failed_check).  y is feasible by _polar_bases.
    Directions come in _polar_probe's order: i = 0..d-1, s = +1 then -1."""
    D = np.array([s * e for e in np.eye(Y.shape[1]) for s in (1.0, -1.0)])
    tol = lpmod._CHECK_TOL
    with np.errstate(over="ignore", invalid="ignore"):  # inverses of near-singular bases
        lam = D @ np.linalg.inv(S)  # (vertex, direction, row of the basis)
        w = np.maximum(lam, 0.0)
        total = w.sum(axis=2)
        dual = np.abs(w @ S - D) <= tol * (1.0 + np.abs(D) + w @ np.abs(S))
        gap = np.abs(Y @ D.T - total) <= tol * (1.0 + np.abs(Y) @ np.abs(D).T + total)
        ok = (lam >= -lpmod._PIVOT_TOL).all(axis=2) & dual.all(axis=2) & gap
    return ok.any(axis=0)


def _probe_lp(W, i, s):
    """The largest r with r s e_i in conv(W): 1 / max{s y_i : W y <= 1}, or
    0.0 when that maximum is unbounded."""
    cost = np.zeros(W.shape[1])
    cost[i] = -s  # max s * y_i
    res = lpmod.solve(lpmod.LinearProgram(cost, -W, -np.ones(len(W))))
    return -1.0 / res.value if res.status == lpmod.OPTIMAL else 0.0


class Inradius(NamedTuple):
    value: float
    estimated: bool


def _polar_probe(P: Polytope):
    """(inside, margin, inradius) of conv(P) at the origin, from one pass
    over the polar body Q = {y : <v, y> <= 1, v a nonzero vertex of P}.

    inside and margin are contains_origin_interior's: inside when, for each
    direction s e_i, r = 1 / max{s y_i : y in Q} exceeds the feasibility
    tolerance, and margin the smallest such r.  For dim <= 4 and <= 64
    nonzero vertices every vertex of Q is enumerated (_polar_bases), and
    a direction that one of them certifies (_certified_directions) has its
    maximum at the vertices; any other direction is answered by its LP
    (_probe_lp).  inradius, by the polar-circumradius identity, is
    1 / max ||y|| over those vertices; above the limits it is the certified
    lower bound margin / sqrt(dim), flagged estimated: conv(P) contains the
    cross-polytope conv{+/- margin e_i}, whose inradius that is.  It is None
    when the origin is not inside, when Q has no vertex, and when it would
    be <= 1e-9.
    """
    tol = lpmod._FEAS_TOL
    # a zero vertex (the slack row's, in the augmented Z-) bounds nothing: 0 <= 1
    W = P.vertices[P.vertices.any(axis=1)]
    k, d = W.shape
    exact = d <= 4 and k <= 64
    if exact:
        S, Y = _polar_bases(W)
        certified = _certified_directions(S, Y)
    margin = np.inf
    for j, (i, s) in enumerate(itertools.product(range(d), (1.0, -1.0))):
        if exact and certified[j]:
            r_star = 1.0 / float(np.max(s * Y[:, i]))
        else:
            r_star = _probe_lp(W, i, s)
        if r_star <= tol:
            return False, 0.0, None
        margin = min(margin, r_star)
    if not exact:
        value, estimated = margin / math.sqrt(d), True
    else:
        best = max((float(np.linalg.norm(y)) for y in Y), default=0.0)
        value, estimated = (1.0 / best if best > tol else 0.0), False
    return True, margin, Inradius(value, estimated) if value > 1e-9 else None


def inradius_at_origin(P: Polytope) -> Inradius:
    """Distance from the (interior) origin to the boundary of conv(P).

    Reads one _polar_probe: OriginNotInteriorError if the origin is not
    inside, UnboundedPolarError for a probe margin <= 1e-9, and
    UnboundedPolarError where it gives no inradius (no polar vertex, or a
    value <= 1e-9).
    """
    inside, margin, inradius = _polar_probe(P)
    if not inside:
        raise OriginNotInteriorError("origin is not strictly inside conv(P)")
    if margin <= 1e-9:
        raise UnboundedPolarError("origin within tolerance of the boundary")
    if inradius is None:
        raise UnboundedPolarError(
            "polar polytope has no vertices, or the origin is within tolerance "
            "of the boundary"
        )
    return inradius


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
    rows = np.vstack(
        [np.column_stack([-Y, np.full(len(Y), -1.0)])]
        + [np.append(s * e, -box) for e in np.eye(d) for s in (1.0, -1.0)]
    )
    X = np.array(enumerate_hrep_vertices(rows)).reshape(-1, d)
    near = np.linalg.norm(X[:, None, :] - W, axis=2).min(axis=1, initial=np.inf)
    if not len(X) or near.max() > 1e-9 * scale:
        return None
    return Facets(c, Y * off[:, None], off, scale)


def enumerate_hrep_vertices(rows):
    """Vertices of {x : <a_i, x> >= b_i}, the rows [a_i | b_i] of the
    (m, dim+1) array rows, by basis enumeration over the C(m, dim) subsets
    of dim rows (desk scale).

    Every vertex is the unique solution of dim active rows; candidates are
    filtered by feasibility against all rows, row i at its own scale
    (violation <= 1e-8 * max(1, |b_i|, max_j |a_ij|), so that one row with
    large entries loosens no other), and deduplicated in first-occurrence
    order: a candidate within 1e-7 of a kept vertex is dropped.  Subsets of
    rank < dim (singular values <= 1e-12 of the largest) solve to arbitrary
    face points, e.g. on an edge that four facets of a 4-D polytope share.
    """
    A, b = rows[:, :-1], rows[:, -1]
    dim = A.shape[1]
    tol = 1e-8 * np.maximum(np.maximum(1.0, np.abs(b)), np.abs(A).max(axis=1))
    verts = np.zeros((0, dim))
    for S, X, AX in _subset_solutions(A, b, dim):
        keep = np.isfinite(X).all(axis=1) & (AX >= b - tol).all(axis=1)
        sv = np.linalg.svd(S[keep], compute_uv=False)
        keep[keep] = sv[:, -1] > 1e-12 * sv[:, 0]
        verts = _append_distinct(verts, X[keep])
    return list(verts)


def _append_distinct(kept, X):
    """kept followed by each row x of X, in order, that lies more than 1e-7
    from every row kept before it.  The distances are np.linalg.norm(x - w)
    bit for bit, taken 64 rows of X at a time against all kept rows and
    those 64, which bounds the block at 64 * (len(kept) + 64) * dim."""
    for i in range(0, len(X), 64):
        C = X[i : i + 64]
        D = C[:, None, :] - np.concatenate([kept, C])
        near = (np.sqrt((D[..., None, :] @ D[..., :, None])[..., 0, 0]) <= 1e-7).tolist()
        n, new = len(kept), []
        for j, row in enumerate(near):
            if not any(row[:n]) and not any(row[n + q] for q in new):
                new.append(j)
        kept = np.concatenate([kept, C[new]])
    return kept

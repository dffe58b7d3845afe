"""Sampled realization of the RO-LSIO transformations.

For uncertainty polytopes U, V the transformation sigma_{U;V} maps an index
point t to (t, b) if t is in U, to (proj_U(t), b) if t is in V but not U, and
to the trivial row (0, -rho) otherwise.  The distance identity says the sup of
||sigma_{U;V}(t) - sigma_{V;U}(t)|| over t equals d_H(U, V); because the sup
is attained at vertices of U and V, including those deterministically in
every sample plan turns the check into an equality test.

The sampler projects an index point only where sigma reads the projection
or its membership is not otherwise known.  A vertex or convex combination of
U's vertices lies in U (likewise for V).  Other memberships are read off
geometry.facets: a point beyond _FACET_BAND * scale of a facet hyperplane is
outside, one that deep inside every facet is inside.  The list is checked
complete: by its ridge count, each listed facet then being a facet of
conv(P) to within 1e-9 * scale, or else by the boxed H-polytope lying
within 1e-7 + 1e-9 * scale of conv(P); so this is exact membership.  That
it matches the projection's verdict (distance <= _MEMBERSHIP_TOL; Wolfe
stops on a gap test, a stall or no progress) is measured, not derived: the
transform-identity benchmark pools kept every bit.  Points in the band, and
sets without a facet list, are projected, U before V, each while an allowed
index region has room.

Candidates are drawn _BLOCK at a time: per block, one integer draw picks
each candidate's source (U's hull, V's hull or the box), then one Dirichlet
draw per vertex set and one uniform draw fill them, so the seeded stream
differs from a point-by-point draw.  The facet test runs once per block
and set.  Where t lies in exactly one set, the only points where the two
transformations differ, their difference is t's distance to the other set;
the sampler keeps that distance, not the projected point.

That distance is convex in t, so a hull draw t = sum_i w_i u_i has d(t, V)
<= sum_i w_i d(u_i, V), read off the vertex pass, and a box draw d(t, V) <=
its nearest vertex's distance.  A read whose bound lies strictly below the
largest distance sampled so far cannot raise the sup, so it is skipped:
the point is still accepted and counted, its distance None.  In exact
arithmetic measured therefore never exceeds the vertex maximum, which is
bound; the check's own content is the vertices' facet memberships (and,
in the benchmark, an oracle comparing d_H with the translation's norm).
"""

import numpy as np
from dataclasses import dataclass

from .errors import DimensionMismatchError, IndexMismatchError
from .geometry import Polytope, _hausdorff_max, facets, project_onto_polytope
from .model import RobustProblem
from .report import CertificateReport

_MEMBERSHIP_TOL = 1e-9
_AMBIGUITY_BAND = 1e-9
_FACET_BAND = 1e-6
_IDENTITY_TOL = 1e-6
_BOX_MARGIN = 1.0  # random draws fill the vertices' bounding box plus this
_BLOCK = 64  # candidates drawn and tested against the facets at a time
_STALL = 200  # consecutive rejected draws that end the sampling


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling counts for the four index regions.

    counts order: (U and V, U minus V, V minus U, outside both).
    """

    seed: int = 0
    counts: tuple = (50, 50, 50, 50)


def eval_sigma_uv(t, U: Polytope, V: Polytope, b: float, rho: float) -> np.ndarray:
    """sigma_{U;V}(t) as a stacked (a, b) vector in R^(n+1)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    t = np.asarray(t, dtype=float)
    proj_u, du = project_onto_polytope(t, U)
    if du <= _MEMBERSHIP_TOL:
        return np.append(t, float(b))
    if project_onto_polytope(t, V)[1] <= _MEMBERSHIP_TOL:
        return np.append(proj_u, float(b))
    n = t.shape[0]
    return np.append(np.zeros(n), -float(rho))


def _region(in_u, in_v):
    """Index region of SamplePlan.counts: 0 both, 1 U only, 2 V only, 3 neither."""
    return 2 * (not in_u) + (not in_v)


def _has_room(inside, full):
    """Does a region allowed by the memberships (None: unknown) have room?"""
    options = [(True, False) if m is None else (m,) for m in inside]
    return any(not full[_region(u, v)] for u in options[0] for v in options[1])


def _memberships(T, homes, hreps):
    """[in_u, in_v] per row t of T as far as the facets decide, None where
    they do not: t beyond _FACET_BAND * scale of a facet hyperplane is
    outside, t that deep inside every facet is inside, and a set without a
    facet list (hreps[i] None) leaves it open.  t lies in its home set
    (homes: 0 U, 1 V, 2 neither), which is not tested.  The products are
    per row, so a point has the same verdict in any block."""
    cols = []
    for h in hreps:  # geometry.Facets or None
        if h is None:
            cols.append([None] * len(T))
            continue
        s = (((T - h.center)[:, None, :] * h.normals).sum(axis=2) - h.offsets).max(axis=1)
        cols.append(np.where(np.abs(s) > _FACET_BAND * h.scale, s < 0.0, None).tolist())
    return [[home == 0 or u, home == 1 or v] for home, u, v in zip(homes, *cols)]


def _settle(t, U, V, inside, full, bound, top):
    """(in_u, in_v, dist_u, dist_v) from the memberships known so far, or
    None if t falls in the membership ambiguity band or only in full
    regions.  Projects as the module docstring says, except that the
    distance sigma reads is skipped where bound (upper bounds on t's
    distances to U and V) puts it strictly below top, the largest distance
    sampled so far; a distance is None where no projection ran."""
    dist = [None, None]
    for i, P in enumerate((U, V)):
        if inside[i] is None and _has_room(inside, full):
            dist[i] = project_onto_polytope(t, P)[1]
            if _MEMBERSHIP_TOL < dist[i] <= _MEMBERSHIP_TOL + _AMBIGUITY_BAND:
                return None
            inside[i] = dist[i] <= _MEMBERSHIP_TOL
    if not _has_room(inside, full):
        return None
    for i, P in enumerate((U, V)):  # the distance sigma reads, once
        if inside[1 - i] and not inside[i] and dist[i] is None and not bound[i] < top:
            dist[i] = project_onto_polytope(t, P)[1]
    return (*inside, *dist)


def _draw_block(rng, U, V, lo, hi, far):
    """The next _BLOCK candidates of the stream: (homes, points, bounds) in
    draw order.  Home 0 (1) is a Dirichlet-weighted convex combination of
    U's (V's) vertices, exactly the vertex for a one-vertex set (whose
    weight can read an ulp off 1.0), home 2 a uniform draw from the box
    [lo, hi].  bounds[j] bounds point j's distances to U and V: w . far[0]
    bounds a U draw's distance to V by convexity, far[0] holding U's vertex
    distances to V (likewise for V), and the nearest vertex bounds a box
    draw's; a point's distance to its home set is 0."""
    homes = rng.integers(0, 3, _BLOCK)
    T, B = np.empty((_BLOCK, len(lo))), np.zeros((_BLOCK, 2))
    for home, P in enumerate((U, V)):
        at = homes == home
        weights = rng.dirichlet(np.ones(len(P.vertices)), int(at.sum()))
        if len(P.vertices) == 1:
            T[at], B[at, 1 - home] = P.vertices[0], far[home][0]
        else:
            T[at], B[at, 1 - home] = weights @ P.vertices, weights @ far[home]
    at = homes == 2
    T[at] = rng.uniform(lo, hi, (int(at.sum()), len(lo)))
    for i, P in enumerate((U, V)):
        B[at, i] = np.sqrt(((T[at][:, None, :] - P.vertices) ** 2).sum(axis=2)).min(axis=1)
    return homes.tolist(), T, B.tolist()


def _gap(in_u, in_v, dist_u, dist_v):
    """||sigma_{U;V}(t) - sigma_{V;U}(t)||: 0 unless t is in exactly one
    set, then t's distance to the other set (None where it was skipped; b -
    b = 0 for stacked rows)."""
    return 0.0 if in_u == in_v else dist_v if in_u else dist_u


def _sample_index_points(U: Polytope, V: Polytope, plan: SamplePlan):
    """Deterministic vertices of both sets plus seeded samples per region.

    Candidates come _BLOCK at a time (_draw_block) with their facet
    memberships (_memberships) and are walked in draw order; a decided
    point in a full region is rejected without a call.  Region targets are
    best-effort: sampling stops after _STALL consecutive rejected draws,
    counted across blocks, so empty regions (e.g. disjoint sets have no
    U-and-V points) are skipped rather than spun on, and at the draw that
    fills the last region.  Returns [(t, in_u, in_v, dist_u, dist_v)] and
    the vertices' distances to the other set as _hausdorff_max reads them.
    """
    rng = np.random.default_rng(plan.seed)
    hreps = (facets(U), facets(V))
    out, known, top = [], {(0, 0): {}, (0, 1): {}}, 0.0
    far = (np.zeros(len(U.vertices)), np.zeros(len(V.vertices)))  # 0 inside
    k = len(U.vertices)
    all_v = np.vstack([U.vertices, V.vertices])
    homes = [0] * k + [1] * len(V.vertices)
    for j, (v, inside) in enumerate(zip(all_v, _memberships(all_v, homes, hreps))):
        home, i = homes[j], j - homes[j] * k
        cls = _settle(v, U, V, inside, (False,) * 4, (np.inf, np.inf), top)
        if cls is None:  # within the other set's ambiguity band
            far[home][i] = _MEMBERSHIP_TOL + _AMBIGUITY_BAND
            continue
        out.append((v, *cls))
        top = max(top, _gap(*cls))
        if cls[3 - home] is not None:  # the distance to the other set
            known[0, home][i] = far[home][i] = cls[3 - home]
    lo = all_v.min(axis=0) - _BOX_MARGIN
    hi = all_v.max(axis=0) + _BOX_MARGIN
    want, got, stall = plan.counts, [0, 0, 0, 0], 0
    full = [w <= 0 for w in want]
    while not all(full) and stall < _STALL:
        homes, T, bounds = _draw_block(rng, U, V, lo, hi, far)
        for t, inside, bound in zip(T, _memberships(T, homes, hreps), bounds):
            if None not in inside and full[_region(*inside)]:
                cls = None  # decided, and its region is full
            else:
                cls = _settle(t, U, V, inside, full, bound, top)
            if cls is None:
                stall += 1
                if stall == _STALL:
                    break
                continue
            r = _region(cls[0], cls[1])
            got[r] += 1
            full[r] = got[r] >= want[r]
            stall = 0
            out.append((t, *cls))
            top = max(top, _gap(*cls) or 0.0)
            if all(full):
                break
    return out, known


def _sampled_sup(U, V, rho, plan):
    """(sup of ||sigma_{U;V}(t) - sigma_{V;U}(t)|| over the plan, sample
    count, vertex distances of _sample_index_points): the largest _gap
    that was projected."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    points, known = _sample_index_points(U, V, plan)
    gaps = [_gap(*p[1:]) for p in points]
    return max((g for g in gaps if g is not None), default=0.0), len(points), known


def _two_sided(bound, measured, context):
    """The identity is an equality: pass iff |measured - bound| <= _IDENTITY_TOL."""
    passed = abs(measured - bound) <= _IDENTITY_TOL
    return CertificateReport(bound, measured, bound - measured, passed, context)


def verify_transform_distance(
    U: Polytope,
    V: Polytope,
    b: float,
    rho: float,
    plan: SamplePlan = SamplePlan(),
) -> CertificateReport:
    """Check sup_t ||sigma_{U;V}(t) - sigma_{V;U}(t)|| = d_H(U, V) two-sided.

    d_H reuses the sampler's vertex projections: projecting again would
    give the same bits, so it would add nothing to the check."""
    if U.dim != V.dim:
        raise DimensionMismatchError("U and V have different dimensions")
    measured, samples, known = _sampled_sup(U, V, rho, plan)
    return _two_sided(_hausdorff_max([(U, V)], known), measured, {
        "check": "transform-distance",
        "seed": plan.seed,
        "samples": samples,
        "b": float(b),
        "rho": float(rho),
    })


def verify_transform_distance_multi(
    rpU: RobustProblem,
    rpV: RobustProblem,
    rho: float,
    plan: SamplePlan = SamplePlan(),
) -> CertificateReport:
    """Constraint-wise version over (t, s) index points in R^(n+1).

    The overall measured sup over the per-alpha sups must equal d_nat
    two-sided.  d_nat is one _hausdorff_max over all pairs that reuses the
    sampler's vertex projections, as verify_transform_distance does.
    """
    if set(rpU.constraint_sets) != set(rpV.constraint_sets):
        raise IndexMismatchError("constraint label sets differ")
    per_alpha, pairs, known = {}, [], {}
    for k, alpha in enumerate(sorted(rpU.constraint_sets)):
        U = rpU.constraint_sets[alpha]
        V = rpV.constraint_sets[alpha]
        per_alpha[alpha], _, seen = _sampled_sup(U, V, rho, plan)
        pairs.append((U, V))
        known.update({(k, side): d for (_, side), d in seen.items()})
    measured = max(per_alpha.values())
    return _two_sided(_hausdorff_max(pairs, known), measured, {
        "check": "transform-distance-multi",
        "seed": plan.seed,
        "rho": float(rho),
        "perConstraint": {k: float(v) for k, v in per_alpha.items()},
    })


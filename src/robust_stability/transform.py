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
outside, one that deep inside every facet is inside; as the facet list is
checked to lie within 1e-7 + 1e-9 * scale of conv(P), this is exact
membership.  That it matches the projection's verdict (distance <=
_MEMBERSHIP_TOL; Wolfe stops on a gap test or a stall) is measured, not
derived: the transform-identity benchmark pools kept every bit.  Points in
the band, and sets without a facet list, are projected, U before V, each
while an allowed index region has room.
"""

import numpy as np
from dataclasses import dataclass

from .errors import DimensionMismatchError, IndexMismatchError
from .geometry import Polytope, _hausdorff_max, facets, project_onto_polytope
from .model import RobustProblem, constraintwise_distance
from .report import CertificateReport

_MEMBERSHIP_TOL = 1e-9
_AMBIGUITY_BAND = 1e-9
_FACET_BAND = 1e-6
_IDENTITY_TOL = 1e-6
_BOX_MARGIN = 1.0  # random draws fill the vertices' bounding box plus this


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


def _classify(t, U, V, home=None, full=(False,) * 4, hreps=(None, None)):
    """(in_u, in_v, proj_u, proj_v, dist_u, dist_v), or None if t falls in
    the membership ambiguity band or only in full regions.  t lies in `home`
    (0: U, 1: V); `hreps` holds U's and V's facets or None.  Projects as the
    module docstring says; an unread projection stays t, its distance None."""
    inside, proj, dist = [None, None], [t, t], [None, None]
    if home is not None:
        inside[home] = True
    for i, h in enumerate(hreps):  # geometry.Facets; skip within the band
        if inside[i] is None and h is not None:
            s = float((h.normals @ (t - h.center) - h.offsets).max())
            if abs(s) > _FACET_BAND * h.scale:
                inside[i] = s < 0.0
    for i, P in enumerate((U, V)):
        if inside[i] is None and _has_room(inside, full):
            proj[i], dist[i] = project_onto_polytope(t, P)
            if _MEMBERSHIP_TOL < dist[i] <= _MEMBERSHIP_TOL + _AMBIGUITY_BAND:
                return None
            inside[i] = dist[i] <= _MEMBERSHIP_TOL
    if not _has_room(inside, full):
        return None
    for i, P in enumerate((U, V)):  # the projection sigma reads, once
        if inside[1 - i] and not inside[i] and proj[i] is t:
            proj[i], dist[i] = project_onto_polytope(t, P)
    return (*inside, *proj, *dist)


def _sample_index_points(U: Polytope, V: Polytope, plan: SamplePlan):
    """Deterministic vertices of both sets plus seeded samples per region.

    Region targets are best-effort: rejection sampling with a stall cutoff,
    so empty regions (e.g. disjoint sets have no U-and-V points) are skipped
    rather than spun on.  Every draw, stall and accepted point is the same
    as with both projections.  Returns [(t, in_u, in_v, proj_u, proj_v)]
    and the vertices' projected distances as _hausdorff_max reads them.
    """
    rng = np.random.default_rng(plan.seed)
    hreps = (facets(U), facets(V))
    out, known = [], {(0, 0): {}, (0, 1): {}}
    for home, P in enumerate((U, V)):
        for i, v in enumerate(P.vertices):
            cls = _classify(v, U, V, home, hreps=hreps)
            if cls is not None:
                out.append((v, *cls[:4]))
                if cls[5 - home] is not None:  # the distance to the other set
                    known[0, home][i] = cls[5 - home]
    all_v = np.vstack([U.vertices, V.vertices])
    lo = all_v.min(axis=0) - _BOX_MARGIN
    hi = all_v.max(axis=0) + _BOX_MARGIN
    want = list(plan.counts)
    got = [0, 0, 0, 0]
    stall = 0
    while any(g < w for g, w in zip(got, want)) and stall < 200:
        mode = int(rng.integers(0, 3))
        if mode < 2:  # convex combination of U's (mode 0) or V's vertices
            verts = (U, V)[mode].vertices
            t = verts.T @ rng.dirichlet(np.ones(verts.shape[0]))
        else:
            t = rng.uniform(lo, hi)
        full = [g >= w for g, w in zip(got, want)]
        cls = _classify(t, U, V, mode if mode < 2 else None, full, hreps)
        if cls is None:
            stall += 1
            continue
        got[_region(cls[0], cls[1])] += 1
        stall = 0
        out.append((t, *cls[:4]))
    return out, known


def _sigma_cached(ts, in_self, in_other, proj_self, rho):
    """sigma_{U;V} at a stacked (a, b) index point from cached memberships."""
    if in_self:
        return ts
    if in_other:
        return proj_self
    out = np.zeros(ts.shape[0])
    out[-1] = -float(rho)
    return out


def _sampled_sup(U, V, rho, plan, b=None):
    """(sup of ||sigma_{U;V}(t) - sigma_{V;U}(t)|| over the plan, sample
    count, vertex distances of _sample_index_points).

    With b given, index points t in R^n stand for the rows (t, b); otherwise
    they are already stacked (a, b) rows.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    gaps = []
    points, known = _sample_index_points(U, V, plan)
    for ts, in_u, in_v, proj_u, proj_v in points:
        if b is not None:
            ts, proj_u, proj_v = (
                np.append(x, float(b)) for x in (ts, proj_u, proj_v)
            )
        left = _sigma_cached(ts, in_u, in_v, proj_u, rho)
        right = _sigma_cached(ts, in_v, in_u, proj_v, rho)
        gaps.append(float(np.linalg.norm(left - right)))
    return max(gaps), len(gaps), known


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
    measured, samples, known = _sampled_sup(U, V, rho, plan, b=b)
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

    Per-alpha sups against per-alpha Hausdorff distances; the overall
    measured sup must equal d_nat two-sided.
    """
    if set(rpU.constraint_sets) != set(rpV.constraint_sets):
        raise IndexMismatchError("constraint label sets differ")
    per_alpha = {}
    for alpha in sorted(rpU.constraint_sets):
        U = rpU.constraint_sets[alpha]
        V = rpV.constraint_sets[alpha]
        per_alpha[alpha] = _sampled_sup(U, V, rho, plan)[0]
    measured = max(per_alpha.values())
    return _two_sided(constraintwise_distance(rpU, rpV), measured, {
        "check": "transform-distance-multi",
        "seed": plan.seed,
        "rho": float(rho),
        "perConstraint": {k: float(v) for k, v in per_alpha.items()},
    })


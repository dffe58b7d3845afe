"""Epsilon-optimal solution sets and r-truncated set metrics.

The eps-argmin of a solvable problem is the H-polytope {feasible rows} plus
the level row <c, x> <= nu + eps.  The truncated Hausdorff estimator reports
a certified lower bound (candidate-point maxima under-estimate an excess, so
a theorem bound dominating even the lower bound is the conservative check
direction) together with an exactness flag.
"""

import numpy as np
from dataclasses import dataclass
from typing import Union

from . import lp as lpmod
from .errors import (
    EtaTooLargeError,
    HypothesisViolatedError,
    NotSolvableError,
)
from .geometry import (
    Polytope,
    enumerate_hrep_vertices,
    project_onto_halfspaces,
    project_onto_polytope,
)
from .model import LsioProblem, RobustProblem, constraintwise_distance, robust_counterpart
from .report import CertificateReport
from .stability import augment_with_slack_row, check_interior_solvable, distance_to_infeasibility


@dataclass(frozen=True)
class EpsArgmin:
    """H-representation of the eps-optimal set with its witness point."""

    rows: tuple  # (a, b) pairs meaning <a, x> >= b
    epsilon: float
    nu: float
    witness: np.ndarray  # an optimal point, certifying non-emptiness

    @property
    def dim(self) -> int:
        return self.rows[0][0].shape[0]


@dataclass(frozen=True)
class TruncatedDistParams:
    r: float
    r0: float
    grid_resolution: float = 0.05
    direction_count: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (self.r > self.r0 > 0):
            raise ValueError("need r > r0 > 0")
        if self.grid_resolution <= 0:
            raise ValueError("grid_resolution must be positive")


@dataclass(frozen=True)
class TruncatedDistance:
    value: float
    certified_lower: float
    estimate: bool


def eps_argmin(pi: LsioProblem, eps: float) -> EpsArgmin:
    """H-rep of the eps-optimal set: feasible rows + level row."""
    res = lpmod.solve(pi.to_lp())
    if res.status != lpmod.OPTIMAL:
        raise NotSolvableError(f"problem status {res.status}")
    return _eps_argmin_from(pi, res, eps)


def _eps_argmin_from(pi: LsioProblem, res: lpmod.SolveResult, eps: float) -> EpsArgmin:
    """eps_argmin from an optimal solve of pi that the caller already has."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows = [(r.a.copy(), r.b) for r in pi.rows]
    rows.append((-pi.cost.copy(), -(res.value + eps)))
    return EpsArgmin(
        rows=tuple(rows), epsilon=float(eps), nu=res.value, witness=res.solution
    )


def _dist_to(C: Union[EpsArgmin, Polytope], x) -> float:
    if isinstance(C, Polytope):
        return project_onto_polytope(x, C)[1]
    return project_onto_halfspaces(x, C.rows)[1]


def _vertex_candidates(C: Union[EpsArgmin, Polytope]):
    if isinstance(C, Polytope):
        return [v for v in C.vertices]
    if C.dim > 4:
        return None  # estimator-only above desk scale
    return enumerate_hrep_vertices(C.rows, C.dim)


def _interior_anchor(C: Union[EpsArgmin, Polytope], r: float):
    if isinstance(C, EpsArgmin):
        anchor = C.witness
    else:
        anchor = C.vertices.mean(axis=0)
    if np.linalg.norm(anchor) > r:
        anchor = anchor * (r / np.linalg.norm(anchor))
        anchor = project_onto_halfspaces(anchor, C.rows)[0] if isinstance(C, EpsArgmin) else project_onto_polytope(anchor, C)[0]
    return anchor


def _contains(C, x, tol=1e-9) -> bool:
    return _dist_to(C, x) <= tol


def _truncated_excess(C, D, params: TruncatedDistParams):
    """(lower bound of e(C cap rB, D), exact flag)."""
    r = params.r
    candidates = []
    exact = True
    verts = _vertex_candidates(C)
    if verts is None:
        exact = False
        verts = []
    inside = [v for v in verts if np.linalg.norm(v) <= r + 1e-12]
    candidates.extend(inside)
    if len(inside) < len(verts):
        exact = False
    if not exact or not candidates:
        # boundary samples of C cap sphere(r): walk rays from an interior
        # anchor and bisect for the last point in C with norm <= r
        rng = np.random.default_rng(params.seed)
        anchor = _interior_anchor(C, r)
        dirs = rng.standard_normal((params.direction_count, C.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for u in dirs:
            lo, hi = 0.0, 4.0 * r
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                x = anchor + mid * u
                if np.linalg.norm(x) <= r and _contains(C, x, 1e-7):
                    lo = mid
                else:
                    hi = mid
            candidates.append(anchor + lo * u)
        candidates.append(np.asarray(anchor, dtype=float))
    if not candidates:
        return 0.0, False
    value = max(_dist_to(D, x) for x in candidates)
    return float(value), exact


def truncated_hausdorff(
    C: Union[EpsArgmin, Polytope],
    D: Union[EpsArgmin, Polytope],
    params: TruncatedDistParams,
) -> TruncatedDistance:
    """d-hat_r(C, D) = max of the two truncated excesses.

    Exact (estimate=False) whenever all vertices of both sets lie inside the
    r-ball: the excess of a polytope is then attained at a vertex.
    """
    e_cd, exact_cd = _truncated_excess(C, D, params)
    e_dc, exact_dc = _truncated_excess(D, C, params)
    value = max(e_cd, e_dc)
    exact = exact_cd and exact_dc
    return TruncatedDistance(value=value, certified_lower=value, estimate=not exact)


def d_r_metric(
    C: Union[EpsArgmin, Polytope],
    D: Union[EpsArgmin, Polytope],
    params: TruncatedDistParams,
) -> float:
    """max over ||x|| <= r of |d(x, C) - d(x, D)|, sampled.

    Grid plus seeded random points; the integrand is 1-Lipschitz so the
    sampling error is at most grid_resolution * sqrt(dim) / 2.  The returned
    value is a certified lower bound of the true maximum.
    """
    r = params.r
    dim = C.dim
    pts = []
    if dim <= 3:
        axis = np.arange(-r, r + params.grid_resolution / 2, params.grid_resolution)
        if axis.size ** dim <= 200_000:
            mesh = np.array(np.meshgrid(*([axis] * dim))).reshape(dim, -1).T
            mesh = mesh[np.linalg.norm(mesh, axis=1) <= r]
            pts.append(mesh)
    rng = np.random.default_rng(params.seed)
    rand = rng.standard_normal((512, dim))
    rand /= np.linalg.norm(rand, axis=1)[:, None]
    rand *= r * rng.uniform(0, 1, size=(512, 1)) ** (1.0 / dim)
    pts.append(rand)
    sample = np.vstack(pts)
    best = 0.0
    for x in sample:
        best = max(best, abs(_dist_to(C, x) - _dist_to(D, x)))
    return float(best)


def eps_argmin_bound(
    eta: float, r: float, eps: float, c_norm: float, dist_infeas: float
) -> float:
    """The composed Lipschitz coefficient of the eps-argmin theorem:
    (1 + 4r/eps) (1 + ||c||) (1 + r) sqrt(1 + r^2) / (dist_infeas - eta)."""
    if eps <= 0 or r <= 0:
        raise ValueError("need r > 0 and eps > 0")
    if not (0 < eta < dist_infeas) or dist_infeas - eta <= 1e-12:
        raise EtaTooLargeError(
            f"eta = {eta} must lie strictly below dist_infeas = {dist_infeas}"
        )
    return (
        (1.0 + 4.0 * r / eps)
        * (1.0 + c_norm)
        * (1.0 + r)
        * float(np.sqrt(1.0 + r * r))
        / (dist_infeas - eta)
    )


def check_eps_argmin_lipschitz(
    rpU: RobustProblem,
    rpV: RobustProblem,
    eps: float,
    eta: float = None,
    r: float = None,
    r0: float = None,
    params: TruncatedDistParams = None,
) -> CertificateReport:
    """Certify d-hat_r(eps-argmin(U), eps-argmin(V)) <= coefficient * d_nat.

    Every theorem hypothesis is checked programmatically: strong Slater,
    solvable with bounded optimal face, d_nat < eta < distance to
    infeasibility of the augmented system, r0-ball meeting both eps-argmin
    sets, and both optimal values above -r0.  r0 is computed when omitted.
    """
    cpU = robust_counterpart(rpU)
    interior = check_interior_solvable(cpU)
    if not interior.ok:
        raise HypothesisViolatedError(f"reference problem: {interior.failing}")
    cpV = robust_counterpart(rpV)
    res_v = lpmod.solve(cpV.to_lp())
    if res_v.status != lpmod.OPTIMAL:
        raise HypothesisViolatedError(f"perturbed problem status {res_v.status}")

    rho = interior.slater.rho
    augmented = augment_with_slack_row(cpU, rho)
    dist_infeas = distance_to_infeasibility(augmented.rows, require_slater=False)
    d_nat = constraintwise_distance(rpU, rpV).value
    if eta is None:
        eta = 0.5 * (d_nat + dist_infeas)
    if not d_nat < eta:
        raise HypothesisViolatedError(f"d_nat = {d_nat} not below eta = {eta}")
    if not eta < dist_infeas:
        raise EtaTooLargeError(f"eta = {eta} >= dist_infeas = {dist_infeas}")

    EU = _eps_argmin_from(cpU, interior.solve_result, eps)
    EV = _eps_argmin_from(cpV, res_v, eps)
    nu_u, nu_v = EU.nu, EV.nu
    if r0 is None:
        r0 = (
            max(
                float(np.linalg.norm(EU.witness)),
                float(np.linalg.norm(EV.witness)),
                abs(nu_u),
                abs(nu_v),
            )
            + 1.0
        )
    if not (nu_u > -r0 and nu_v > -r0):
        raise HypothesisViolatedError("an optimal value does not exceed -r0")
    if not (
        np.linalg.norm(EU.witness) <= r0 and np.linalg.norm(EV.witness) <= r0
    ):
        raise HypothesisViolatedError("r0-ball misses an eps-argmin set")
    if r is None:
        r = 2.0 * r0
    if params is None:
        params = TruncatedDistParams(r=r, r0=r0)
    td = truncated_hausdorff(EU, EV, params)
    c_norm = float(np.linalg.norm(cpU.cost))
    coeff = eps_argmin_bound(eta, r, eps, c_norm, dist_infeas)
    bound = coeff * d_nat
    return CertificateReport.from_values(
        bound,
        td.certified_lower,
        context={
            "check": "eps-argmin-lipschitz",
            "d_nat": d_nat,
            "eta": float(eta),
            "r": float(r),
            "r0": float(r0),
            "eps": float(eps),
            "coefficient": coeff,
            "distInfeas": dist_infeas,
            "estimate": td.estimate,
            "nu_u": nu_u,
            "nu_v": nu_v,
        },
    )

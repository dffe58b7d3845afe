"""Epsilon-optimal solution sets and r-truncated set metrics.

The eps-argmin of a solvable problem is the H-polytope {feasible rows} plus
the level row <c, x> <= nu + eps.  The set metrics take it, once, as the
hull of its vertices cut by a box wide enough to change no distance they
take (_hulls), and project onto that hull only.  The truncated
Hausdorff estimator reports a certified lower bound (candidate-point maxima
under-estimate an excess, so a theorem bound dominating even the lower bound
is the conservative check direction) together with an exactness flag; its
boundary candidates are ray exits read off the set's own rows.
"""

import numpy as np
from dataclasses import dataclass

from . import lp as lpmod
from .errors import (
    EtaTooLargeError,
    HypothesisViolatedError,
    NotSolvableError,
    NumericalBreakdownError,
)
from .geometry import (
    Polytope,
    directed_hausdorff,
    enumerate_hrep_vertices,
    project_onto_polytope,
)
from .model import LsioProblem, RobustProblem, constraintwise_distance
from .report import CertificateReport
from .stability import ValueLipschitzChecker


@dataclass(frozen=True)
class EpsArgmin:
    """H-representation of the eps-optimal set with its witness point."""

    rows: np.ndarray  # (m, n+1) stacked rows [a | b] meaning <a, x> >= b
    epsilon: float
    nu: float
    witness: np.ndarray  # an optimal point, certifying non-emptiness

    @property
    def dim(self) -> int:
        return self.rows.shape[1] - 1


_DIRECTION_COUNT = 64  # boundary rays of an inexact truncated excess
_SEED = 0  # of those rays and of d_r_metric's random points


@dataclass(frozen=True)
class TruncatedDistance:
    value: float  # the certified lower bound
    estimate: bool


def eps_argmin(pi: LsioProblem, eps: float) -> EpsArgmin:
    """H-rep of the eps-optimal set: feasible rows + level row."""
    res = lpmod.solve(pi.to_lp())
    if res.status != lpmod.OPTIMAL:
        raise NotSolvableError(f"problem status {res.status}")
    return _eps_argmin_from(pi.cost, pi.rows, res, eps)


def _eps_argmin_from(cost, rows, res: lpmod.SolveResult, eps: float) -> EpsArgmin:
    """eps_argmin of min <cost, x> over the stacked rows, from an optimal
    solve that the caller already has."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    level = np.append(-cost, -(res.value + eps))
    return EpsArgmin(
        rows=np.vstack([rows, level]),
        epsilon=float(eps),
        nu=res.value,
        witness=res.solution,
    )


def _hulls(sets, r: float):
    """Each eps-argmin set as the hull of its vertices cut by the box
    |y_i| <= R.

    The box changes no distance the estimators take.  Each is from a point x
    with ||x|| <= rho = max(r, W), W the largest witness norm.  A projection
    of x onto a set holding the witness w is within ||x|| + ||x - w|| <=
    2 rho + W = R of the origin, so inside the box; so is the min-norm
    point, within W.  The box's own vertices have norm >= R > r, so an
    unbounded set never reads as exact, and its rows never bind inside the
    r-ball, so the set's own rows describe the boxed hull there.  The box
    rows are scaled into [-1, 1], which leaves the feasibility tolerance of
    enumerate_hrep_vertices (relative to the largest entry) as it is for
    the set's own rows.
    """
    W = max(float(np.linalg.norm(S.witness)) for S in sets)
    R = 2.0 * max(r, W) + W
    w = 1.0 / max(1.0, R)
    box = [np.append(s * w * e, -R * w) for e in np.eye(sets[0].dim) for s in (1.0, -1.0)]
    return [
        Polytope(np.array(enumerate_hrep_vertices(np.vstack([S.rows, *box])))) for S in sets
    ]


def _truncated_excess(E: EpsArgmin, C: Polytope, D: Polytope, r: float):
    """(lower bound of e(C cap rB, D), exact flag), C the boxed hull of E.

    Exact when every vertex of C lies in the r-ball.  Otherwise the
    candidates add an anchor in C cap rB, E's witness or else C's min-norm
    point (beyond the ball it shows C cap rB empty: an exact 0), and its
    exits along seeded rays, read off E's rows.  They lie in C cap rB up to
    rounding.  The excess is the directed Hausdorff distance from their hull
    to D, whose early break projects only candidates that can raise it.
    """
    candidates = [v for v in C.vertices if np.linalg.norm(v) <= r + 1e-12]
    if len(candidates) == len(C.vertices):
        return directed_hausdorff(C, D), True
    anchor = E.witness
    if np.linalg.norm(anchor) > r:
        anchor = project_onto_polytope(np.zeros(C.dim), C)[0]
        if np.linalg.norm(anchor) > r:
            return 0.0, True
    dirs = np.random.default_rng(_SEED).standard_normal((_DIRECTION_COUNT, C.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    A, b = E.rows[:, :-1], E.rows[:, -1]
    slack = np.maximum(A @ anchor - b, 0.0)
    rate = dirs @ A.T  # d<a, x>/dt along each ray
    with np.errstate(divide="ignore", invalid="ignore"):
        t_c = np.where(rate < 0.0, slack / -rate, np.inf).min(axis=1)
    p = dirs @ anchor
    t_ball = np.sqrt(p * p + max(r * r - anchor @ anchor, 0.0)) - p
    candidates.extend(anchor + np.minimum(t_c, t_ball)[:, None] * dirs)
    candidates.append(anchor)
    return directed_hausdorff(Polytope(candidates), D), False


def truncated_hausdorff(E: EpsArgmin, F: EpsArgmin, r: float) -> TruncatedDistance:
    """d-hat_r(E, F) = max of the two truncated excesses.

    Exact (estimate=False) whenever all vertices of both sets lie inside the
    r-ball: the excess of a polytope is then attained at a vertex.
    """
    C, D = _hulls([E, F], r)
    e_cd, exact_cd = _truncated_excess(E, C, D, r)
    e_dc, exact_dc = _truncated_excess(F, D, C, r)
    value = max(e_cd, e_dc)
    exact = exact_cd and exact_dc
    return TruncatedDistance(value=value, estimate=not exact)


def d_r_metric(E: EpsArgmin, F: EpsArgmin, r: float, grid_resolution: float = 0.05) -> float:
    """max over ||x|| <= r of |d(x, E) - d(x, F)|, sampled.

    Grid plus seeded random points; the integrand is 1-Lipschitz so the
    sampling error is at most grid_resolution * sqrt(dim) / 2.  The returned
    value is a certified lower bound of the true maximum.
    """
    if grid_resolution <= 0:
        raise ValueError("grid_resolution must be positive")
    C, D = _hulls([E, F], r)
    dim = C.dim
    pts = []
    if dim <= 3:
        axis = np.arange(-r, r + grid_resolution / 2, grid_resolution)
        if axis.size ** dim <= 200_000:
            mesh = np.array(np.meshgrid(*([axis] * dim))).reshape(dim, -1).T
            mesh = mesh[np.linalg.norm(mesh, axis=1) <= r]
            pts.append(mesh)
    rng = np.random.default_rng(_SEED)
    rand = rng.standard_normal((512, dim))
    rand /= np.linalg.norm(rand, axis=1)[:, None]
    rand *= r * rng.uniform(0, 1, size=(512, 1)) ** (1.0 / dim)
    pts.append(rand)
    sample = np.vstack(pts)
    best = 0.0
    for x in sample:
        best = max(best, abs(project_onto_polytope(x, C)[1] - project_onto_polytope(x, D)[1]))
    return float(best)


def eps_argmin_bound(
    eta: float, r: float, eps: float, c_norm: float, dist_infeas: float
) -> float:
    """The composed Lipschitz coefficient of the eps-argmin theorem:
    (1 + 4r/eps) (1 + ||c||) (1 + r) sqrt(1 + r^2) / (dist_infeas - eta).

    NumericalBreakdownError when it overflows: inf * d_nat would read NaN,
    or inf for a zero distance, and certify nothing."""
    if eps <= 0 or r <= 0:
        raise ValueError("need r > 0 and eps > 0")
    if not (0 < eta < dist_infeas) or dist_infeas - eta <= 1e-12:
        raise EtaTooLargeError(
            f"eta = {eta} must lie strictly below dist_infeas = {dist_infeas}"
        )
    coeff = (
        (1.0 + 4.0 * r / eps)
        * (1.0 + c_norm)
        * (1.0 + r)
        * float(np.sqrt(1.0 + r * r))
        / (dist_infeas - eta)
    )
    if not np.isfinite(coeff):
        raise NumericalBreakdownError(
            f"eps-argmin coefficient overflows (r = {r}, eps = {eps}, eta = {eta})"
        )
    return coeff


def check_eps_argmin_lipschitz(
    rpU: RobustProblem,
    rpV: RobustProblem,
    eps: float,
    eta: float = None,
    r: float = None,
    r0: float = None,
) -> CertificateReport:
    """Certify d-hat_r(eps-argmin(U), eps-argmin(V)) <= coefficient * d_nat.

    Every theorem hypothesis is checked programmatically: strong Slater,
    solvable with bounded optimal face, d_nat < eta < distance to
    infeasibility of the augmented system, r0-ball meeting both eps-argmin
    sets, and both optimal values above -r0.  r0 is computed when omitted.
    U's counterpart, its solve and the distance to infeasibility of the
    augmented system are ValueLipschitzChecker(rpU)'s, and V's LP is solved
    as its check solves it.
    """
    checker = ValueLipschitzChecker(rpU)
    cpU = checker.counterpart
    d_nat = constraintwise_distance(rpU, rpV)
    rows_v, res_v = checker._solve(rpV)
    dist_infeas = checker.constants.dist_infeas
    if eta is None:
        eta = 0.5 * (d_nat + dist_infeas)
    if not d_nat < eta:
        raise HypothesisViolatedError(f"d_nat = {d_nat} not below eta = {eta}")
    if not eta < dist_infeas:
        raise EtaTooLargeError(f"eta = {eta} >= dist_infeas = {dist_infeas}")

    EU = _eps_argmin_from(cpU.cost, cpU.rows, checker.solve_result, eps)
    EV = _eps_argmin_from(rpV.cost, rows_v, res_v, eps)
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
    if r is None:
        r = 2.0 * r0
    if not (r > r0 > 0):  # malformed, before the hypotheses that read r0
        raise ValueError("need r > r0 > 0")
    if not (nu_u > -r0 and nu_v > -r0):
        raise HypothesisViolatedError("an optimal value does not exceed -r0")
    if not (
        np.linalg.norm(EU.witness) <= r0 and np.linalg.norm(EV.witness) <= r0
    ):
        raise HypothesisViolatedError("r0-ball misses an eps-argmin set")
    c_norm = float(np.linalg.norm(cpU.cost))
    coeff = eps_argmin_bound(eta, r, eps, c_norm, dist_infeas)
    td = truncated_hausdorff(EU, EV, r)
    bound = coeff * d_nat
    return CertificateReport.from_values(
        bound,
        td.value,
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

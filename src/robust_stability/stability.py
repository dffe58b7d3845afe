"""Quantitative stability machinery.

Set mappings H, R, Z-; distance to infeasibility and to the boundary of the
solvable set; the explicit Lipschitz constant of the optimal value; and the
single-pair bound check |nu(U) - nu(V)| <= L * d_nat.

All constants are computed on a canonicalized copy of the constraint system
(bitwise-deduplicated, lexicographically sorted rows), so they are literally
functions of the constraint SET: duplicate-row or permuted copies of a
problem produce identical constants, not merely close ones.
"""

import numpy as np
from dataclasses import dataclass
from typing import Optional

from . import lp as lpmod
from .errors import (
    EpsilonTooLargeError,
    HypothesisViolatedError,
    NotInteriorSolvableError,
    NuNotFiniteError,
    OriginNotInteriorError,
    SlaterFailedError,
    UnboundedPolarError,
)
from .geometry import (
    HSet,
    Polytope,
    dist_origin_to_hset,
    inradius_at_origin,
)
from .model import (
    IndexedRow,
    LsioProblem,
    RobustProblem,
    constraintwise_distance,
    robust_counterpart,
)
from .report import CertificateReport

SLACK_ROW_LABEL = "_slack"


def psi(alpha: float) -> float:
    """(1 + alpha) * sqrt(1 + alpha^2)."""
    return (1.0 + alpha) * float(np.sqrt(1.0 + alpha * alpha))


@dataclass(frozen=True)
class StabilityConstants:
    epsilon: float
    sup_r: float
    d_z: float
    dist_infeas: float
    dist_bd_solvable: float
    rho_hat: float
    beta: float
    gamma: float
    mu: float
    lipschitz: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "supR": self.sup_r,
            "dZ": self.d_z,
            "distInfeas": self.dist_infeas,
            "distBdSolvable": self.dist_bd_solvable,
            "rhoHat": self.rho_hat,
            "beta": self.beta,
            "gamma": self.gamma,
            "mu": self.mu,
            "L": self.lipschitz,
        }


def _canonical_rows(rows):
    """Bitwise-deduplicated rows in lexicographic (a, b) order."""
    seen = {}
    for r in rows:
        seen[r.stacked.tobytes()] = r
    ordered = sorted(seen.values(), key=lambda r: tuple(r.stacked))
    return tuple(ordered)


def build_H(rows) -> HSet:
    """H(system): conv of stacked (a_t, b_t) plus the downward b-ray."""
    rows = tuple(rows)
    if not rows:
        raise ValueError("build_H needs a non-empty system")
    return HSet(np.array([r.stacked for r in rows]))


def sup_R(pi: LsioProblem, nu: float) -> float:
    """max of all -b_t and the optimal value nu."""
    if not np.isfinite(nu):
        raise NuNotFiniteError(f"nu = {nu}")
    return max(max(-r.b for r in pi.rows), float(nu))


def build_Zminus(pi: LsioProblem) -> Polytope:
    """conv({a_t} union {-c}) in R^n."""
    if not pi.rows:
        raise ValueError("build_Zminus needs a non-empty system")
    pts = [r.a for r in pi.rows] + [-pi.cost]
    return Polytope(np.array(pts))


def distance_to_infeasibility(rows, require_slater: bool = True) -> float:
    """Smallest data perturbation making the system infeasible: d(0, H).

    With strong Slater the origin is exterior to H, so the distance to the
    boundary equals the distance to the set.
    """
    rows = tuple(rows)
    if require_slater:
        cert = lpmod.slater_constant([(r.a, r.b) for r in rows])
        if cert is None:
            raise SlaterFailedError("system has no strong Slater point")
    return dist_origin_to_hset(build_H(rows))


@dataclass(frozen=True)
class InteriorSolvableResult:
    ok: bool
    slater: Optional[lpmod.SlaterCertificate]
    solve_result: lpmod.SolveResult
    bounded_face: bool
    failing: str  # "" when ok


def check_interior_solvable(pi: LsioProblem) -> InteriorSolvableResult:
    """Slater + solvable + bounded optimal face (=> interior of the solvable set)."""
    slater = lpmod.slater_constant([(r.a, r.b) for r in pi.rows])
    res = lpmod.solve(pi.to_lp())
    bounded = False
    failing = ""
    if slater is None:
        failing = "strong Slater condition"
    elif res.status != lpmod.OPTIMAL:
        failing = f"solvability (status {res.status})"
    else:
        bounded = lpmod.optimal_face_bounded(pi.to_lp())
        if not bounded:
            failing = "bounded optimal face"
    return InteriorSolvableResult(
        ok=failing == "",
        slater=slater,
        solve_result=res,
        bounded_face=bounded,
        failing=failing,
    )


def _boundary_distances(pi: LsioProblem):
    """(canonical problem, distance to infeasibility, inradius of Z- at 0).

    Assumes pi is interior-solvable; the only check left here is the origin
    strictly inside Z-, which inradius_at_origin makes itself.
    """
    canon = LsioProblem(cost=pi.cost, rows=_canonical_rows(pi.rows))
    dist_infeas = dist_origin_to_hset(build_H(canon.rows))
    try:
        d_z = inradius_at_origin(build_Zminus(canon)).value
    except (OriginNotInteriorError, UnboundedPolarError) as exc:
        raise NotInteriorSolvableError(
            "origin not strictly interior to Z-(pi); boundary-case input rejected"
        ) from exc
    return canon, dist_infeas, d_z


def distance_to_bd_solvable(pi: LsioProblem) -> float:
    """min(distance to infeasibility, inradius of Z- at the origin)."""
    interior = check_interior_solvable(pi)
    if not interior.ok:
        raise NotInteriorSolvableError(interior.failing)
    _, d_i, d_z = _boundary_distances(pi)
    return min(d_i, d_z)


def lipschitz_constant(
    pi: LsioProblem, nu: float = None, eps: float = None
) -> StabilityConstants:
    """All stability constants for the (already augmented) problem pi.

    eps defaults to half the distance to the boundary of the solvable set;
    any caller-supplied eps must satisfy 0 < eps < that distance.  The
    hypotheses are checked on the canonical copy, whose solve gives nu when
    it is not supplied.
    """
    canon = LsioProblem(cost=pi.cost, rows=_canonical_rows(pi.rows))
    interior = check_interior_solvable(canon)
    if not interior.ok:
        raise NotInteriorSolvableError(interior.failing)
    if nu is None:
        nu = interior.solve_result.value
    return _stability_constants(canon, nu, eps)


def _stability_constants(pi: LsioProblem, nu: float, eps) -> StabilityConstants:
    """lipschitz_constant for a problem already known to be interior-solvable."""
    canon, dist_infeas, d_z = _boundary_distances(pi)
    c_norm = float(np.linalg.norm(canon.cost))

    dist_bd = min(dist_infeas, d_z)
    if eps is None:
        eps = 0.5 * dist_bd
    eps = float(eps)
    if not (0.0 < eps < dist_bd):
        raise EpsilonTooLargeError(
            f"eps = {eps} outside (0, {dist_bd}) = (0, dist to bd of solvable set)"
        )

    s_r = sup_R(canon, nu)
    rho_hat = s_r / d_z
    assert dist_infeas - eps > 0.0
    assert d_z - eps > 0.0
    beta = psi(rho_hat) / (dist_infeas - eps)
    gamma = (rho_hat + eps * beta) + c_norm * beta
    mu = (s_r + eps * max(1.0, gamma)) / (d_z - eps)
    lip = (eps + c_norm) * psi(mu) / (dist_infeas - eps) + mu
    assert lip > 0.0 and np.isfinite(lip)
    return StabilityConstants(
        epsilon=eps,
        sup_r=s_r,
        d_z=d_z,
        dist_infeas=dist_infeas,
        dist_bd_solvable=dist_bd,
        rho_hat=rho_hat,
        beta=beta,
        gamma=gamma,
        mu=mu,
        lipschitz=lip,
    )


def augment_with_slack_row(pi: LsioProblem, rho: float) -> LsioProblem:
    """Append the trivial row <0, x> >= -rho used by the theorem's construction."""
    n = pi.dim
    row = IndexedRow(label=SLACK_ROW_LABEL, a=np.zeros(n), b=-float(rho))
    return LsioProblem(cost=pi.cost, rows=pi.rows + (row,))


class ValueLipschitzChecker:
    """Precomputes everything that depends only on the reference problem rpU.

    check(rpV) then needs just one LP solve and one constraint-wise Hausdorff
    computation, which keeps large randomized suites fast.
    """

    def __init__(self, rpU: RobustProblem, eps: float = None):
        self.rpU = rpU
        self.counterpart = robust_counterpart(rpU)
        interior = check_interior_solvable(self.counterpart)
        if not interior.ok:
            raise HypothesisViolatedError(interior.failing)
        self.nu_u = interior.solve_result.value
        self.rho = float(interior.slater.rho)
        # The row <0, x> >= -rho with rho > 0 the Slater constant changes
        # neither the Slater property, the feasible set, the optimum nor the
        # recession cone, so the augmented problem is interior-solvable too.
        self.augmented = augment_with_slack_row(self.counterpart, self.rho)
        self.constants = _stability_constants(self.augmented, self.nu_u, eps)

    def check(self, rpV: RobustProblem) -> CertificateReport:
        d_nat = constraintwise_distance(self.rpU, rpV).value
        if not d_nat < self.constants.epsilon:
            raise HypothesisViolatedError(
                f"d_nat = {d_nat} not below eps = {self.constants.epsilon}"
            )
        res_v = lpmod.solve(robust_counterpart(rpV).to_lp())
        if res_v.status != lpmod.OPTIMAL:
            raise HypothesisViolatedError(
                f"perturbed problem not solvable (status {res_v.status}) — "
                "inconsistent with the theorem's guarantee; check inputs"
            )
        measured = abs(self.nu_u - res_v.value)
        bound = self.constants.lipschitz * d_nat
        return CertificateReport.from_values(
            bound,
            measured,
            context={
                "check": "value-lipschitz",
                "d_nat": d_nat,
                "nu_u": self.nu_u,
                "nu_v": res_v.value,
                "L": self.constants.lipschitz,
                "epsilon": self.constants.epsilon,
                "rho": self.rho,
            },
        )


def check_value_lipschitz(
    rpU: RobustProblem, rpV: RobustProblem, eps: float = None
) -> CertificateReport:
    """One-shot check of |nu(U) - nu(V)| <= L(pi_U, eps) * d_nat."""
    return ValueLipschitzChecker(rpU, eps=eps).check(rpV)

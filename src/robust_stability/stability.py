"""Quantitative stability machinery.

Set mappings H, R, Z-; distance to infeasibility and to the boundary of the
solvable set; the explicit Lipschitz constant of the optimal value; and the
single-pair bound check |nu(U) - nu(V)| <= L * d_nat.

All constants are computed on a canonicalized copy of the constraint system
(bitwise-deduplicated, lexicographically sorted rows), so they are literally
functions of the constraint SET: duplicate-row or permuted copies of a
problem produce identical constants, not merely close ones.  The Slater
constant and the optimal value are not constants of the set in that sense:
ValueLipschitzChecker takes its rho and nu_u from the Slater LP and the
solve of the counterpart in its own row order, and its constants read both,
so a reordered copy can move them by rounding (with sets and vertex lists
reversed, rho or nu_u moved by up to 1.5e-15 relative on 43 of 400
benchmark constants problems, and no StabilityConstants field moved).
lipschitz_constant solves the canonical copy throughout.
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
    SlaterFailedError,
)
from .geometry import Polytope, contains_origin_interior, dist_origin_to_hset
from .model import (
    LsioProblem,
    RobustProblem,
    _stacked_rows,
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


def _canonical(pi: LsioProblem) -> LsioProblem:
    """pi with its rows bitwise-deduplicated, each kept at its first
    occurrence with its label, in stable lexicographic (a, b) order.  Bytes,
    not np.unique, decide duplicates: np.unique would merge -0.0 with 0.0."""
    first = {}
    for i, row in enumerate(pi.rows):
        first.setdefault(row.tobytes(), i)
    keep = np.fromiter(first.values(), np.intp)
    keep = keep[np.lexsort(pi.rows[keep].T[::-1])]
    return LsioProblem(pi.cost, pi.rows[keep], [pi.labels[i] for i in keep])


def sup_R(pi: LsioProblem, nu: float) -> float:
    """max of all -b_t and the optimal value nu."""
    if not np.isfinite(nu):
        raise NuNotFiniteError(f"nu = {nu}")
    return max(max((-pi.rows[:, -1]).tolist()), float(nu))


def build_Zminus(pi: LsioProblem) -> Polytope:
    """conv({a_t} union {-c}) in R^n."""
    if not len(pi.rows):
        raise ValueError("build_Zminus needs a non-empty system")
    return Polytope(np.vstack([pi.rows[:, :-1], -pi.cost]))


def distance_to_infeasibility(rows) -> float:
    """Smallest data perturbation making the system of stacked rows
    [a_t | b_t] infeasible: d(0, H), H = conv(rows) plus the downward b-ray.

    With strong Slater the origin is exterior to H, so the distance to the
    boundary equals the distance to the set; SlaterFailedError without it.
    """
    if lpmod.slater_constant(rows) is None:
        raise SlaterFailedError("system has no strong Slater point")
    return dist_origin_to_hset(rows)


@dataclass(frozen=True)
class InteriorSolvableResult:
    ok: bool
    slater: Optional[lpmod.SlaterCertificate]
    solve_result: lpmod.SolveResult
    bounded_face: bool
    failing: str  # "" when ok
    d_z: Optional[float] = None  # inradius of Z- at the origin; set exactly when ok


def check_interior_solvable(pi: LsioProblem) -> InteriorSolvableResult:
    """Slater + solvable + bounded optimal face (=> interior of the solvable set).

    For a solvable problem c.d >= 0 on {A d >= 0}, so the optimal face's
    recession cone {d : A d >= 0, c.d = 0} is {d : <a_t, d> >= 0,
    <-c, d> >= 0}.  That cone is {0} iff the a_t and -c positively span R^n,
    i.e. iff the origin lies strictly inside Z-.  One polar pass over Z- of
    the canonical rows (geometry.contains_origin_interior) answers it and
    gives Z-'s inradius d_z, which the stability constants read; the Slater
    LP and the solve run on pi's own row order.
    """
    return _interior_solvable(pi, _canonical(pi))


def _interior_solvable(pi: LsioProblem, canon: LsioProblem) -> InteriorSolvableResult:
    """check_interior_solvable(pi) with canon = _canonical(pi) given."""
    slater = lpmod.slater_constant(pi.rows)
    res = lpmod.solve(pi.to_lp())
    inradius = None
    failing = ""
    if slater is None:
        failing = "strong Slater condition"
    elif res.status != lpmod.OPTIMAL:
        failing = f"solvability (status {res.status})"
    else:
        inradius = contains_origin_interior(build_Zminus(canon))
        if inradius is None:
            failing = "bounded optimal face (origin strictly inside Z-)"
    return InteriorSolvableResult(
        ok=failing == "",
        slater=slater,
        solve_result=res,
        bounded_face=inradius is not None,
        failing=failing,
        d_z=None if inradius is None else inradius.value,
    )


def distance_to_bd_solvable(pi: LsioProblem) -> float:
    """min(distance to infeasibility, inradius of Z- at the origin)."""
    canon = _canonical(pi)
    interior = _interior_solvable(pi, canon)
    if not interior.ok:
        raise NotInteriorSolvableError(interior.failing)
    return min(dist_origin_to_hset(canon.rows), interior.d_z)


def lipschitz_constant(pi: LsioProblem, eps: float = None) -> StabilityConstants:
    """All stability constants for the (already augmented) problem pi.

    eps defaults to half the distance to the boundary of the solvable set;
    any caller-supplied eps must satisfy 0 < eps < that distance.  The
    hypotheses are checked on the canonical copy, whose solve gives nu.
    """
    canon = _canonical(pi)
    interior = _interior_solvable(canon, canon)  # canon is its own canonical copy
    if not interior.ok:
        raise NotInteriorSolvableError(interior.failing)
    return _stability_constants(canon, interior.solve_result.value, eps, interior)


def _stability_constants(
    canon: LsioProblem, nu: float, eps, interior: InteriorSolvableResult
) -> StabilityConstants:
    """lipschitz_constant for a canonical problem that interior shows
    interior-solvable: check_interior_solvable's passing result for it, or
    for it without the augmented problem's zero slack row, which leaves Z-'s
    nonzero points, and so its d_z, as they are."""
    dist_infeas, d_z = dist_origin_to_hset(canon.rows), interior.d_z
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
    rows = np.vstack([pi.rows, np.append(np.zeros(pi.dim), -float(rho))])
    return LsioProblem(pi.cost, rows, pi.labels + (SLACK_ROW_LABEL,))


class ValueLipschitzChecker:
    """Precomputes everything that depends only on the reference problem rpU.

    check(rpV) then needs one constraint-wise Hausdorff scan and one LP
    solve.  V's LP is its robust counterpart as one stack of V's vertex
    arrays, in U's label order, solved from U's optimal basis (lp.solve's
    start, which falls back to the simplex when that basis is not optimal
    for V).
    """

    def __init__(self, rpU: RobustProblem, eps: float = None):
        self.rpU = rpU
        self.counterpart = robust_counterpart(rpU)
        interior = check_interior_solvable(self.counterpart)
        if not interior.ok:
            raise HypothesisViolatedError(interior.failing)
        self.solve_result = interior.solve_result
        self.nu_u = interior.solve_result.value
        self.rho = float(interior.slater.rho)
        # The row <0, x> >= -rho with rho > 0 the Slater constant changes
        # neither the Slater property, the feasible set, the optimum nor the
        # recession cone, so the augmented problem is interior-solvable too.
        self.augmented = augment_with_slack_row(self.counterpart, self.rho)
        self.constants = _stability_constants(
            _canonical(self.augmented), self.nu_u, eps, interior
        )

    def _solve(self, rpV: RobustProblem):
        """(rows, optimal solve) of V's counterpart LP, as described above."""
        if rpV.cost is None:
            raise ValueError("the perturbed problem needs the fixed-cost form")
        rows = _stacked_rows(rpV, self.rpU.constraint_sets)
        lp_v = lpmod.LinearProgram(rpV.cost, rows[:, :-1], rows[:, -1])
        res_v = lpmod.solve(lp_v, start=self.solve_result.active)
        if res_v.status != lpmod.OPTIMAL:
            raise HypothesisViolatedError(
                f"perturbed problem not solvable (status {res_v.status}) — "
                "inconsistent with the theorem's guarantee; check inputs"
            )
        return rows, res_v

    def check(self, rpV: RobustProblem) -> CertificateReport:
        d_nat = constraintwise_distance(self.rpU, rpV)
        if not d_nat < self.constants.epsilon:
            raise HypothesisViolatedError(
                f"d_nat = {d_nat} not below eps = {self.constants.epsilon}"
            )
        _, res_v = self._solve(rpV)
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

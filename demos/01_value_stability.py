"""How far can the optimal value move when the uncertainty sets wobble?

Builds a small robust LP, computes the explicit Lipschitz constant of its
optimal value, then perturbs every uncertainty set and compares the actual
value change against the certified bound L * d_nat.
"""

import numpy as np

from robust_stability.geometry import Polytope
from robust_stability.harness import perturbed_problem
from robust_stability.model import RobustProblem, constraintwise_distance
from robust_stability.stability import ValueLipschitzChecker

# min x1 + x2 with one genuinely uncertain constraint and box constraints
sets = {
    "uncertain": Polytope([[1.0, 0.3, -1.0], [1.2, 0.5, -0.8], [0.9, 0.4, -1.1]]),
    "lo0": Polytope([[1.0, 0.0, -4.0]]),
    "hi0": Polytope([[-1.0, 0.0, -4.0]]),
    "lo1": Polytope([[0.0, 1.0, -4.0]]),
    "hi1": Polytope([[0.0, -1.0, -4.0]]),
}
rp = RobustProblem(constraint_sets=sets, cost=[1.0, 1.0])

checker = ValueLipschitzChecker(rp)
c = checker.constants
print(f"nu(U)          = {checker.nu_u:.6f}")
print(f"slater rho     = {checker.rho:.6f}")
print(f"dist to infeas = {c.dist_infeas:.6f}")
print(f"epsilon        = {c.epsilon:.6f}")
print(f"L              = {c.lipschitz:.3f}")
print()

rng = np.random.default_rng(0)
print(f"{'magnitude':>10} {'d_nat':>10} {'|dnu|':>12} {'L*d_nat':>12} {'ok':>4}")
for mag in (1e-2, 1e-3, 1e-4, 1e-5):
    rpV = perturbed_problem(rp, "translate", mag, rng)
    rep = checker.check(rpV)
    d = constraintwise_distance(rp, rpV)
    print(
        f"{mag:10.0e} {d:10.2e} {rep.measured:12.4e} {rep.bound:12.4e} "
        f"{'yes' if rep.passed else 'NO':>4}"
    )

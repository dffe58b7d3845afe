"""Near-optimal solution sets move slowly under data perturbation.

Computes the eps-argmin polytopes of a reference robust problem and a
perturbed copy, measures their truncated Hausdorff distance, and checks it
against the certified coefficient times the constraint-wise distance.
"""

import numpy as np

from robust_stability.geometry import Polytope, enumerate_hrep_vertices
from robust_stability.model import RobustProblem, robust_counterpart
from robust_stability.setdist import check_eps_argmin_lipschitz, eps_argmin

sets = {
    "u": Polytope([[1.0, 0.2, 0.8], [0.9, 0.3, 1.0]]),
    "lo0": Polytope([[1.0, 0.0, -3.0]]),
    "hi0": Polytope([[-1.0, 0.0, -3.0]]),
    "lo1": Polytope([[0.0, 1.0, -3.0]]),
    "hi1": Polytope([[0.0, -1.0, -3.0]]),
}
rpU = RobustProblem(constraint_sets=sets, cost=[1.0, 0.5])

shift = np.array([2e-3, 0.0, 0.0])
setsV = {k: Polytope(P.vertices + shift) for k, P in sets.items()}
rpV = RobustProblem(constraint_sets=setsV, cost=[1.0, 0.5])

eps = 0.25
EU = eps_argmin(robust_counterpart(rpU), eps)
print(f"nu(U) = {EU.nu:.6f}; eps = {eps}")
print("eps-argmin(U) vertices:")
for v in enumerate_hrep_vertices(EU.rows):
    print(f"  {np.round(v, 5)}")
print()

rep = check_eps_argmin_lipschitz(rpU, rpV, eps=eps)
ctx = rep.context
print(f"d_nat                 = {ctx['d_nat']:.3e}")
print(f"truncation radius r   = {ctx['r']:.3f}")
print(f"measured d-hat_r      = {rep.measured:.3e}  (estimate: {ctx['estimate']})")
print(f"certified bound       = {rep.bound:.3e}")
print(f"bound held            = {rep.passed}")

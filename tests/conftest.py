"""Shared generators for randomized tests.

Random robust instances are built to satisfy the stability-theorem
hypotheses by construction: every uncertain row keeps b <= -0.2 (so x = 0 is
a Slater point with uniform slack) and box rows +/- x_i >= -M bound the
feasible set (so the problem is solvable with a bounded optimal face).
"""

import numpy as np
import pytest

from robust_stability import geometry, lp
from robust_stability.geometry import Polytope
from robust_stability.model import RobustProblem


def random_polytope(rng, dim, max_vertices=8, scale=1.0, center=None):
    k = int(rng.integers(dim + 1, max_vertices + 1))
    pts = rng.normal(size=(k, dim)) * scale
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return Polytope(pts)


def random_feasible_instance(rng, n, n_uncertain=2, box=4.0):
    """RobustProblem satisfying Slater + solvable + bounded optimal face."""
    sets = {}
    for j in range(n_uncertain):
        k = int(rng.integers(1, 5))
        base_a = rng.uniform(-1.0, 1.0, size=n)
        base_b = rng.uniform(-2.0, -0.4)
        verts = []
        for _ in range(k):
            a = base_a + rng.uniform(-0.15, 0.15, size=n)
            b = base_b + rng.uniform(-0.15, 0.15)
            verts.append(np.append(a, min(b, -0.2)))
        sets[f"u{j}"] = Polytope(np.array(verts))
    for i in range(n):
        lo = np.zeros(n + 1)
        lo[i] = 1.0
        lo[-1] = -box
        hi = np.zeros(n + 1)
        hi[i] = -1.0
        hi[-1] = -box
        sets[f"lo{i}"] = Polytope(lo[None, :])
        sets[f"hi{i}"] = Polytope(hi[None, :])
    cost = rng.normal(size=n)
    nrm = np.linalg.norm(cost)
    if nrm < 0.3:
        cost = cost / max(nrm, 1e-12) * 0.5
    return RobustProblem(constraint_sets=sets, cost=cost)


def shifted_instance(rp, rng, magnitude):
    """Translate every uncertainty set by a random direction of given size."""
    sets = {}
    for alpha, U in rp.constraint_sets.items():
        d = rng.standard_normal(U.dim)
        d /= max(np.linalg.norm(d), 1e-12)
        sets[alpha] = Polytope(U.vertices + magnitude * d)
    return RobustProblem(constraint_sets=sets, cost=rp.cost.copy())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _count_calls(monkeypatch, module, name):
    """One-element list counting calls of module.name made through any module."""
    count = [0]
    real = getattr(module, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return count


@pytest.fixture
def lp_solve_calls(monkeypatch):
    return _count_calls(monkeypatch, lp, "solve")


@pytest.fixture
def min_norm_point_calls(monkeypatch):
    """Wolfe solves: geometry.min_norm_point is only called within geometry."""
    return _count_calls(monkeypatch, geometry, "min_norm_point")

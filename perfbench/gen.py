"""Seeded input generator for the benchmark workloads.

Every robust instance satisfies the value-stability theorem's hypotheses by
construction: each uncertain row keeps b <= -0.2, so x = 0 is a strong
Slater point, and the box rows +/- x_i >= -BOX bound the feasible set (so
the problem is solvable with a bounded optimal face) and put +/- e_i into
Z-, so the origin is interior to it.

Inputs are plain numpy data.  A problem is ``{"cost": c, "sets": [(label,
vertices), ...]}`` where a vertex row is ``(a, b)`` meaning <a, x> >= b.  The
worker turns them into the program's objects before timing starts.  Item i
of a workload draws from its own stream ``[seed, workload, i]``, so a
shorter pool is a prefix of a longer one.
"""

import numpy as np

BOX = 4.0
B_MAX = -0.2
PERTURBATION_KINDS = ("translate", "scale", "vertexJitter", "shrinkToPoint")

# Vertex counts of the uncertain sets: fixed patterns rather than draws, so
# that the shape of the work (rows, LP sizes, projection sizes) does not
# depend on the seed and only the numbers do.
VALUE_STREAM_VERTICES = (1, 2, 3, 4, 1, 2, 3, 4)
VALUE_STREAM_DIM = 3
SWEEP_SETS = 3
EPSARGMIN_SETS = 2
EPSARGMIN_DIM = 1
TRANSFORM_VERTICES = 6
TRANSFORM_SHIFT = 0.5


def _rng(seed, workload, index):
    return np.random.default_rng([seed, workload, index])


def reference_problem(rng, n, vertex_counts):
    """Robust problem with one uncertain set per entry of vertex_counts."""
    sets = []
    for j, k in enumerate(vertex_counts):
        base_a = rng.uniform(-1.0, 1.0, size=n)
        base_b = rng.uniform(-2.0, -0.4)
        a = base_a + rng.uniform(-0.15, 0.15, size=(k, n))
        b = np.minimum(base_b + rng.uniform(-0.15, 0.15, size=k), B_MAX)
        sets.append((f"u{j}", np.column_stack([a, b])))
    for i in range(n):
        for label, sign in (("lo", 1.0), ("hi", -1.0)):
            row = np.zeros((1, n + 1))
            row[0, i] = sign
            row[0, -1] = -BOX
            sets.append((f"{label}{i}", row))
    cost = rng.normal(size=n)
    norm = float(np.linalg.norm(cost))
    if norm < 0.3:
        cost = cost / max(norm, 1e-12) * 0.5
    return {"cost": cost, "sets": sets}


def perturb_vertices(V, kind, magnitude, rng):
    """One uncertainty set moved by at most `magnitude` in Hausdorff distance.

    translate moves it by exactly `magnitude` along a random unit direction.
    """
    if kind == "translate":
        d = rng.standard_normal(V.shape[1])
        return V + magnitude * d / max(float(np.linalg.norm(d)), 1e-12)
    center = V.mean(axis=0)
    radius = max(float(np.max(np.linalg.norm(V - center, axis=1))), 1e-12)
    if kind == "scale":
        factor = 1.0 + (magnitude / radius) * rng.uniform(-1.0, 1.0)
        return center + factor * (V - center)
    if kind == "vertexJitter":
        noise = rng.standard_normal(V.shape)
        noise /= np.maximum(np.linalg.norm(noise, axis=1), 1e-12)[:, None]
        return V + magnitude * noise * rng.uniform(0.0, 1.0, size=(V.shape[0], 1))
    if kind == "shrinkToPoint":
        t = min(magnitude / radius, 1.0)
        return center + (1.0 - t) * (V - center)
    raise ValueError(f"unknown perturbation kind {kind!r}")


def perturb_problem(problem, kind, magnitude, rng):
    sets = [
        (label, perturb_vertices(V, kind, magnitude, rng))
        for label, V in problem["sets"]
    ]
    return {"cost": problem["cost"].copy(), "sets": sets}


def value_stream(seed, count):
    """One reference problem and `count` perturbations of all four kinds.

    Magnitudes stay in [1e-4, 1e-3], far below the admissible epsilon of
    these instances (half the distance to the solvable boundary).
    """
    reference = reference_problem(
        _rng(seed, 0, 0), VALUE_STREAM_DIM, VALUE_STREAM_VERTICES
    )
    perturbations = []
    for i in range(count):
        rng = _rng(seed, 0, i + 1)
        kind = PERTURBATION_KINDS[i % len(PERTURBATION_KINDS)]
        magnitude = float(rng.uniform(1e-4, 1e-3))
        perturbations.append(
            {
                "kind": kind,
                "magnitude": magnitude,
                "problem": perturb_problem(reference, kind, magnitude, rng),
            }
        )
    return {"reference": reference, "items": perturbations}


def constants_sweep(seed, count):
    """`count` fresh reference problems, n cycling 1..4, 3 uncertain sets."""
    items = []
    for i in range(count):
        n = 1 + i % 4
        counts = tuple(1 + (i // 4 + j) % 4 for j in range(SWEEP_SETS))
        items.append(reference_problem(_rng(seed, 1, i), n, counts))
    return {"items": items}


def epsargmin_pairs(seed, count):
    """`count` (U, V, eps) triples in n = 1; V translates every set of U.

    The translation size is in [2e-4, 2e-3] and eps in [0.1, 0.5].  In n = 2
    the cost of one triple is heavy-tailed (slowly converging Dykstra
    projections): a tenth of the triples carry most of the time, and
    throughput over a run moved by a factor of three between seeds, so those
    triples are left out.
    """
    items = []
    for i in range(count):
        rng = _rng(seed, 2, i)
        counts = tuple(int(k) for k in rng.integers(1, 5, size=EPSARGMIN_SETS))
        problem_u = reference_problem(rng, EPSARGMIN_DIM, counts)
        magnitude = float(rng.uniform(2e-4, 2e-3))
        problem_v = perturb_problem(problem_u, "translate", magnitude, rng)
        eps = float(rng.uniform(0.1, 0.5))
        items.append(
            {"u": problem_u, "v": problem_v, "eps": eps, "magnitude": magnitude}
        )
    return {"items": items}


def transform_pairs(seed, count):
    """`count` polytope pairs (U, U + w), dimension alternating 2 and 3.

    U has TRANSFORM_VERTICES standard-normal vertices and |w| is
    TRANSFORM_SHIFT, large enough that all four index regions of the
    transformation are non-empty; the seed sets the vertices and w's
    direction.
    """
    items = []
    for i in range(count):
        rng = _rng(seed, 3, i)
        dim = 2 + i % 2
        U = rng.normal(size=(TRANSFORM_VERTICES, dim))
        w = rng.standard_normal(dim)
        w *= TRANSFORM_SHIFT / float(np.linalg.norm(w))
        items.append({"u": U, "v": U + w, "shift": TRANSFORM_SHIFT})
    return {"items": items}


WORKLOADS = {
    "value-stream": value_stream,
    "constants-sweep": constants_sweep,
    "epsargmin-pairs": epsargmin_pairs,
    "transform-identity": transform_pairs,
}

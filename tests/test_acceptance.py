"""End-to-end certification suite.

Each test covers one acceptance criterion, prints exactly one PASS/FAIL line
(with its runtime against the budget), and fails loudly on any violation.
Run with -s to see the lines for passing tests too.
"""

import json
import time

import numpy as np
import pytest

from robust_stability import harness as hn
from robust_stability import lp
from robust_stability import setdist as sd
from robust_stability import stability as st
from robust_stability import transform as tf
from robust_stability.errors import NotInteriorSolvableError
from robust_stability.geometry import (
    Polytope,
    contains_origin_interior,
    dist_origin_to_hset,
    enumerate_hrep_vertices,
    hausdorff,
    inradius_at_origin,
)
from robust_stability.model import (
    LsioProblem,
    RobustProblem,
    constraintwise_distance,
    delta_sigma,
    robust_counterpart,
)

import rational_simplex
from dykstra import project_onto_halfspaces
from conftest import random_feasible_instance, random_polytope, shifted_instance
from test_geometry import hset_grid_oracle


def _report(num, desc, ok, elapsed, budget, detail=""):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(
        f"[{status}] criterion {num}: {desc} "
        f"({detail + '; ' if detail else ''}{elapsed:.3f}s / budget {budget}s)"
    )
    assert ok, f"criterion {num} violated: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.3f}s"


# ---------------------------------------------------------------------------


def test_01_indexing_distance_example():
    """Matched indexing gives exactly 0; swapped gives sqrt(2) to 1e-12."""
    def system(rows):
        return LsioProblem(cost=[0.0, 0.0], rows=rows, labels=("t1", "t2"))

    s1 = system([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    matched = system([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    swapped = system([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    delta_sigma(s1, matched)  # warm-up outside the timed region
    t0 = time.perf_counter()
    d_match = delta_sigma(s1, matched)
    d_swap = delta_sigma(s1, swapped)
    elapsed = time.perf_counter() - t0
    ok = d_match == 0.0 and abs(d_swap - np.sqrt(2.0)) <= 1e-12
    _report(
        1,
        "indexing-aware system distance on the two-constraint example",
        ok,
        elapsed,
        0.001,
        f"matched={d_match} swapped={d_swap}",
    )


def test_02_transform_distance_identity(rng):
    """Sampled transformation sup equals d_H on 100 random 2-D pairs."""
    t0 = time.perf_counter()
    worst = 0.0
    plan = tf.SamplePlan(seed=11, counts=(5, 5, 5, 5))
    for _ in range(100):
        U = random_polytope(rng, 2, max_vertices=8)
        V = random_polytope(rng, 2, max_vertices=8)
        rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=plan)
        gap = abs(rep.measured - hausdorff(U, V))
        worst = max(worst, gap)
        if not rep.passed:
            break
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "transformation distance identity on 100 polytope pairs",
        worst <= 1e-6 and rep.passed,
        elapsed,
        5.0,
        f"worst gap={worst:.2e}",
    )


def test_03_value_lipschitz_bulk(rng):
    """10^4 hypothesis-satisfying perturbation trials, all within L * d_nat."""
    t0 = time.perf_counter()
    kinds = hn.PERTURBATION_KINDS
    total = 0
    failures = 0
    slope_violations = 0
    instances = 0
    while total < 10_000:
        n = 1 + instances % 3
        try:
            rp = random_feasible_instance(rng, n=n)
            checker = st.ValueLipschitzChecker(rp)
        except NotInteriorSolvableError:
            continue
        instances += 1
        L = checker.constants.lipschitz
        cap = min(1e-3, 0.3 * checker.constants.epsilon)
        max_slope = 0.0
        for _ in range(100):
            mag = cap * float(rng.uniform(0.1, 1.0))
            kind = kinds[int(rng.integers(len(kinds)))]
            rpV = hn.perturbed_problem(rp, kind, mag, rng)
            rep = checker.check(rpV)
            total += 1
            if not rep.passed:
                failures += 1
            d = rep.context["d_nat"]
            if d > 1e-15:
                max_slope = max(max_slope, rep.measured / d)
        if max_slope > L:
            slope_violations += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and slope_violations == 0
    _report(
        3,
        "optimal-value Lipschitz bound on 10^4 randomized trials",
        ok,
        elapsed,
        60.0,
        f"trials={total} instances={instances} failures={failures} "
        f"slope-violations={slope_violations}",
    )


def test_04_constants_invariance(rng):
    """Duplicate-row and permuted copies give identical constants (1e-12)."""
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 100:
        n = 1 + done % 3
        try:
            rp = random_feasible_instance(rng, n=n)
            checker = st.ValueLipschitzChecker(rp)
        except NotInteriorSolvableError:
            continue
        pi = checker.augmented
        eps = checker.constants.epsilon
        base = st.lipschitz_constant(pi, eps=eps).to_dict()
        perm = rng.permutation(len(pi.rows))
        rows = np.vstack([pi.rows[perm], pi.rows[perm[:1]]])
        labels = [f"p{i}" for i in range(len(perm))] + ["dup"]
        other = st.lipschitz_constant(
            LsioProblem(cost=pi.cost, rows=rows, labels=labels), eps=eps
        ).to_dict()
        for k in base:
            scale = max(1.0, abs(base[k]))
            worst = max(worst, abs(base[k] - other[k]) / scale)
        done += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "constant invariance under row duplication/permutation (100 problems)",
        worst <= 1e-12,
        elapsed,
        5.0,
        f"worst relative deviation={worst:.2e}",
    )


def _strongly_feasible(rows, shift, mag):
    return lp.slater_constant(rows + mag * shift) is not None


def _shift_threshold(rows, u, hi, best):
    """Smallest uniform data shift along u losing strong feasibility.

    Losing strong feasibility is hitting a convex set of shifts, so its trace
    on the ray is an interval: grid-scan for the first entry, then bisect.
    """
    grid = np.linspace(0.0, hi, 25)[1:]
    lo = 0.0
    up = None
    for m in grid:
        if m >= best:
            return np.inf
        if _strongly_feasible(rows, u, m):
            lo = m
        else:
            up = m
            break
    if up is None:
        return np.inf
    for _ in range(13):
        mid = 0.5 * (lo + up)
        if _strongly_feasible(rows, u, mid):
            lo = mid
        else:
            up = mid
    return up


def _bisect_infeasibility(rows, dim, hi, rng):
    """Randomized direction search for the smallest uniform shift reaching
    the boundary of feasibility, refined from several coarse candidates."""
    coarse = _sphere_directions(dim, 192 if dim == 2 else 320, rng)
    best = np.inf
    vals = []
    for u in coarse:
        t = _shift_threshold(rows, u, hi, 1.5 * best)
        vals.append(t)
        best = min(best, t)
    starts = []
    for i in np.argsort(vals):
        u = coarse[i]
        if not np.isfinite(vals[i]):
            break
        if any(u @ s > 0.95 for s in starts):
            continue
        starts.append(u)
        if len(starts) >= 3:
            break
    for u0 in starts:
        bu, bt = u0, np.inf
        width = 0.25
        for _ in range(9):
            cand = bu[None, :] + width * rng.standard_normal((24, dim))
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            for u in cand:
                t = _shift_threshold(rows, u, hi, bt)
                if t < bt:
                    bt, bu = t, u
            width /= 1.6
        best = min(best, bt)
    return best


def _sphere_directions(dim, count, rng):
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])
    # Fibonacci sphere plus a few random extras
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = np.pi * (1.0 + np.sqrt(5.0)) * i
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    extra = rng.standard_normal((32, 3))
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    return np.vstack([pts, extra])


def test_05_infeasibility_distance_oracles(rng):
    """Min-norm value vs dense weight-grid and vs bisection search."""
    t0 = time.perf_counter()
    worst_grid = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        G = rng.normal(size=(k, n + 1))
        val = dist_origin_to_hset(G)
        ref = hset_grid_oracle(G)
        worst_grid = max(worst_grid, abs(val - ref))

    worst_rel = 0.0
    done = 0
    while done < 20:
        # m >= n + 2 rows so the hull is full-dimensional: a ray search can
        # only certify thresholds against a full-dimensional boundary
        n = 1 + done % 2
        m = int(rng.integers(n + 2, 5))
        rows = np.array([np.append(rng.normal(size=n), rng.uniform(-2.0, -0.3)) for _ in range(m)])
        if lp.solve(lp.LinearProgram(np.zeros(n), rows[:, :-1], rows[:, -1])).status == lp.INFEASIBLE:
            continue
        d_qp = dist_origin_to_hset(rows)
        if d_qp < 1e-6:
            continue
        found = _bisect_infeasibility(rows, n + 1, hi=4.0 * d_qp + 1.0, rng=rng)
        if not np.isfinite(found):
            continue
        worst_rel = max(worst_rel, abs(d_qp - found) / found)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_grid <= 1e-4 and worst_rel <= 0.05
    _report(
        5,
        "distance-to-infeasibility vs grid and bisection oracles",
        ok,
        elapsed,
        30.0,
        f"grid gap={worst_grid:.2e} bisection rel gap={worst_rel:.3f}",
    )


def _support_sweep_inradius(P: Polytope, rng):
    """min over unit directions of the support function, by staged sweep."""
    V = P.vertices

    def h(dirs):
        return (dirs @ V.T).max(axis=1)

    if P.dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        vals = h(np.column_stack([np.cos(th), np.sin(th)]))
        best_t = th[int(np.argmin(vals))]
        w = 2.0 * np.pi / 4096
        for _ in range(18):
            loc = best_t + np.linspace(-w, w, 25)
            vals = h(np.column_stack([np.cos(loc), np.sin(loc)]))
            best_t = loc[int(np.argmin(vals))]
            w /= 2.5
        return float(
            h(np.array([[np.cos(best_t), np.sin(best_t)]]))[0]
        )
    dirs = _sphere_directions(3, 20000, rng)
    vals = h(dirs)
    # the support function has many local minima on the sphere; refine from
    # a spread of the best coarse candidates and keep the overall minimum
    order = np.argsort(vals)
    starts = []
    for i in order:
        u = dirs[i]
        if any(u @ s > 0.995 for s in starts):
            continue
        starts.append(u)
        if len(starts) >= 24:
            break
    grid = np.array(np.meshgrid(*([np.linspace(-1, 1, 13)] * 2))).reshape(2, -1).T
    best = np.inf
    for u in starts:
        a = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(a) < 1e-6:
            a = np.cross(u, [0.0, 1.0, 0.0])
        a /= np.linalg.norm(a)
        b = np.cross(u, a)
        w = 0.06
        phi = np.zeros(2)
        for _ in range(20):
            cand = phi[None, :] + w * grid
            vecs = (
                u[None, :]
                + cand[:, :1] * a[None, :]
                + cand[:, 1:] * b[None, :]
            )
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            loc = h(vecs)
            phi = cand[int(np.argmin(loc))]
            w /= 2.5
        v = u + phi[0] * a + phi[1] * b
        v /= np.linalg.norm(v)
        best = min(best, float(h(v[None, :])[0]))
    return best


def test_06_inradius_direction_sweep(rng):
    """Polar-based inradius matches a support-function sweep to 1e-6."""
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 50:
        dim = 2 + done % 2
        P = random_polytope(rng, dim, max_vertices=8)
        P = Polytope(P.vertices - P.vertices.mean(axis=0))
        inside, margin, _ = contains_origin_interior(P)
        if not inside or margin < 1e-3:
            continue
        r = inradius_at_origin(P)
        if r.estimated:
            continue
        ref = _support_sweep_inradius(P, rng)
        worst = max(worst, abs(r.value - ref))
        done += 1
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "inradius identity vs direction sweep on 50 polytopes",
        worst <= 1e-6,
        elapsed,
        10.0,
        f"worst gap={worst:.2e}",
    )


def _degenerate_edge_instance():
    """Optimal face is a whole edge: min x1 over [1,2] x [0,1]."""
    sets = {
        "lo0": Polytope([[1.0, 0.0, 1.0]]),
        "hi0": Polytope([[-1.0, 0.0, -2.0]]),
        "lo1": Polytope([[0.0, 1.0, 0.0]]),
        "hi1": Polytope([[0.0, -1.0, -1.0]]),
    }
    return RobustProblem(constraint_sets=sets, cost=[1.0, 0.0])


def test_07_convergence_and_usc(rng):
    """Shrinking perturbation schedules: optimal points converge to the
    reference optimal face and perturbed optimal sets stay in a fixed
    neighborhood over the last five steps."""
    t0 = time.perf_counter()
    problems = [_degenerate_edge_instance(), _degenerate_edge_instance()]
    while len(problems) < 20:
        n = 1 + len(problems) % 2
        try:
            rp = random_feasible_instance(rng, n=n)
            st.ValueLipschitzChecker(rp)
        except NotInteriorSolvableError:
            continue
        problems.append(rp)
    conv_fail = 0
    usc_fail = 0
    delta = 1e-2
    for idx, rp in enumerate(problems):
        config = hn.ExperimentConfig(
            seed=100 + idx, trials=12, magnitude_schedule=(1e-2,)
        )
        records = hn.run_convergence_suite(rp, config)
        first, last = records[0].dist_to_fopt, records[-1].dist_to_fopt
        if not (last <= 1e-7 or last <= 1e-3 * max(first, 1e-300)):
            conv_fail += 1
        cp = robust_counterpart(rp)
        nu_u = lp.solve(cp.to_lp()).value
        face = hn.optimal_face_rows(cp, nu_u)
        for j in range(12 - 5, 12):
            rng_j = hn._trial_rng(config.seed, 0)
            mag = 1e-2 * (2.0 ** -j)
            rpV = hn.perturbed_problem(rp, "translate", mag, rng_j)
            cpV = robust_counterpart(rpV)
            res = lp.solve(cpV.to_lp())
            vface = hn.optimal_face_rows(cpV, res.value)
            verts = enumerate_hrep_vertices(vface)
            for v in verts:
                if project_onto_halfspaces(v, face)[1] >= delta:
                    usc_fail += 1
                    break
    elapsed = time.perf_counter() - t0
    ok = conv_fail == 0 and usc_fail == 0
    _report(
        7,
        "convergence + upper semicontinuity on 20 shrinking schedules",
        ok,
        elapsed,
        30.0,
        f"convergence failures={conv_fail} containment failures={usc_fail}",
    )


def test_08_eps_argmin_bound_bulk(rng):
    """200 randomized trials: truncated distance below the bound, dominated
    by the full Hausdorff distance, and nested eps-argmin sets."""
    t0 = time.perf_counter()
    bound_fail = 0
    dom_fail = 0
    nest_fail = 0
    done = 0
    while done < 200:
        n = 1 + done % 2
        rp = random_feasible_instance(rng, n=n)
        rpV = shifted_instance(rp, rng, float(rng.uniform(2e-4, 2e-3)))
        eps = float(rng.uniform(0.1, 0.5))
        try:
            rep = sd.check_eps_argmin_lipschitz(rp, rpV, eps=eps)
        except NotInteriorSolvableError:
            continue
        if not rep.passed:
            bound_fail += 1
        cpU = robust_counterpart(rp)
        cpV = robust_counterpart(rpV)
        EU = sd.eps_argmin(cpU, eps)
        EV = sd.eps_argmin(cpV, eps)
        vu = enumerate_hrep_vertices(EU.rows)
        vv = enumerate_hrep_vertices(EV.rows)
        if vu and vv:
            d_h = hausdorff(Polytope(np.array(vu)), Polytope(np.array(vv)))
            if rep.measured > d_h + 1e-7:
                dom_fail += 1
        big = sd.eps_argmin(cpU, eps + 0.1)
        for v in vu:
            if project_onto_halfspaces(v, big.rows)[1] > 1e-7:
                nest_fail += 1
                break
        done += 1
    elapsed = time.perf_counter() - t0
    ok = bound_fail == 0 and dom_fail == 0 and nest_fail == 0
    _report(
        8,
        "eps-argmin truncated-distance bound on 200 trials",
        ok,
        elapsed,
        60.0,
        f"bound failures={bound_fail} domination failures={dom_fail} "
        f"nesting failures={nest_fail}",
    )


def test_09_lp_solver_soundness(rng):
    """Certificate residuals on 10^3 random LPs; exact status agreement with
    the rational-arithmetic reference on 100 integer LPs."""
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        res = lp.solve(lp.LinearProgram(c, A, b))
        scale = max(1.0, np.abs(A).max(), np.abs(b).max(), np.abs(c).max())
        if res.status == lp.OPTIMAL:
            x, y = res.solution, res.dual_weights
            worst = max(worst, float(np.max(b - A @ x, initial=0.0)) / scale)
            worst = max(worst, float(max(0.0, b @ y - res.value)) / scale)
            worst = max(worst, float(np.abs(A.T @ y - c).max()) / scale)
        elif res.status == lp.INFEASIBLE:
            y = res.dual_weights
            ysum = max(1.0, float(y.sum()))
            worst = max(worst, float(np.abs(A.T @ y).max()) / ysum)
            if b @ y <= 0:
                worst = np.inf

    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        A = rng.integers(-3, 4, size=(m, n))
        b = rng.integers(-3, 4, size=m)
        c = rng.integers(-3, 4, size=n)
        res = lp.solve(lp.LinearProgram(c.astype(float), A.astype(float), b.astype(float)))
        status, value = rational_simplex.solve_status(
            [int(v) for v in c], [([int(x) for x in A[i]], int(b[i])) for i in range(m)]
        )
        if res.status != status:
            mismatches += 1
        elif status == rational_simplex.OPTIMAL and abs(res.value - float(value)) > 1e-8:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and mismatches == 0
    _report(
        9,
        "LP certificates on 10^3 LPs + rational status oracle on 100",
        ok,
        elapsed,
        30.0,
        f"worst residual={worst:.2e} status mismatches={mismatches}",
    )


def test_10_report_determinism(tmp_path, capsys):
    """Two identical perturbation runs emit byte-identical reports."""
    t0 = time.perf_counter()
    cfg = {
        "problem": {
            "n": 1,
            "cost": [1.0],
            "constraints": [
                {"name": "u", "vertices": [[1.0, 1.0], [2.0, 1.0]]},
                {"name": "box", "vertices": [[-1.0, -10.0]]},
            ],
        },
        "seed": 7,
        "trials": 6,
        "magnitudes": [1e-3, 1e-4],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = hn.cli(["perturb", str(path), "--out", str(out1)])
    stdout1 = capsys.readouterr().out
    code2 = hn.cli(["perturb", str(path), "--out", str(out2)])
    stdout2 = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = (
        code1 == code2 == 0
        and out1.read_bytes() == out2.read_bytes()
        and stdout1 == stdout2
    )
    _report(
        10,
        "byte-identical perturbation reports across repeated runs",
        ok,
        elapsed,
        30.0,
        f"exit codes=({code1},{code2})",
    )

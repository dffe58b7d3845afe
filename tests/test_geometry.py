import itertools
import math
import time
import warnings

import numpy as np
import pytest

from robust_stability import geometry as geo
from robust_stability import lp
from robust_stability.errors import DimensionMismatchError, IterationLimitError

import dykstra


def grid_project(p, P, step=1e-3):
    """Independent oracle: dense grid over barycentric weights (k <= 3)."""
    V = P.vertices
    k = V.shape[0]
    best = None
    if k == 1:
        return V[0], float(np.linalg.norm(p - V[0]))
    if k == 2:
        ts = np.arange(0.0, 1.0 + step, step)
        pts = np.outer(1 - ts, V[0]) + np.outer(ts, V[1])
    else:
        ts = np.arange(0.0, 1.0 + step, step)
        pairs = [(a, b) for a in ts for b in ts if a + b <= 1.0 + 1e-12]
        w = np.array([(a, b, 1.0 - a - b) for a, b in pairs])
        pts = w @ V
    d = np.linalg.norm(pts - p, axis=1)
    i = int(np.argmin(d))
    return pts[i], float(d[i])


class TestProjection:
    def test_own_vertex(self):
        P = geo.Polytope([[1.0, 2.0], [3.0, 4.0]])
        q, d = geo.project_onto_polytope([1.0, 2.0], P)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert q == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_segment(self):
        P = geo.Polytope([[0.0, -1.0], [0.0, 1.0]])
        q, d = geo.project_onto_polytope([2.0, 0.0], P)
        assert d == pytest.approx(2.0, abs=1e-10)
        assert q == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_simplex_corner(self):
        P = geo.Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        q, d = geo.project_onto_polytope([1.0, 1.0], P)
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-10)
        assert q == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            geo.project_onto_polytope([1.0], geo.Polytope([[0.0, 0.0]]))

    def test_against_grid_oracle(self, rng):
        for _ in range(25):
            P = geo.Polytope(rng.normal(size=(int(rng.integers(1, 4)), 2)))
            p = rng.normal(size=2) * 2
            _, d = geo.project_onto_polytope(p, P)
            _, d_ref = grid_project(p, P)
            assert d <= d_ref + 1e-9
            assert abs(d - d_ref) <= 5e-3  # grid resolution limits the oracle

    def test_idempotence_and_variational(self, rng):
        for _ in range(100):
            P = geo.Polytope(rng.normal(size=(int(rng.integers(2, 7)), 3)))
            p = rng.normal(size=3) * 2
            q, _ = geo.project_onto_polytope(p, P)
            q2, d2 = geo.project_onto_polytope(q, P)
            assert np.linalg.norm(q2 - q) <= 1e-9
            # variational inequality <p - q, v - q> <= 0 at every vertex
            for v in P.vertices:
                assert (p - q) @ (v - q) <= 1e-8


class TestHausdorff:
    def test_identity(self, rng):
        P = geo.Polytope(rng.normal(size=(5, 2)))
        assert geo.hausdorff(P, P) == 0.0
        assert geo.hausdorff([P, P], [P, P]) == 0.0
        assert geo.hausdorff([], []) == 0.0  # the max over no pairs

    def test_singletons(self):
        assert geo.directed_hausdorff(
            geo.Polytope([[0.0, 0.0]]), geo.Polytope([[3.0, 4.0]])
        ) == pytest.approx(5.0, abs=1e-12)

    def test_shifted_square(self):
        U = geo.Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert geo.hausdorff(U, U.translated([0.5, 0.0])) == pytest.approx(0.5, abs=1e-10)

    def test_scaled_square(self):
        U = geo.Polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert geo.hausdorff(U, U.scaled(2.0)) == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_metric_properties(self, rng):
        for _ in range(50):
            A = geo.Polytope(rng.normal(size=(4, 2)))
            B = geo.Polytope(rng.normal(size=(4, 2)))
            C = geo.Polytope(rng.normal(size=(4, 2)))
            ab = geo.hausdorff(A, B)
            assert ab == geo.hausdorff(B, A)
            assert geo.hausdorff(A, C) <= ab + geo.hausdorff(B, C) + 1e-8

    def test_translation_covariance(self, rng):
        for _ in range(30):
            A = geo.Polytope(rng.normal(size=(5, 3)))
            B = geo.Polytope(rng.normal(size=(5, 3)))
            w = rng.normal(size=3) * 3
            assert abs(
                geo.hausdorff(A.translated(w), B.translated(w)) - geo.hausdorff(A, B)
            ) <= 1e-9


class TestHausdorffEarlyBreakMatchesFullScan:
    """The Hausdorff scans skip vertices whose nearest-vertex bound is below
    the running maximum; each result must be the full scan's float."""

    @staticmethod
    def full_scan(U, V):
        return max(geo.project_onto_polytope(u, V)[1] for u in U.vertices)

    def assert_same(self, U, V):
        forward, backward = self.full_scan(U, V), self.full_scan(V, U)
        assert geo.directed_hausdorff(U, V) == forward
        assert geo.directed_hausdorff(V, U) == backward
        assert geo.hausdorff(U, V) == max(forward, backward)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_pairs(self, rng, dim):
        for _ in range(60):
            U = geo.Polytope(rng.normal(size=(int(rng.integers(1, 9)), dim)))
            V = geo.Polytope(rng.normal(size=(int(rng.integers(1, 9)), dim)))
            self.assert_same(U, V)
            self.assert_same(U, U.translated(0.3 * rng.normal(size=dim)))
            self.assert_same(U, U.scaled(0.7))

    def test_ties(self):
        square = geo.Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for w in ([0.5, 0.0], [0.25, 0.25], [2.0, 0.0], [-3.0, 4.0]):
            self.assert_same(square, square.translated(w))
        self.assert_same(square, square.scaled(2.0))
        self.assert_same(square, geo.Polytope([[0.5, 0.5]]))

    def test_duplicate_vertices(self, rng):
        for _ in range(20):
            P = rng.normal(size=(4, 2))
            U = geo.Polytope(np.vstack([P, P[:2]]))
            V = geo.Polytope(np.vstack([P + 0.2, P[1:] + 0.2]))
            self.assert_same(U, V)
            self.assert_same(U, geo.Polytope(P))

    def test_one_vertex_sets(self, rng):
        for _ in range(20):
            U = geo.Polytope(rng.normal(size=(1, 3)))
            V = geo.Polytope(rng.normal(size=(int(rng.integers(1, 6)), 3)))
            self.assert_same(U, V)
            self.assert_same(U, U)

    def test_one_vertex_sets_wolfe_calls(self, rng, min_norm_point_calls):
        """A one-vertex V needs no Wolfe call: its bound is the distance.  A
        one-vertex U is projected only while its bound reaches the running
        maximum, which U's exact distances to `point` exceed."""
        U = geo.Polytope(rng.normal(size=(5, 3)))
        point = geo.Polytope(rng.normal(size=(1, 3)))
        self.assert_same(U, point)
        assert min_norm_point_calls[0] == 2  # full_scan and directed, point over U
        min_norm_point_calls[0] = 0
        geo.hausdorff(U, point)
        assert min_norm_point_calls[0] == 0
        geo.hausdorff(point, U)  # point's scan comes first, from 0
        assert min_norm_point_calls[0] == 1

    def test_one_vertex_projection_is_wolfe_start(self, rng):
        for _ in range(50):
            P = geo.Polytope(rng.normal(size=(1, 3)))
            p = rng.normal(size=3)
            q, d = geo.project_onto_polytope(p, P)
            x, _ = geo.min_norm_point(P.vertices - p)
            assert q.tobytes() == (x + p).tobytes()
            assert d == float(np.linalg.norm(x))


def loop_nearest_bounds(U, V):
    """Per-pair reference: each vertex's distance to the nearest vertex of
    the other set, as math.sqrt(x.dot(x)) of the difference."""
    D = V.vertices[None, :, :] - U.vertices[:, None, :]
    D2 = (D * D).sum(axis=2)
    to_v = [D[i, j] for i, j in enumerate(D2.argmin(axis=1).tolist())]
    to_u = [D[i, j] for j, i in enumerate(D2.argmin(axis=0).tolist())]
    return [math.sqrt(x.dot(x)) for x in to_v], [math.sqrt(x.dot(x)) for x in to_u]


class TestBatchedNearestBounds:
    """The padded-block bounds equal the per-pair formula float for float."""

    def assert_same(self, Us, Vs):
        bu, bv = geo._nearest_bounds(geo._padded(Us), geo._padded(Vs))
        for k, (U, V) in enumerate(zip(Us, Vs)):
            ref_u, ref_v = loop_nearest_bounds(U, V)
            assert bu[k, : len(U.vertices)].tolist() == ref_u
            assert bv[k, : len(V.vertices)].tolist() == ref_v
            # a pad repeats its set's first bound
            assert set(bu[k, len(U.vertices) :].tolist()) <= {ref_u[0]}
            assert set(bv[k, len(V.vertices) :].tolist()) <= {ref_v[0]}

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unequal_counts(self, rng, dim):
        for _ in range(40):
            Us = [geo.Polytope(rng.normal(size=(int(rng.integers(1, 7)), dim))) for _ in range(5)]
            # V's counts differ from U's, and one-vertex sets occur on both sides
            Vs = [geo.Polytope(rng.normal(size=(int(rng.integers(1, 7)), dim))) for _ in Us]
            self.assert_same(Us, Vs)
            self.assert_same(Us, [U.translated(1e-4 * rng.normal(size=dim)) for U in Us])

    def test_ties(self):
        square = geo.Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        Vs = [square.translated([0.5, 0.0]), geo.Polytope([[0.5, 0.5]]), square.scaled(2.0)]
        self.assert_same([square] * 3, Vs)
        self.assert_same(Vs, [square] * 3)

    def test_dimension_mismatch(self):
        # a 1-D set would broadcast against a 2-D one without the check
        for U, V in (([[0.0, 0.0]], [[0.0, 0.0, 0.0]]), ([[0.0], [1.0]], [[0.0, 0.0]])):
            for f in (geo.hausdorff, geo.directed_hausdorff):
                with pytest.raises(DimensionMismatchError):
                    f(geo.Polytope(U), geo.Polytope(V))


def hset_grid_oracle(G, mu_steps=120, lam_step=0.02):
    """Dense (lambda, mu)-grid with local refinement around the incumbent."""
    k = G.shape[0]
    mu_max = 2.0 * (np.max(np.linalg.norm(G, axis=1)) + 1.0)

    def weights(step):
        if k == 1:
            return np.array([[1.0]])
        axes = [np.arange(0.0, 1.0 + step, step)] * (k - 1)
        mesh = np.array(np.meshgrid(*axes)).reshape(k - 1, -1).T
        mesh = mesh[mesh.sum(axis=1) <= 1.0 + 1e-12]
        return np.hstack([mesh, 1.0 - mesh.sum(axis=1, keepdims=True)])

    best = np.inf
    w = weights(lam_step)
    mus = np.linspace(0.0, mu_max, mu_steps)
    pts = w @ G
    for mu in mus:
        q = pts.copy()
        q[:, -1] -= mu
        best = min(best, float(np.min(np.linalg.norm(q, axis=1))))
    # local refinement: subdivide around the incumbent (pure enumeration)
    wbest = None
    mubest = None
    for mu in mus:
        q = pts.copy()
        q[:, -1] -= mu
        i = int(np.argmin(np.linalg.norm(q, axis=1)))
        if np.linalg.norm(q[i]) <= best + 1e-15:
            wbest, mubest = w[i], mu
    h = lam_step
    h_mu = mu_max / mu_steps
    axes = np.linspace(-1.0, 1.0, 13)
    if k > 1:
        offsets = np.array(np.meshgrid(*([axes] * (k - 1)))).reshape(k - 1, -1).T
    else:
        offsets = np.zeros((1, 0))
    for _ in range(14):
        local = np.clip(wbest[None, : k - 1] + h * offsets, 0.0, 1.0)
        local = local[local.sum(axis=1) <= 1.0 + 1e-12]
        if local.shape[0] == 0:
            local = wbest[None, : k - 1]
        wloc = np.hstack([local, 1.0 - local.sum(axis=1, keepdims=True)])
        mus = np.linspace(max(0.0, mubest - h_mu), mubest + h_mu, 25)
        pts_l = wloc @ G
        for mu in mus:
            q = pts_l.copy()
            q[:, -1] -= mu
            i = int(np.argmin(np.linalg.norm(q, axis=1)))
            val = float(np.linalg.norm(q[i]))
            if val < best:
                best, wbest, mubest = val, wloc[i], mu
        h /= 2.5
        h_mu /= 2.5
    return best


class TestHSetDistance:
    def test_single_positive_generator(self):
        assert geo.dist_origin_to_hset(np.array([[1.0, 0.0]])) == pytest.approx(1.0, abs=1e-9)

    def test_trivial_constraint_generator(self):
        # ray goes down from (0, -1); closest point is at mu = 0
        assert geo.dist_origin_to_hset(np.array([[0.0, -1.0]])) == pytest.approx(1.0, abs=1e-9)

    def test_origin_inside(self):
        assert geo.dist_origin_to_hset(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_monotone_in_generators(self, rng):
        for _ in range(30):
            G = rng.normal(size=(3, 3))
            d1 = geo.dist_origin_to_hset(G)
            G2 = np.vstack([G, rng.normal(size=3)])
            assert geo.dist_origin_to_hset(G2) <= d1 + 1e-10

    def test_against_grid_oracle(self, rng):
        """<= 4 generators in R^3, some generator with last coord >= 0."""
        done = 0
        while done < 10:
            G = rng.normal(size=(int(rng.integers(1, 5)), 3))
            if not np.any(G[:, -1] >= 0):
                continue
            val = geo.dist_origin_to_hset(G)
            ref = hset_grid_oracle(G)
            assert abs(val - ref) <= 1e-4
            done += 1


class TestInradius:
    def test_square(self):
        P = geo.Polytope(list(itertools.product([-1.0, 1.0], repeat=2)))
        r = geo.contains_origin_interior(P)
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert not r.estimated

    def test_cross_polytope(self):
        P = geo.Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert geo.contains_origin_interior(P).value == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    def test_scaled_cross(self):
        P = geo.Polytope([[2, 0], [-2, 0], [0, 2], [0, -2]])
        assert geo.contains_origin_interior(P).value == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_scaling_property(self, rng):
        for _ in range(20):
            P = geo.Polytope(rng.normal(size=(7, 2)) + np.sign(rng.normal(size=(7, 2))) * 0.8)
            r = geo.contains_origin_interior(P)
            if r is None:
                continue
            s = float(rng.uniform(0.5, 3.0))
            assert geo.contains_origin_interior(P.scaled(s)).value == pytest.approx(
                s * r.value, abs=1e-8
            )

    def test_origin_not_interior(self):
        assert geo.contains_origin_interior(geo.Polytope([[1, 1], [2, 1], [1, 2]])) is None

    @pytest.mark.parametrize("d", [1.2e-9, 1.5e-9, 2e-9])
    def test_within_tolerance_rejected(self, d):
        # inradius d/2 <= 1e-9: rejected like a probe margin <= 1e-9
        assert geo.contains_origin_interior(geo.Polytope([[1, d], [1, -d], [-1, 0]])) is None

    def test_just_past_tolerance_accepted(self):
        r = geo.contains_origin_interior(geo.Polytope([[1, 3e-9], [1, -3e-9], [-1, 0]]))
        assert r.value == pytest.approx(1.5e-9, rel=1e-12)

    @pytest.mark.parametrize("d", [5, 6])
    def test_fallback_cross_polytope(self, d):
        # above dim 4 the value is margin / sqrt(d), exact for cross-polytopes
        r = geo.contains_origin_interior(geo.Polytope(np.vstack([np.eye(d), -np.eye(d)])))
        assert r.estimated and r.value == pytest.approx(1.0 / np.sqrt(d), abs=1e-12)

    def test_fallback_is_a_lower_bound(self):
        # a regular 80-gon (k > 64): inradius cos(pi / 80), margin 1
        angles = 2.0 * np.pi * np.arange(80) / 80
        r = geo.contains_origin_interior(geo.Polytope(np.c_[np.cos(angles), np.sin(angles)]))
        assert r.estimated
        assert r.value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert r.value <= np.cos(np.pi / 80)

    def test_largest_exact_case(self, rng):
        # k = 64, d = 4: 635,376 subsets; the polar of the cross-polytope is
        # the cube [-1, 1]^4 and the interior points (l1 norm <= 0.8) cut
        # none of its vertices, so the inradius is exactly 1/2
        V = np.vstack([np.eye(4), -np.eye(4), rng.uniform(-0.2, 0.2, size=(56, 4))])
        start = time.perf_counter()
        r = geo.contains_origin_interior(geo.Polytope(V))
        assert r == (0.5, False)
        assert time.perf_counter() - start < 5.0


def loop_polar_vertices(V):
    """Vertices of {y : V y <= 1}: one solve per d-subset."""
    k, d = V.shape
    ones = np.ones(d)
    for S in itertools.combinations(range(k), d):
        try:
            y = np.linalg.solve(V[list(S)], ones)
        except np.linalg.LinAlgError:
            continue
        if np.all(V @ y <= 1.0 + 1e-9):
            yield y


def loop_inradius_best(V):
    """max ||y|| over vertices of {y : V y <= 1}."""
    return max((float(np.linalg.norm(y)) for y in loop_polar_vertices(V)), default=0.0)


def loop_hrep_vertices(rows, tol=1e-8):
    """Vertices of {x : A x >= b}, rows = [A | b]: one solve per dim-subset
    of rows, skipping subsets of numerical rank < dim; row i is checked at
    its own scale."""
    A, b = rows[:, :-1], rows[:, -1]
    dim = A.shape[1]
    scale = np.array([max(1.0, abs(bi), float(np.max(np.abs(ai)))) for ai, bi in zip(A, b)])
    verts = []
    for S in itertools.combinations(range(A.shape[0]), dim):
        try:
            x = np.linalg.solve(A[list(S)], b[list(S)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        s = np.linalg.svd(A[list(S)], compute_uv=False)
        if np.all(A @ x >= b - tol * scale) and s[-1] > 1e-12 * s[0]:
            if not any(np.linalg.norm(x - w) <= 1e-7 for w in verts):
                verts.append(x)
    return verts


class TestBatchedSubsetsMatchLoop:
    """The stacked subset solves give the bits of one solve per subset."""

    @staticmethod
    def polytopes(rng):
        for trial in range(60):
            d = int(rng.integers(1, 5))
            box = np.vstack([np.eye(d), -np.eye(d)])  # +/- e_i pairs
            V = np.vstack([box, rng.normal(size=(int(rng.integers(0, 10)), d))])
            if trial % 2:
                V = np.vstack([V, np.zeros(d)])  # the slack row's zero vertex
            if trial % 3 == 0:
                V = np.vstack([V, V[:2], V[-1:]])  # duplicate vertices
            if trial % 5 == 0:
                V = np.round(V)  # many exactly singular subsets
            yield geo.Polytope(V)

    def test_inradius(self, rng):
        """Exact where _polar certifies the vertex list.  A few 4-D sets,
        rounded or with duplicate vertices, close no ridge count and their
        boxed check is over the cap (see the FOUND entry on `_polar` in
        CHANGES.md): they get the estimate, a lower bound."""
        estimated = 0
        for P in self.polytopes(rng):
            r = geo.contains_origin_interior(P)
            want = 1.0 / loop_inradius_best(P.vertices)
            if r.estimated:
                estimated += 1
                assert P.dim == 4 and r.value <= want
            else:
                assert r.value == want
        assert estimated <= 5

    def test_hrep_vertices(self, rng):
        for trial in range(120):
            dim = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            rows = np.array([np.append(rng.normal(size=dim), rng.normal()) for _ in range(m)])
            if trial % 2:
                lo = np.column_stack([np.eye(dim), -np.ones(dim)])
                hi = np.column_stack([-np.eye(dim), -np.ones(dim)])
                rows = np.vstack([rows, lo, hi])
            if trial % 3 == 0:
                rows = np.vstack([rows, rows[:2]])  # duplicate rows
            if trial % 5 == 0:
                rows = np.round(rows)
            got = geo.enumerate_hrep_vertices(rows)
            want = loop_hrep_vertices(rows)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_hrep_fewer_rows_than_dim(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert geo.enumerate_hrep_vertices(rows) == loop_hrep_vertices(rows) == []

    def test_hrep_overflowed_solution(self):
        # the second pivot is 1e-310: the solve overflows to inf, and the
        # candidate is dropped silently, as by the loop
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 1e-310, 1.0], [0.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geo.enumerate_hrep_vertices(rows)
        want = loop_hrep_vertices(rows)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_hrep_many_candidates_at_one_vertex(self):
        """A cone over a 14-gon, capped: its apex solves all C(14, 3) = 364
        subsets of cone rows, to within rounding, so the duplicates span
        several blocks of the batched deduplication."""
        theta = 2 * np.pi * np.arange(14) / 14
        cone = np.column_stack([-np.cos(theta), -np.sin(theta), np.ones(14), np.zeros(14)])
        rows = np.vstack([cone, [0.0, 0.0, -1.0, -1.0]])
        got = geo.enumerate_hrep_vertices(rows)
        want = loop_hrep_vertices(rows)
        assert len(got) == 15
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_hrep_vertices_closer_than_the_merge_distance(self):
        # cutting the unit square's corner at x + y >= 3e-8 leaves two
        # vertices 4.2e-8 apart: they merge into the first
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, -1.0],
                         [0.0, -1.0, -1.0], [1.0, 1.0, 3e-8]])
        got = geo.enumerate_hrep_vertices(rows)
        assert len(got) == 4
        assert [x.tobytes() for x in got] == [x.tobytes() for x in loop_hrep_vertices(rows)]

    def test_hrep_all_singular(self):
        rows = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [-1.0, -1.0, -3.0], [0.0, 0.0, -1.0]])
        assert geo.enumerate_hrep_vertices(rows) == loop_hrep_vertices(rows) == []


class TestLuSolve:
    """_lu_solve calls the gufunc behind np.linalg.solve: a nonsingular
    block has np.linalg.solve's bits, a singular one is NaN exactly where
    slogdet's sign is 0, and no warning escapes.  A numpy release that
    changes the gufunc fails here before it moves any result."""

    @staticmethod
    def stacks(rng):
        for d in range(1, 5):
            box = np.vstack([np.eye(d), -np.eye(d)])  # +/- e_i pairs
            V = np.vstack([box, rng.normal(size=(5, d))])
            V = np.vstack([V, V[:2], V[-1:]])  # duplicate rows
            for W in (V, np.round(V)):  # rounded rows: many exactly singular subsets
                S = np.array(list(itertools.combinations(range(len(W)), d)))
                yield W[S], rng.normal(size=(len(S), d, 1))
        yield np.zeros((1, 1, 1)), np.ones((1, 1, 1))

    def test_stacks(self, rng):
        singular = solved = 0
        for A, B in self.stacks(rng):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                X = geo._lu_solve(A, B)
            zero = np.linalg.slogdet(A)[0] == 0
            assert (np.isnan(X).any(axis=(1, 2)) == zero).all()
            assert np.isnan(X[zero]).all()
            for a, b, x in zip(A[~zero], B[~zero], X[~zero]):
                assert x.tobytes() == np.linalg.solve(a, b).tobytes()
            singular, solved = singular + zero.sum(), solved + (~zero).sum()
        assert singular > 100 and solved > 100

    def test_one_matrix(self, rng):
        """Wolfe's call: one matrix and one right-hand side column, with the
        bits of np.linalg.solve on the vector."""
        for k in range(1, 8):
            K, b = rng.normal(size=(k, k)), rng.normal(size=k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = geo._lu_solve(K, b[:, None])[:, 0]
            assert x.tobytes() == np.linalg.solve(K, b).tobytes()
        assert np.isnan(geo._lu_solve(np.ones((2, 2)), np.ones((2, 1)))).all()


class TestSubsetTable:
    def test_rows_are_combinations(self):
        for k, d in itertools.product(range(13), range(1, 5)):
            T = geo._subset_table(k, d)
            assert T.shape == (math.comb(k, d), d)
            assert T.tolist() == [list(S) for S in itertools.combinations(range(k), d)]

    def test_read_only(self):
        T = geo._subset_table(6, 3)
        with pytest.raises(ValueError):
            T[0, 0] = 5
        assert geo._subset_table(6, 3) is T

    def test_large_tables_not_cached(self, rng):
        """The input of test_largest_exact_case: C(64, 4) = 635,376 subsets
        stream in blocks, and no table enters the cache."""
        V = np.vstack([np.eye(4), -np.eye(4), rng.uniform(-0.2, 0.2, size=(56, 4))])
        geo._subset_table.cache_clear()
        assert geo.contains_origin_interior(geo.Polytope(V)) == (0.5, False)
        assert geo._subset_table.cache_info().currsize == 0

    def test_streamed_blocks_match_the_table(self, rng, monkeypatch):
        """With the bound lowered, the same inputs stream in blocks of 7
        instead of reading the cached table, with the same output bytes."""
        for P in TestBatchedSubsetsMatchLoop.polytopes(rng):
            W = P.vertices[P.vertices.any(axis=1)]
            want = geo._polar_vertices(W)
            with monkeypatch.context() as m:
                m.setattr(geo, "_SUBSET_BLOCK", 7)
                got = geo._polar_vertices(W)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Z- of a degenerate benchmark instance (constants-sweep generator, seed 6,
# item 1467, slack row appended, rows canonicalised): +/- e_i, the slack
# row's zero vertex, eight uncertain rows and -c.  Its true margin is 1 and
# its inradius 1/2; a convex-combination probe LP misread three of its eight
# directions and rejected it.
DEGENERATE_ZMINUS = [
    [-1.0, 0.0, 0.0, 0.0],
    [-0.4180416769848775, 0.2639466115581165, -0.9321791835840731, -0.3367509506406745],
    [-0.13072618601517255, 0.7797229011732361, 0.15877670079036119, -0.5129238667051501],
    [-0.12794232935357658, -0.43360213722363333, 0.6856998156856458, 0.6592353214103803],
    [-0.12425564333758368, 0.7665222399663687, 0.17201705905020637, -0.5757195102414432],
    [-0.040711449661847254, -0.2409634917933486, 0.6597190423772796, 0.7983288358619322],
    [0.0, -1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.012729952160493968, 0.9104679279158303, 0.2165396724677046, -0.5617424602333951],
    [0.05626750542619466, -0.3931063175524927, 0.7008520615513407, 0.6622222885143186],
    [0.10232680500131494, 1.0039342915933915, 0.20101391124517962, -0.555906657078542],
    [1.0, 0.0, 0.0, 0.0],
    [-1.5333462995161133, 0.08581838820042374, -0.23495699218093252, -1.034590390105616],
]


class TestContainsOriginInterior:
    def test_degenerate_zminus(self):
        P = geo.Polytope(DEGENERATE_ZMINUS)
        assert abs(polar_margin(P)[0] - 1.0) <= 1e-12
        assert geo.contains_origin_interior(P) == (0.5, False)

    def test_degenerate_zminus_convex_combination_lp(self):
        # The convex-combination form of the same probe: max r s.t.
        # W' lam = r * dir, sum lam = 1, lam >= 0, r <= cap.  Its rows with
        # rhs 1 need phase 1, and every direction has optimum r = 1.
        W = np.array(DEGENERATE_ZMINUS)
        k, d = W.shape
        r_cap = float(np.max(np.linalg.norm(W, axis=1))) + 1.0
        cost = np.zeros(k + 1)
        cost[-1] = -1.0
        ones = np.append(np.ones(k), 0.0)
        for i, s in itertools.product(range(d), (1.0, -1.0)):
            rows = []
            for j in range(d):
                row = np.append(W[:, j], -s * (i == j))
                rows += [row, -row]
            rows += [ones, -ones, *np.eye(k, k + 1), cost]
            rhs = [0.0] * (2 * d) + [1.0, -1.0] + [0.0] * k + [-r_cap]
            res = lp.solve(lp.LinearProgram(cost, np.array(rows), np.array(rhs)))
            assert res.status == lp.OPTIMAL
            assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_margin_is_polar_bound(self, rng):
        # margin = min over +/- e_i of 1 / max <+/- e_i, y> on the polar body
        cases = list(TestBatchedSubsetsMatchLoop.polytopes(rng))
        for _ in range(60):
            d = int(rng.integers(1, 5))
            Q = rng.normal(size=(d, d))  # rows and negatives span R^d positively
            V = np.vstack([Q, -Q * rng.uniform(0.2, 2.0, size=(d, 1))])
            extra = rng.normal(size=(int(rng.integers(0, 8)), d))
            cases.append(geo.Polytope(np.vstack([V, extra])))
        for P in cases:
            assert geo.contains_origin_interior(P) is not None
            want = 1.0 / max(np.max(np.abs(y)) for y in loop_polar_vertices(P.vertices))
            assert polar_margin(P)[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_square(self):
        P = geo.Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        assert geo.contains_origin_interior(P).value >= 0.999
        assert polar_margin(P)[0] >= 0.999

    def test_lower_dimensional(self):
        assert geo.contains_origin_interior(geo.Polytope([[0, 0], [1, 0]])) is None

    def test_origin_outside(self):
        assert geo.contains_origin_interior(geo.Polytope([[1, 1], [2, 1], [1, 2]])) is None


def polar_margin(P):
    """(margin, Y, complete): _polar's vertex list Y for P's nonzero
    vertices, whether _polar certifies it, and the probe margin read off it,
    min over +/- e_i of 1 / max <+/- e_i, y> (0.0 where a maximum is <= 0)."""
    Y, complete = geo._polar(P.vertices[P.vertices.any(axis=1)])
    tops = [float(np.max(s * Y[:, i], initial=0.0)) for i in range(P.dim) for s in (1.0, -1.0)]
    return (1.0 / max(tops) if min(tops) > 0.0 else 0.0), Y, complete


def lp_probe(P):
    """The probe as 2n LPs on the polar system, one per direction +/- e_i:
    (inside, margin) with margin the smallest 1 / max{<d, y> : V y <= 1}."""
    margin = np.inf
    for i in range(P.dim):
        for s in (1.0, -1.0):
            cost = np.zeros(P.dim)
            cost[i] = -s
            res = lp.solve(lp.LinearProgram(cost, -P.vertices, -np.ones(len(P.vertices))))
            if res.status != lp.OPTIMAL or -1.0 / res.value <= 1e-9:
                return False, 0.0
            margin = min(margin, -1.0 / res.value)
    return True, margin


class TestPolarProbe:
    """contains_origin_interior from the polar pass agrees with the LPs."""

    @staticmethod
    def polytopes(rng):
        yield from TestBatchedSubsetsMatchLoop.polytopes(rng)  # zero rows, duplicates, rounding
        for trial in range(80):
            d = int(rng.integers(1, 5))
            V = rng.normal(size=(int(rng.integers(1, 12)), d))
            if trial % 4 == 1:
                V = V + 2.0 * rng.normal(size=d)  # origin often outside
            if trial % 4 == 2 and d > 1:
                V[:, -1] = 0.0  # lower-dimensional
            if trial % 4 == 3:
                V = np.vstack([V, -V * rng.uniform(0.2, 2.0, size=(len(V), 1))])
                V = np.vstack([V, V[:3], np.zeros((1, d))])
            if trial % 5 == 0:
                V = np.round(V)
            yield geo.Polytope(V)
        for d in (1.2e-9, 1.5e-9, 2e-9, 3e-9):
            yield geo.Polytope([[1, d], [1, -d], [-1, 0]])
        yield geo.Polytope(DEGENERATE_ZMINUS)

    def test_agrees_with_lp_probe(self, rng):
        """A certified polar list gives the LPs' margins; the inradius is
        1 / its largest norm there and margin / sqrt(dim) elsewhere, and it
        is None exactly when the LPs reject the origin or it is <= 1e-9."""
        verdicts = set()
        for P in self.polytopes(rng):
            r = geo.contains_origin_interior(P)
            want_inside, want_margin = lp_probe(P)
            margin, Y, exact = polar_margin(P)
            if exact:
                # lp_probe reads a margin <= 1e-9 as 0.0
                assert margin == pytest.approx(want_margin, rel=1e-12, abs=0.0) or (
                    not want_inside and margin <= 1e-9
                )
                want = 1.0 / np.linalg.norm(Y, axis=1).max()
            else:
                want = want_margin / np.sqrt(P.dim)
            if r is None:
                assert not want_inside or want <= 1e-9
            else:
                assert want_inside and r.estimated == (not exact)
                assert r.value == pytest.approx(want, rel=1e-12, abs=0.0)
            verdicts.add(r is not None)
        assert verdicts == {True, False}

    def test_certified_without_lp(self, rng, lp_solve_calls):
        # a centrally symmetric set in general position is simplicial, so
        # _polar certifies it by the ridge count and no probe LP runs
        for _ in range(30):
            d = int(rng.integers(1, 5))
            V = rng.normal(size=(int(rng.integers(2 * d, 12)), d))
            P = geo.Polytope(np.vstack([V, -V]))
            assert geo.contains_origin_interior(P) is not None
        assert lp_solve_calls[0] == 0

    def test_dropped_farthest_vertex(self, rng, monkeypatch, lp_solve_calls):
        """Without its farthest polar vertex (a simulated rounding loss) a
        14-point 3-D Z- closes no ridge count and fails the boxed check, so
        every direction is an LP and d_z the estimate, below the true value;
        the vertices left would read a larger one."""
        P = geo.Polytope(np.vstack([cross_polytope(3), rng.normal(size=(8, 3))]))
        true = geo.contains_origin_interior(P)
        assert not true.estimated
        real = geo._polar_vertices

        def dropped(W):
            Y = real(W)
            far = np.linalg.norm(Y, axis=1)
            return Y[far < far.max() - 1e-9]

        monkeypatch.setattr(geo, "_polar_vertices", dropped)
        assert not geo._polar(P.vertices)[1]
        assert 1.0 / np.linalg.norm(dropped(P.vertices), axis=1).max() > true.value
        lp_solve_calls[0] = 0
        r = geo.contains_origin_interior(P)
        assert r.estimated and r.value <= true.value
        assert lp_solve_calls[0] == 6

    def test_boxed_check_without_lp(self, lp_solve_calls, hrep_enumerations):
        """A cube Z- (four vertices on each facet) and a cross-polytope with
        repeated vertices close no ridge count; the boxed check certifies
        their polar vertices, and no probe direction needs its LP."""
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        repeated = np.vstack([cross_polytope(3), cross_polytope(3)[:3]])
        for V, want in ((cube, 1.0), (repeated, 1.0 / np.sqrt(3.0))):
            assert not geo._ridges_close(V @ geo._polar_vertices(V).T, 3)
            hrep_enumerations[0] = 0
            assert geo._polar(V)[1] and hrep_enumerations[0] == 1
            r = geo.contains_origin_interior(geo.Polytope(V))
            assert not r.estimated and r.value == pytest.approx(want, abs=1e-12)
        assert lp_solve_calls[0] == 0

    def test_polar_of_flat_set(self):
        # a line through the origin: every 2-subset is singular, no polar
        # vertex, nothing certified, and the LPs reject the origin
        V = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0]])
        Y, complete = geo._polar(V)
        assert Y.shape == (0, 2) and not complete
        assert geo.contains_origin_interior(geo.Polytope(np.vstack([V, np.zeros(2)]))) is None


class TestHalfspacesAndVertices:
    UNIT_SQUARE = np.array([
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, -1.0],
    ])

    def test_projection(self):
        q, d = dykstra.project_onto_halfspaces([2.0, 2.0], self.UNIT_SQUARE)
        assert q == pytest.approx([1.0, 1.0], abs=1e-8)
        assert d == pytest.approx(np.sqrt(2), abs=1e-8)

    def test_projection_inside(self):
        q, d = dykstra.project_onto_halfspaces([0.5, 0.5], self.UNIT_SQUARE)
        assert d == 0.0

    def test_vertex_enumeration(self):
        verts = geo.enumerate_hrep_vertices(self.UNIT_SQUARE)
        got = sorted(tuple(np.round(v, 9)) for v in verts)
        assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_vertex_enumeration_per_row_tolerance(self):
        """x >= -6e-8 comes first and meets y >= 0 at a point infeasible for
        x >= 0 by 6e-8.  With one tolerance scaled by the row of 100s that
        point passed and displaced the vertex (0, 0) in the 1e-7 merge."""
        rows = np.vstack([[1.0, 0.0, -6e-8], self.UNIT_SQUARE, [100.0, 100.0, -100.0]])
        verts = geo.enumerate_hrep_vertices(rows)
        assert sorted(tuple(v) for v in verts) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        assert [v.tobytes() for v in verts] == [v.tobytes() for v in loop_hrep_vertices(rows)]

    def test_vertex_enumeration_matches_projection(self, rng):
        """Distances to an H-polytope agree whether computed via Dykstra or
        via projection onto the enumerated-vertex hull."""
        for _ in range(10):
            c = rng.normal(size=2)
            rows = np.vstack([self.UNIT_SQUARE, np.append(c, c @ [0.5, 0.5] - 0.3)])
            verts = geo.enumerate_hrep_vertices(rows)
            if len(verts) < 3:
                continue
            hull = geo.Polytope(np.array(verts))
            p = rng.normal(size=2) * 2
            _, d1 = dykstra.project_onto_halfspaces(p, rows)
            _, d2 = geo.project_onto_polytope(p, hull)
            assert abs(d1 - d2) <= 1e-6


class TestPolytopeBasics:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            geo.Polytope([[np.nan, 0.0]])


def hrep_vertices(F):
    """Vertices of {x : N (x - c) <= off} by enumerate_hrep_vertices."""
    d = len(F.center)
    rows = np.array([np.append(-n, -(o + n @ F.center)) for n, o in zip(F.normals, F.offsets)])
    return np.array(geo.enumerate_hrep_vertices(rows)).reshape(-1, d)


def cross_polytope(d):
    return np.vstack([np.eye(d), -np.eye(d)])


class TestFacets:
    """facets(P) describes conv(P) exactly, or returns None.  Simplicial
    lists are certified by their ridge count, with no enumeration; the
    others by enumerating the boxed H-polytope."""

    @pytest.fixture(autouse=True)
    def count_enumerations(self, hrep_enumerations):
        self.enumerations = hrep_enumerations

    def listed(self, V, ridge):
        """facets(V), checked to have taken the ridge path (no enumeration)
        or the fallback (one)."""
        self.enumerations[0] = 0
        F = geo.facets(geo.Polytope(V))
        assert self.enumerations[0] == (0 if ridge else 1)
        return F

    def assert_describes(self, V, extreme, ridge):
        """Every vertex meets every facet row; the H-vertices are the rows of
        `extreme` (the extreme points of V); points of V not in `extreme`
        are strictly inside."""
        F = self.listed(V, ridge)
        assert F is not None
        assert np.allclose(np.linalg.norm(F.normals, axis=1), 1.0)
        assert F.center.tobytes() == V.mean(axis=0).tobytes()
        assert F.scale == max(1.0, F.offsets.max())
        slack = F.normals @ (V - F.center).T - F.offsets[:, None]
        assert slack.max() <= 1e-9 * F.scale
        X = hrep_vertices(F)
        assert len(X) == len(extreme)
        gaps = np.linalg.norm(X[:, None, :] - extreme[None, :, :], axis=2)
        assert gaps.min(axis=0).max() <= 1e-9 and gaps.min(axis=1).max() <= 1e-9
        return F

    def test_square(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        F = self.assert_describes(square, square, ridge=True)
        assert len(F.normals) == 4

    def test_cube(self):
        cube = np.array(list(itertools.product([0.0, 2.0], repeat=3)))
        F = self.assert_describes(cube, cube, ridge=False)
        assert len(F.normals) == 6  # each facet's polar vertex once

    def test_square_pyramid(self):
        """Four vertices on the base facet: the fallback lists it."""
        base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        V = np.vstack([base, [[0.5, 0.5, 1.0]]])
        F = self.assert_describes(V, V, ridge=False)
        assert len(F.normals) == 5

    def test_collinear_boundary_point(self):
        """A point inside an edge puts three vertices on that facet."""
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        F = self.assert_describes(np.vstack([square, [[0.5, 0.0]]]), square, ridge=False)
        assert len(F.normals) == 4

    def test_vertex_in_tie_band(self):
        """A point within the tie band of an edge, but not on it, is neither
        tight nor clear of it: the fallback decides."""
        triangle = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        for depth in (1e-8, 1e-7):
            V = np.vstack([triangle, [[1.5, depth]]])
            F = self.assert_describes(V, triangle, ridge=False)
            assert len(F.normals) == 3
        # deeper than the band, the same set is certified by its ridges
        self.assert_describes(np.vstack([triangle, [[1.5, 1e-4]]]), triangle, ridge=True)

    def test_ridge_count(self):
        """_ridges_close on 0/1 incidence matrices: a triangle's three edges
        close; one edge missing or listed twice, or the whole triangle twice
        (each vertex on four edges), do not."""
        def incidence(edges):
            G = np.zeros((3, len(edges)))
            for f, ends in enumerate(edges):
                G[list(ends), f] = 1.0
            return G
        edges = [(0, 1), (1, 2), (0, 2)]
        assert geo._ridges_close(incidence(edges), 2)
        for bad in (edges[:2], edges + edges[:1], edges + edges):
            assert not geo._ridges_close(incidence(bad), 2)

    @pytest.mark.parametrize("d, count", [(2, 4), (3, 8), (4, 16)])
    def test_cross_polytope(self, d, count):
        """Simplicial, though each vertex lies on 2^(d-1) facets."""
        V = cross_polytope(d)
        F = self.assert_describes(V, V, ridge=True)
        assert len(F.normals) == count

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_hulls_with_interior_points(self, rng, d):
        for _ in range(10):
            outer = 3.0 * cross_polytope(d) + 0.2 * rng.normal(size=(2 * d, d))
            inner = rng.dirichlet(np.ones(2 * d), size=4) @ outer
            V = np.vstack([outer, inner])[rng.permutation(2 * d + 4)]
            F = self.assert_describes(V, outer, ridge=True)
            slack = F.normals @ (inner - F.center).T - F.offsets[:, None]
            assert slack.max(axis=0).max() < 0.0

    def test_membership_matches_projection(self, rng):
        """Away from the facet hyperplanes, the facet test and Wolfe agree."""
        for d in (2, 3):
            for _ in range(10):
                P = geo.Polytope(rng.normal(size=(6, d)))
                F = geo.facets(P)
                for t in 1.5 * rng.normal(size=(30, d)):
                    s = (F.normals @ (t - F.center) - F.offsets).max()
                    inside = geo.project_onto_polytope(t, P)[1] <= 1e-9
                    assert abs(s) <= 1e-6 or (s < 0) == inside

    def test_none_cases(self):
        cases = [
            [[1.0, 2.0]],  # one vertex
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]],  # planar in 3-D
            [[0.0, 0.0], [1.0, 0.0]],  # k <= dim
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],  # k <= dim
            np.vstack([np.zeros(5), np.eye(5), -np.eye(5)]),  # dim 5
        ]
        for V in cases:
            assert geo.facets(geo.Polytope(V)) is None

    def test_edge_shared_by_four_facets(self, rng):
        """Four facets of a perturbed 4-D cross-polytope share each edge; the
        singular subset of their rows gives no point in assert_describes'
        enumeration."""
        V = cross_polytope(4) + 1e-3 * rng.normal(size=(8, 4))
        F = self.assert_describes(V, V, ridge=True)
        assert len(F.normals) == 16

    @pytest.mark.parametrize("k, listed", [(24, True), (40, False), (64, False)])
    def test_subset_cap(self, rng, k, listed):
        """4-D sets with dozens of vertices.  A simplex and k - 5 inner points
        (five facets) are listed; beyond k = 24 C(k, 4) is over the cap, and
        k points on the sphere are given up at once."""
        if listed:
            simplex = np.vstack([np.eye(4), -np.ones(4) / 4])
            V = np.vstack([simplex, rng.dirichlet(np.ones(5), size=k - 5) @ simplex])
        else:
            V = rng.normal(size=(k, 4))
            V /= np.linalg.norm(V, axis=1)[:, None]
        self.enumerations[0] = 0
        start = time.perf_counter()
        F = geo.facets(geo.Polytope(V))
        assert time.perf_counter() - start < 0.5
        assert self.enumerations[0] == 0  # no boxed enumeration either way
        assert (F is not None) == listed
        if listed:
            self.assert_describes(V, simplex, ridge=True)

    def test_sphere_points_listed_by_ridges(self, rng):
        """24 points on the 4-D sphere fit the polar enumeration's cap, and
        their hull's about 100 simplicial facets are listed by the ridge
        count within the cap test's 0.5 s; the boxed enumeration, which
        would run into the millions of subsets, is spared."""
        V = rng.normal(size=(24, 4))
        V /= np.linalg.norm(V, axis=1)[:, None]
        start = time.perf_counter()
        F = self.listed(V, ridge=True)
        assert time.perf_counter() - start < 0.5
        assert_brute_force_facets(F, V)

    def test_dropped_polar_vertex(self, rng, monkeypatch):
        """A facet missing from the polar enumeration fails the ridge count
        and then the boxed check, also where the rest would leave the
        H-polytope unbounded."""
        polytopes = [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])]
        polytopes += [rng.normal(size=(7, d)) for d in (2, 3, 4) for _ in range(3)]
        real = geo._polar_vertices
        for V in polytopes:
            assert self.listed(V, ridge=True) is not None
            Y = np.unique(real(V - V.mean(axis=0)).round(9), axis=0)
            for drop in range(3):
                monkeypatch.setattr(
                    geo, "_polar_vertices",
                    lambda W: real(W)[(np.abs(real(W) - Y[drop]) > 1e-8).any(axis=1)],
                )
                assert self.listed(V, ridge=False) is None
            monkeypatch.setattr(geo, "_polar_vertices", real)


def assert_brute_force_facets(F, V):
    """F lists the hyperplanes through d points of V that have all of V on
    one side, each once: conv(V)'s facets when every one is a simplex.
    Independent of the polar enumeration and the ridge count."""
    k, d = V.shape
    S = np.array(list(itertools.combinations(range(k), d)))
    # (normal, -offset) spans the null space of the rows [v | 1], v in S
    h = np.linalg.svd(np.concatenate([V[S], np.ones((len(S), d, 1))], axis=2))[2][:, -1]
    h /= np.linalg.norm(h[:, :d], axis=1)[:, None]
    side = V @ h[:, :d].T + h[:, d]
    h = np.vstack([h[side.max(axis=0) <= 1e-9], -h[side.min(axis=0) >= -1e-9]])
    listed = np.column_stack([F.normals, -(F.offsets + F.normals @ F.center)])
    assert len(h) == len(listed)
    assert np.abs(h[:, None, :] - listed).max(axis=2).min(axis=1).max() <= 1e-9


class TestMinNormPointExits:
    """The gap g = <x, x> - min_j <x, p_j> of x at each of min_norm_point's
    three exits; only the certified one tests it."""

    @staticmethod
    def gap(P, x):
        dots = P @ x
        return x @ x - dots.min(), int(dots.argmin())

    def test_certified(self):
        P = np.array([[1.0, -1.0], [1.0, 1.0], [3.0, 0.0]])
        x, _ = geo.min_norm_point(P)
        assert self.gap(P, x)[0] <= geo._MNP_GAP_TOL * 9.0

    def test_no_progress(self):
        """From x = p0 = (1, 0) the step toward p1 lowers <x, x> by about
        1.6e-17, below the rounding of 1.0, so the cycle makes no progress
        and x is returned with p2's gap untested (scale is about 2)."""
        P = np.array([[1.0, 0.0], [1.0 - 4e-9, 1.0], [1.0 - 3e-9, -1.0]])
        scale = (P * P).sum(axis=1).max()
        x, w = geo.min_norm_point(P)
        g, j = self.gap(P, x)
        assert g > geo._MNP_GAP_TOL * scale  # not the certified exit
        assert w[j] == 0.0  # p_j is not active: not the stall
        # Known defect (ROADMAP item 3): this exit may return a gap over the
        # tolerance; bound it, as certified distance intervals would.
        assert g <= 1e-8 * scale

    def test_stall(self, monkeypatch):
        """An affine minimizer off by 1e-6 leaves x = (1, -2e-6) on the
        segment, and the active p1 minimizes <x, p_j>: the stall exit
        returns x with its gap untested."""
        real = geo._affine_minimizer
        monkeypatch.setattr(geo, "_affine_minimizer", lambda B: real(B) + [1e-6, -1e-6])
        P = np.array([[1.0, -1.0], [1.0, 1.0]])
        x, w = geo.min_norm_point(P)
        g, j = self.gap(P, x)
        assert w[j] > 0.0  # p_j is active: the stall
        # Known defect (ROADMAP item 3): the gap is the minimizer's error,
        # over the tolerance; bound it by that error, |x - (1, 0)| <= 2e-6.
        assert geo._MNP_GAP_TOL * 2.0 < g <= 1e-5


class TestIterationLimits:
    """A solver loop that runs out raises instead of returning its iterate."""

    def test_min_norm_point(self, monkeypatch):
        P = np.array([[1.0, -1.0], [1.0, 1.0], [3.0, 0.0]])  # needs two cycles
        monkeypatch.setattr(geo, "_MNP_MAX_ITER", 2)
        assert geo.min_norm_point(P)[0] == pytest.approx([1.0, 0.0])
        monkeypatch.setattr(geo, "_MNP_MAX_ITER", 1)
        with pytest.raises(IterationLimitError):
            geo.min_norm_point(P)

    def test_project_onto_halfspaces(self, monkeypatch):
        rows = TestHalfspacesAndVertices.UNIT_SQUARE
        monkeypatch.setattr(dykstra, "MAX_SWEEPS", 2)
        assert dykstra.project_onto_halfspaces([2.0, 2.0], rows)[1] == pytest.approx(np.sqrt(2))
        monkeypatch.setattr(dykstra, "MAX_SWEEPS", 1)
        with pytest.raises(IterationLimitError):
            dykstra.project_onto_halfspaces([2.0, 2.0], rows)

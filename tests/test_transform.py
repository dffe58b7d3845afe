import numpy as np
import pytest

from robust_stability import transform as tf
from robust_stability.errors import DimensionMismatchError, IndexMismatchError
from robust_stability.geometry import Polytope, facets, hausdorff, project_onto_polytope
from robust_stability.model import RobustProblem, constraintwise_distance

from conftest import random_feasible_instance, random_polytope, shifted_instance


def unit_square():
    return Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


LEAN_PLAN = tf.SamplePlan(seed=3, counts=(10, 10, 10, 10))


class TestEvalSigma:
    def test_inside_u(self):
        U = unit_square()
        V = U.translated([3.0, 0.0])
        t = np.array([0.5, 0.5])
        out = tf.eval_sigma_uv(t, U, V, b=-1.0, rho=0.7)
        assert out == pytest.approx([0.5, 0.5, -1.0], abs=1e-9)

    def test_in_v_only_projects(self):
        U = unit_square()
        V = U.translated([3.0, 0.0])
        t = np.array([3.5, 0.5])
        out = tf.eval_sigma_uv(t, U, V, b=-1.0, rho=0.7)
        assert out == pytest.approx([1.0, 0.5, -1.0], abs=1e-7)

    def test_outside_both_is_trivial_row(self):
        U = unit_square()
        V = U.translated([3.0, 0.0])
        t = np.array([10.0, 10.0])
        out = tf.eval_sigma_uv(t, U, V, b=-1.0, rho=0.7)
        assert out == pytest.approx([0.0, 0.0, -0.7], abs=1e-12)

    def test_rho_must_be_positive(self):
        U = unit_square()
        with pytest.raises(ValueError):
            tf.eval_sigma_uv(np.zeros(2), U, U, b=0.0, rho=0.0)

    def test_multi_cases(self):
        """Stacked (t, s) rows through the sampler's path: _classify, then
        _sigma_cached."""
        U = unit_square()
        V = U.translated([3.0, 0.0])

        def sigma(ts):
            ts = np.array(ts)
            in_u, in_v, proj_u, _ = tf._classify(ts, U, V)
            return tf._sigma_cached(ts, in_u, in_v, proj_u, 0.7)

        assert sigma([0.5, 0.5]) == pytest.approx([0.5, 0.5])
        assert sigma([3.5, 0.5]) == pytest.approx([1.0, 0.5], abs=1e-7)
        assert sigma([9.0, 9.0]) == pytest.approx([0.0, -0.7])


def eager_sample_index_points(U, V, plan):
    """The sampler with both projections made for every point: the
    reference the lazy sampler must match bit for bit."""

    def classify(t):
        proj_u, du = project_onto_polytope(t, U)
        proj_v, dv = project_onto_polytope(t, V)
        for d in (du, dv):
            if tf._MEMBERSHIP_TOL < d <= tf._MEMBERSHIP_TOL + tf._AMBIGUITY_BAND:
                return None
        return du <= tf._MEMBERSHIP_TOL, dv <= tf._MEMBERSHIP_TOL, proj_u, proj_v

    rng = np.random.default_rng(plan.seed)
    out = []
    for v in list(U.vertices) + list(V.vertices):
        cls = classify(v)
        if cls is not None:
            out.append((v, *cls))
    all_v = np.vstack([U.vertices, V.vertices])
    lo = all_v.min(axis=0) - plan.box_margin
    hi = all_v.max(axis=0) + plan.box_margin
    want = list(plan.counts)
    got = [0, 0, 0, 0]
    stall = 0
    while any(g < w for g, w in zip(got, want)) and stall < 200:
        mode = rng.integers(0, 3)
        if mode == 0:
            t = U.vertices.T @ rng.dirichlet(np.ones(U.vertices.shape[0]))
        elif mode == 1:
            t = V.vertices.T @ rng.dirichlet(np.ones(V.vertices.shape[0]))
        else:
            t = rng.uniform(lo, hi)
        cls = classify(t)
        if cls is None:
            stall += 1
            continue
        in_u, in_v = cls[0], cls[1]
        region = 0 if (in_u and in_v) else 1 if in_u else 2 if in_v else 3
        if got[region] < want[region]:
            got[region] += 1
            stall = 0
            out.append((t, *cls))
        else:
            stall += 1
    return out


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestLazySamplerMatchesEager:
    """The sampler skips projections whose answer is known; every point,
    membership and read projection must be the eager sampler's."""

    def assert_same(self, U, V, plan):
        lazy = tf._sample_index_points(U, V, plan)
        eager = eager_sample_index_points(U, V, plan)
        assert len(lazy) == len(eager)
        for (t, in_u, in_v, pu, pv), (t0, in_u0, in_v0, pu0, pv0) in zip(lazy, eager):
            assert bits(t) == bits(t0)
            assert (in_u, in_v) == (in_u0, in_v0)
            if in_v and not in_u:  # sigma_{U;V} reads proj_u
                assert bits(pu) == bits(pu0)
            if in_u and not in_v:  # sigma_{V;U} reads proj_v
                assert bits(pv) == bits(pv0)
        return lazy

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_pairs(self, rng, dim):
        for seed in range(8):
            U = random_polytope(rng, dim, max_vertices=6)
            V = random_polytope(rng, dim, max_vertices=6, center=0.4 * rng.normal(size=dim))
            self.assert_same(U, V, tf.SamplePlan(seed=seed, counts=(5, 5, 5, 5)))

    def test_translates(self, rng):
        for seed in range(6):
            U = random_polytope(rng, 2 + seed % 2, max_vertices=6)
            V = U.translated(0.5 * rng.normal(size=U.dim))
            self.assert_same(U, V, tf.SamplePlan(seed=seed, counts=(5, 5, 5, 5)))

    def test_disjoint_sets_reach_stall_cutoff(self):
        U = unit_square()
        V = U.translated([3.0, 0.0])
        out = self.assert_same(U, V, LEAN_PLAN)
        assert not any(in_u and in_v for _, in_u, in_v, _, _ in out)

    def test_nested_sets(self):
        U = unit_square().scaled(0.5).translated([0.25, 0.25])
        self.assert_same(U, unit_square(), LEAN_PLAN)
        self.assert_same(unit_square(), U, LEAN_PLAN)

    def test_identical_sets(self, rng):
        U = random_polytope(rng, 3, max_vertices=6)
        self.assert_same(U, U, LEAN_PLAN)
        self.assert_same(U, Polytope(U.vertices.copy()), LEAN_PLAN)

    def test_one_vertex_sets(self):
        point = Polytope([[0.5, 0.5]])
        self.assert_same(point, unit_square(), LEAN_PLAN)
        self.assert_same(unit_square(), point, LEAN_PLAN)
        self.assert_same(point, point, LEAN_PLAN)
        self.assert_same(point, Polytope([[2.0, 0.0]]), LEAN_PLAN)


class TestClassifyWithFacets:
    """Memberships read off the facets are the projections' answers; points
    within the facet band are projected, and so is the one point sigma reads."""

    @pytest.fixture
    def projected(self, monkeypatch):
        """Names of the sets ("U", "V") _classify projects onto, in order."""
        log, real = [], tf.project_onto_polytope
        def recording(t, P):
            log.append("U" if P is self.U else "V")
            return real(t, P)
        monkeypatch.setattr(tf, "project_onto_polytope", recording)
        return log

    def classify(self, projected, t, home=None):
        """_classify with the facets, checked against _classify without."""
        t = np.asarray(t, dtype=float)
        projected.clear()
        got = tf._classify(t, self.U, self.V, home, hreps=(facets(self.U), facets(self.V)))
        calls = list(projected)
        want = tf._classify(t, self.U, self.V, home)
        assert got[:2] == want[:2]
        if got[1] and not got[0]:
            assert bits(got[2]) == bits(want[2])
        if got[0] and not got[1]:
            assert bits(got[3]) == bits(want[3])
        return got[:2], calls

    def test_far_from_facets(self, projected):
        self.U, self.V = unit_square(), unit_square().translated([3.0, 0.0])
        assert self.classify(projected, [0.5, 0.5]) == ((True, False), ["V"])
        assert self.classify(projected, [3.5, 0.5]) == ((False, True), ["U"])
        assert self.classify(projected, [9.0, 9.0]) == ((False, False), [])

    def test_edge_midpoints(self, projected):
        self.U, self.V = unit_square(), unit_square().translated([3.0, 0.0])
        for t in ([0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]):
                assert self.classify(projected, t) == ((True, False), ["U", "V"])
        assert self.classify(projected, [3.5, 1.0]) == ((False, True), ["V", "U"])

    def test_vertex_on_a_facet(self, projected):
        self.U = unit_square()
        self.V = Polytope([[1.0, 0.5], [2.0, 0.0], [2.0, 1.0]])
        assert self.classify(projected, self.V.vertices[0], home=1) == ((True, True), ["U"])
        assert self.classify(projected, self.V.vertices[1], home=1) == ((False, True), ["U"])


class TestVerifyTransformDistance:
    def test_identical_sets(self):
        U = unit_square()
        rep = tf.verify_transform_distance(U, U, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed
        assert rep.measured == 0.0 and rep.bound == 0.0

    def test_translated_square(self):
        U = unit_square()
        V = U.translated([0.25, 0.0])
        rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed
        assert rep.bound == pytest.approx(0.25, abs=1e-9)
        assert abs(rep.measured - rep.bound) <= 1e-6

    def test_nested_sets(self):
        U = unit_square()
        V = U.scaled(0.5)  # corner-anchored shrink
        rep = tf.verify_transform_distance(U, V, b=0.0, rho=1.0, plan=LEAN_PLAN)
        assert rep.passed
        assert rep.bound == pytest.approx(hausdorff(U, V), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tf.verify_transform_distance(
                unit_square(), Polytope([[0.0], [1.0]]), b=0.0, rho=1.0
            )

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            tf.verify_transform_distance(unit_square(), unit_square(), b=0.0, rho=rho)

    def test_random_pairs(self, rng):
        for _ in range(20):
            U = random_polytope(rng, 2, max_vertices=5)
            V = random_polytope(rng, 2, max_vertices=5)
            rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
            assert rep.passed, rep.to_dict()
            assert abs(rep.measured - hausdorff(U, V)) <= 1e-6

    def test_sample_sup_monotone_in_plan(self, rng):
        """More samples can only raise the measured sup (vertices included
        either way, so both already equal the true value)."""
        U = random_polytope(rng, 2, max_vertices=6)
        V = random_polytope(rng, 2, max_vertices=6)
        small = tf.verify_transform_distance(
            U, V, b=0.0, rho=1.0, plan=tf.SamplePlan(seed=5, counts=(2, 2, 2, 2))
        )
        large = tf.verify_transform_distance(
            U, V, b=0.0, rho=1.0, plan=tf.SamplePlan(seed=5, counts=(30, 30, 30, 30))
        )
        assert large.measured >= small.measured - 1e-12

    def test_symmetry(self, rng):
        U = random_polytope(rng, 2)
        V = random_polytope(rng, 2)
        r1 = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        r2 = tf.verify_transform_distance(V, U, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert r1.bound == r2.bound
        assert abs(r1.measured - r2.measured) <= 1e-6

    def test_determinism(self, rng):
        U = random_polytope(rng, 2)
        V = random_polytope(rng, 2)
        r1 = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        r2 = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert r1.measured == r2.measured
        assert r1.context["samples"] == r2.context["samples"]


    def test_wolfe_calls(self, min_norm_point_calls):
        """Pinned Wolfe count of one fixed check.  Projecting every point onto
        both sets and every vertex of U and V onto the other set took 144;
        deciding every membership by projection took 89."""
        U = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 1.5]])
        V = U.translated([0.5, 0.25])
        rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed and rep.context["samples"] == 50
        assert min_norm_point_calls[0] == 35


class TestVerifyTransformDistanceMulti:
    def test_shifted_instance(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rpV = shifted_instance(rp, rng, 0.05)
        rep = tf.verify_transform_distance_multi(rp, rpV, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed
        assert rep.bound == pytest.approx(
            constraintwise_distance(rp, rpV).value, abs=1e-12
        )
        per = rep.context["perConstraint"]
        assert max(per.values()) == pytest.approx(rep.measured, abs=1e-12)

    def test_identity(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rep = tf.verify_transform_distance_multi(rp, rp, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed and rep.measured == 0.0

    def test_label_mismatch(self, rng):
        rp = random_feasible_instance(rng, n=2)
        sets = dict(rp.constraint_sets)
        sets["extra"] = Polytope(np.zeros((1, 3)))
        rp2 = RobustProblem(constraint_sets=sets, cost=rp.cost)
        with pytest.raises(IndexMismatchError):
            tf.verify_transform_distance_multi(rp, rp2, rho=0.5, plan=LEAN_PLAN)

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_rho_must_be_positive(self, rng, rho):
        rp = random_feasible_instance(rng, n=2)
        with pytest.raises(ValueError, match="rho"):
            tf.verify_transform_distance_multi(rp, rp, rho=rho, plan=LEAN_PLAN)

    def test_single_constraint_matches_pairwise_bound(self, rng):
        """With one uncertain set, the multi bound is that set's Hausdorff
        distance in R^(n+1)."""
        U = random_polytope(rng, 3, max_vertices=5)
        V = random_polytope(rng, 3, max_vertices=5)
        rpU = RobustProblem(constraint_sets={"u": U}, cost=[1.0, 1.0])
        rpV = RobustProblem(constraint_sets={"u": V}, cost=[1.0, 1.0])
        rep = tf.verify_transform_distance_multi(rpU, rpV, rho=0.5, plan=LEAN_PLAN)
        assert rep.bound == pytest.approx(hausdorff(U, V), abs=1e-12)
        assert rep.passed

import numpy as np
import pytest

from robust_stability import transform as tf
from robust_stability.errors import DimensionMismatchError, IndexMismatchError
from robust_stability.geometry import Polytope, hausdorff
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
        U = unit_square()
        V = U.translated([3.0, 0.0])
        assert tf._sigma_multi([0.5, 0.5], U, V, 0.7) == pytest.approx([0.5, 0.5])
        assert tf._sigma_multi([3.5, 0.5], U, V, 0.7) == pytest.approx(
            [1.0, 0.5], abs=1e-7
        )
        assert tf._sigma_multi([9.0, 9.0], U, V, 0.7) == pytest.approx([0.0, -0.7])


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

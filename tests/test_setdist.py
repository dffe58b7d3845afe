import numpy as np
import pytest

from robust_stability import setdist as sd
from robust_stability.errors import (
    EtaTooLargeError,
    HypothesisViolatedError,
    NotSolvableError,
    NumericalBreakdownError,
)
from robust_stability.geometry import Polytope, hausdorff
from robust_stability.model import LsioProblem

from conftest import random_feasible_instance, shifted_instance


def problem(cost, rows):
    """The LSIO problem of the stacked rows [a | b], labelled t0, t1, ..."""
    return LsioProblem(cost, rows, [f"t{i}" for i in range(len(rows))])


def interval_problem():
    return problem([1.0], [[1.0, 1.0], [-1.0, -2.0]])


class TestEpsArgmin:
    def test_interval(self):
        # min x over [1, 2], eps = 0.5 -> eps-argmin [1, 1.5]
        E = sd.eps_argmin(interval_problem(), 0.5)
        assert E.nu == pytest.approx(1.0, abs=1e-10)
        assert E.epsilon == 0.5
        from robust_stability.geometry import enumerate_hrep_vertices

        verts = sorted(v[0] for v in enumerate_hrep_vertices(E.rows))
        assert verts == pytest.approx([1.0, 1.5], abs=1e-8)

    def test_triangle(self):
        # min x1 + x2 over the unit triangle x >= 0, x1 + x2 <= 1; eps = 0.25
        pi = problem([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -1.0]])
        E = sd.eps_argmin(pi, 0.25)
        assert E.nu == pytest.approx(0.0, abs=1e-10)
        from robust_stability.geometry import enumerate_hrep_vertices

        verts = sorted(tuple(np.round(v, 8)) for v in enumerate_hrep_vertices(E.rows))
        assert verts == [(0.0, 0.0), (0.0, 0.25), (0.25, 0.0)]

    def test_not_solvable(self):
        pi = problem([-1.0], [[1.0, 0.0]])
        with pytest.raises(NotSolvableError):
            sd.eps_argmin(pi, 0.1)

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            sd.eps_argmin(interval_problem(), 0.0)

    def test_monotone_in_eps(self):
        """eps-argmin sets are nested: larger eps contains smaller eps."""
        from robust_stability.geometry import enumerate_hrep_vertices
        from robust_stability.geometry import project_onto_halfspaces

        pi = interval_problem()
        small = sd.eps_argmin(pi, 0.2)
        large = sd.eps_argmin(pi, 0.6)
        for v in enumerate_hrep_vertices(small.rows):
            assert project_onto_halfspaces(v, large.rows)[1] <= 1e-8


class TestTruncatedHausdorff:
    def params(self, r=5.0, r0=1.0):
        return sd.TruncatedDistParams(r=r, r0=r0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            sd.TruncatedDistParams(r=1.0, r0=2.0)
        with pytest.raises(ValueError):
            sd.TruncatedDistParams(r=1.0, r0=0.5, grid_resolution=0.0)

    def test_segments_exact(self):
        # [1, 1.5] vs [1.2, 1.5] inside the 5-ball: distance 0.2, exact
        C = Polytope([[1.0], [1.5]])
        D = Polytope([[1.2], [1.5]])
        td = sd.truncated_hausdorff(C, D, self.params())
        assert not td.estimate
        assert td.value == pytest.approx(0.2, abs=1e-10)

    def test_truncation_caps_far_vertices(self):
        # identical near origin, one set has a far vertex outside the ball
        C = Polytope([[0.0, 0.0], [1.0, 0.0]])
        D = Polytope([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        td = sd.truncated_hausdorff(C, D, self.params(r=2.0, r0=1.0))
        # excess of D cap 2B into C is attained near (2, 0): distance 1
        assert td.estimate  # far vertex forces the sampled path
        assert td.value <= 1.0 + 1e-6
        assert td.value >= 0.9

    def test_lower_bounds_full_hausdorff(self, rng):
        for _ in range(20):
            C = Polytope(rng.normal(size=(4, 2)))
            D = Polytope(rng.normal(size=(4, 2)))
            td = sd.truncated_hausdorff(C, D, self.params(r=10.0, r0=1.0))
            assert td.value <= hausdorff(C, D) + 1e-9

    def test_exact_when_vertices_inside(self, rng):
        for _ in range(10):
            C = Polytope(rng.normal(size=(4, 2)))
            D = Polytope(rng.normal(size=(4, 2)))
            td = sd.truncated_hausdorff(C, D, self.params(r=10.0, r0=1.0))
            assert not td.estimate
            assert td.value == pytest.approx(hausdorff(C, D), abs=1e-7)

    def test_box_keeps_the_vertices_of_a_bounded_set(self):
        # [0, 1] with a row x >= -5e-8 listed first: its solution -5e-8 is
        # infeasible by more than 1e-8 * scale and must stay filtered out,
        # not shadow the vertex 0, when the box |x| <= 2r joins the rows
        E = sd.EpsArgmin(
            rows=np.array([[1.0, -5e-8], [1.0, 0.0], [-1.0, -1.0]]),
            epsilon=1.0, nu=0.0, witness=np.zeros(1),
        )
        inside = [v for v in sd._vertex_candidates(E, 4.0) if abs(v[0]) <= 4.0]
        assert [v.tolist() for v in inside] == [[0.0], [1.0]]

    def test_symmetry(self, rng):
        C = Polytope(rng.normal(size=(4, 2)))
        D = Polytope(rng.normal(size=(4, 2)))
        p = self.params(r=10.0, r0=1.0)
        assert sd.truncated_hausdorff(C, D, p).value == pytest.approx(
            sd.truncated_hausdorff(D, C, p).value, abs=1e-9
        )


class TestDrMetric:
    def test_identical(self):
        C = Polytope([[0.0, 0.0], [1.0, 0.0]])
        assert sd.d_r_metric(C, C, sd.TruncatedDistParams(r=2.0, r0=1.0)) == 0.0

    def test_translation_1d(self):
        # d(x, [0,1]) vs d(x, [0.3, 1.3]): max gap 0.3, attained left of 0
        C = Polytope([[0.0], [1.0]])
        D = Polytope([[0.3], [1.3]])
        v = sd.d_r_metric(C, D, sd.TruncatedDistParams(r=3.0, r0=1.0, grid_resolution=0.01))
        assert v == pytest.approx(0.3, abs=0.02)

    def test_dominated_by_truncated_hausdorff(self, rng):
        """d_r <= d-hat_r <= d_H whenever the truncated value is exact."""
        for _ in range(10):
            C = Polytope(rng.normal(size=(4, 2)))
            D = Polytope(rng.normal(size=(4, 2)))
            p = sd.TruncatedDistParams(r=10.0, r0=1.0, grid_resolution=0.25)
            dr = sd.d_r_metric(C, D, p)
            td = sd.truncated_hausdorff(C, D, p)
            assert dr <= td.value + 1e-7
            assert td.value <= hausdorff(C, D) + 1e-9


class TestEpsArgminBound:
    def test_formula_value(self):
        # r=1, eps=1, ||c||=1, eta=0.5, dist=1: 5*2*2*sqrt(2)/0.5 = 40 sqrt(2)
        v = sd.eps_argmin_bound(eta=0.5, r=1.0, eps=1.0, c_norm=1.0, dist_infeas=1.0)
        assert v == pytest.approx(40.0 * np.sqrt(2.0), abs=1e-9)

    def test_eta_pole(self):
        with pytest.raises(EtaTooLargeError):
            sd.eps_argmin_bound(eta=1.0, r=1.0, eps=1.0, c_norm=1.0, dist_infeas=1.0)
        with pytest.raises(EtaTooLargeError):
            sd.eps_argmin_bound(eta=-0.1, r=1.0, eps=1.0, c_norm=1.0, dist_infeas=1.0)

    def test_bad_r_eps(self):
        with pytest.raises(ValueError):
            sd.eps_argmin_bound(eta=0.5, r=0.0, eps=1.0, c_norm=1.0, dist_infeas=1.0)
        with pytest.raises(ValueError):
            sd.eps_argmin_bound(eta=0.5, r=1.0, eps=0.0, c_norm=1.0, dist_infeas=1.0)

    def test_overflow_raises(self):
        # inf * d_nat would read NaN (d_nat = 0) and report a violated bound
        with pytest.raises(NumericalBreakdownError, match="overflows"):
            sd.eps_argmin_bound(eta=0.5, r=1e308, eps=0.1, c_norm=1.0, dist_infeas=1.0)

    def test_overflow_raises_in_the_check(self, rng):
        rp = random_feasible_instance(rng, n=1)
        with pytest.raises(NumericalBreakdownError):
            sd.check_eps_argmin_lipschitz(rp, rp, eps=0.1, r=1e308)

    def test_monotonicity(self):
        base = sd.eps_argmin_bound(eta=0.5, r=1.0, eps=1.0, c_norm=1.0, dist_infeas=2.0)
        assert sd.eps_argmin_bound(0.5, 2.0, 1.0, 1.0, 2.0) > base  # larger r
        assert sd.eps_argmin_bound(0.5, 1.0, 0.5, 1.0, 2.0) > base  # smaller eps
        assert sd.eps_argmin_bound(1.5, 1.0, 1.0, 1.0, 2.0) > base  # eta near pole


class TestCheckEpsArgminLipschitz:
    def test_small_shift_passes(self, rng):
        for _ in range(3):
            rp = random_feasible_instance(rng, n=2)
            rpV = shifted_instance(rp, rng, 1e-3)
            rep = sd.check_eps_argmin_lipschitz(rp, rpV, eps=0.3)
            assert rep.passed, rep.to_dict()
            assert rep.context["d_nat"] == pytest.approx(1e-3, abs=1e-9)

    def test_identity(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rep = sd.check_eps_argmin_lipschitz(rp, rp, eps=0.3)
        assert rep.passed and rep.measured == 0.0

    def test_eta_must_exceed_dnat(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rpV = shifted_instance(rp, rng, 0.1)
        with pytest.raises(HypothesisViolatedError):
            sd.check_eps_argmin_lipschitz(rp, rpV, eps=0.3, eta=0.05)

    @pytest.mark.parametrize("n", [1, 2])
    def test_solves_each_counterpart_once(self, rng, lp_solve_calls, n):
        # Slater LP and one solve of each counterpart; the polar pass over
        # Z- answers the probe
        rp = random_feasible_instance(rng, n=n)
        rpV = shifted_instance(rp, rng, 1e-3)
        sd.check_eps_argmin_lipschitz(rp, rpV, eps=0.3)
        assert lp_solve_calls[0] == 3

    def test_bad_reference(self):
        from robust_stability.model import RobustProblem

        rp = RobustProblem(
            constraint_sets={
                "a": Polytope([[1.0, 0.0]]),
                "b": Polytope([[-1.0, 0.0]]),
            },
            cost=[1.0],
        )
        with pytest.raises(HypothesisViolatedError):
            sd.check_eps_argmin_lipschitz(rp, rp, eps=0.1)

    def test_unbounded_perturbed_set_is_inexact(self):
        # U: x1 >= -1, -1 <= x2 <= 1, min x1.  V frees x2 upward (its last
        # row reads 0.001 x2 >= -0.1), so V's eps-argmin is unbounded and
        # reaches x2 ~ r inside the r-ball, far from U's (x2 <= 1).  Its
        # vertices alone all lie in U's eps-argmin, so a vertex-only
        # candidate list reads 0 and calls the side exact.
        from robust_stability.model import RobustProblem

        def rp(last):
            sets = {
                "a": Polytope([[1.0, 0.0, -1.0]]),
                "b": Polytope([[0.0, 1.0, -1.0]]),
                "c": Polytope([last]),
            }
            return RobustProblem(constraint_sets=sets, cost=[1.0, 0.0])

        rep = sd.check_eps_argmin_lipschitz(
            rp([0.0, -0.1, -0.1]), rp([0.0, 0.001, -0.1]), eps=0.3
        )
        assert rep.context["r"] == 4.0 and rep.context["estimate"] is True
        assert rep.measured == pytest.approx(2.938, abs=1e-3)

from typing import NamedTuple

import numpy as np
import pytest

from robust_stability import setdist as sd
from robust_stability.errors import (
    EtaTooLargeError,
    HypothesisViolatedError,
    NotSolvableError,
    NumericalBreakdownError,
)
from robust_stability.geometry import Polytope, enumerate_hrep_vertices, hausdorff
from robust_stability.model import LsioProblem, RobustProblem, robust_counterpart

from conftest import random_feasible_instance, shifted_instance
from dykstra import project_onto_halfspaces


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
        verts = sorted(v[0] for v in enumerate_hrep_vertices(E.rows))
        assert verts == pytest.approx([1.0, 1.5], abs=1e-8)

    def test_triangle(self):
        # min x1 + x2 over the unit triangle x >= 0, x1 + x2 <= 1; eps = 0.25
        pi = problem([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -1.0]])
        E = sd.eps_argmin(pi, 0.25)
        assert E.nu == pytest.approx(0.0, abs=1e-10)
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
        pi = interval_problem()
        small = sd.eps_argmin(pi, 0.2)
        large = sd.eps_argmin(pi, 0.6)
        for v in enumerate_hrep_vertices(small.rows):
            assert project_onto_halfspaces(v, large.rows)[1] <= 1e-8


class TestTruncatedHausdorff:
    def test_segments_exact(self):
        # [1, 1.5] vs [1.2, 1.5] inside the 5-ball: distance 0.2, exact
        td = sd.truncated_hausdorff(segment(1.0, 1.5), segment(1.2, 1.5), 5.0)
        assert not td.estimate
        assert td.value == pytest.approx(0.2, abs=1e-10)

    def test_truncation_caps_far_vertices(self):
        # the boxes [0, 1] x [-0.5, 0.5] and [0, 100] x [-0.5, 0.5] agree
        # near the origin; the second has far vertices outside the ball
        C, D = (box_set(hi, -0.5, 0.5, [0.5, 0.0]) for hi in (1.0, 100.0))
        td = sd.truncated_hausdorff(C, D, 2.0)
        # excess of D cap 2B into C is attained near (2, 0): distance 1
        assert td.estimate  # far vertex forces the sampled path
        assert td.value <= 1.0 + 1e-6
        assert td.value >= 0.9

    @pytest.mark.parametrize("witness", [[10.0, 0.9], [0.0, 0.9]])
    def test_anchor_lies_in_the_ball(self, witness):
        # C = [0, 10] x {0.9} and D = [0, 0.5] x {0.9}: C cap B and D cap B
        # both lie in the other set, so d-hat_1 is 0.  The boundary walk of
        # C starts inside the ball whether or not its witness does.
        C = box_set(10.0, 0.9, 0.9, witness)
        D = box_set(0.5, 0.9, 0.9, [0.0, 0.9])
        td = sd.truncated_hausdorff(C, D, 1.0)
        assert td.estimate
        assert td.value == 0.0

    def test_sets_missing_the_ball_are_exact(self):
        # [5, oo) and [5, 6] miss the unit ball: both excesses are exactly 0
        C = sd.EpsArgmin(rows=np.array([[1.0, 5.0]]), epsilon=1.0, nu=0.0, witness=np.array([6.0]))
        td = sd.truncated_hausdorff(C, segment(5.0, 6.0, witness=5.5), 1.0)
        assert not td.estimate
        assert td.value == 0.0

    def test_boundary_walk_makes_no_membership_projections(self, rng, min_norm_point_calls):
        # an unbounded 3-D pair: per side one min-norm anchor at most, then
        # one projection per candidate (vertices in the ball, the rays and
        # the anchor)
        E, F, r = halfspace_pair(rng, 3, boxed=False)
        P, Q = sd._hulls([E, F], r)
        td = sd.truncated_hausdorff(E, F, r)
        assert td.estimate
        bound = 2 * (sd._DIRECTION_COUNT + 2) + len(P.vertices) + len(Q.vertices)
        assert 0 < min_norm_point_calls[0] <= bound

    def test_lower_bounds_full_hausdorff(self, rng):
        # the pairs' own radii leave some box corners outside the ball
        flags = []
        for i in range(20):
            E, F, r = halfspace_pair(rng, 1 + i % 3, boxed=True)
            td = sd.truncated_hausdorff(E, F, r)
            assert td.value <= hausdorff(*sd._hulls([E, F], r)) + 1e-9
            flags.append(td.estimate)
        assert any(flags)

    def test_exact_when_vertices_inside(self, rng):
        # bounded sets in [-2, 2]^n lie inside the 10-ball, and the box the
        # hulls are cut by changes no distance
        for i in range(10):
            E, F, _ = halfspace_pair(rng, 1 + i % 3, boxed=True)
            td = sd.truncated_hausdorff(E, F, 10.0)
            C, D = (Polytope(np.array(enumerate_hrep_vertices(S.rows))) for S in (E, F))
            assert not td.estimate
            assert td.value == pytest.approx(hausdorff(C, D), abs=1e-7)

    def test_exact_path_is_the_hausdorff_of_the_hulls(self, rng):
        # the exact path is geometry.hausdorff of the two boxed hulls, bit
        # for bit
        for i in range(30):
            E, F, _ = halfspace_pair(rng, 1 + i % 3, boxed=True)
            td = sd.truncated_hausdorff(E, F, 10.0)
            assert not td.estimate
            assert td.value == hausdorff(*sd._hulls([E, F], 10.0))

    def test_box_keeps_the_vertices_of_a_bounded_set(self):
        # [0, 1] with a row x >= -5e-8 listed first: its solution -5e-8 is
        # infeasible by more than 1e-8 * scale and must stay filtered out,
        # not shadow the vertex 0, when the box |x| <= R joins the rows
        E = sd.EpsArgmin(
            rows=np.array([[1.0, -5e-8], [1.0, 0.0], [-1.0, -1.0]]),
            epsilon=1.0, nu=0.0, witness=np.zeros(1),
        )
        [P] = sd._hulls([E], 4.0)
        inside = [v for v in P.vertices if abs(v[0]) <= 4.0]
        assert [v.tolist() for v in inside] == [[0.0], [1.0]]

    def test_five_dimensional_translate_is_exact(self):
        # min sum x over x >= 0, and over x >= -t: the eps-argmin sets are
        # the simplex {x >= 0, sum x <= eps} and its translate by -t 1, at
        # Hausdorff distance t sqrt(5), with every vertex inside the r-ball
        t, eps = 1e-3, 0.3
        E, F = (
            sd.eps_argmin(problem(np.ones(5), np.column_stack([np.eye(5), np.full(5, b)])), eps)
            for b in (0.0, -t)
        )
        td = sd.truncated_hausdorff(E, F, 2.0)
        assert not td.estimate
        assert td.value == pytest.approx(t * np.sqrt(5.0), abs=1e-12)

    def test_symmetry(self, rng):
        for i in range(6):
            E, F, r = halfspace_pair(rng, 1 + i % 3, boxed=i % 2 == 1)
            assert sd.truncated_hausdorff(E, F, r) == sd.truncated_hausdorff(F, E, r)


def segment(lo, hi, witness=None):
    """[lo, hi] in R^1 as an EpsArgmin of two rows, witnessed by lo unless
    another witness is given."""
    rows = np.array([[1.0, lo], [-1.0, -hi]])
    return sd.EpsArgmin(
        rows=rows, epsilon=1.0, nu=0.0, witness=np.array([lo if witness is None else witness])
    )


def box_set(x_hi, y_lo, y_hi, witness):
    """[0, x_hi] x [y_lo, y_hi] as an EpsArgmin with the given witness."""
    rows = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, -x_hi], [0.0, 1.0, y_lo], [0.0, -1.0, -y_hi]])
    return sd.EpsArgmin(rows=rows, epsilon=1.0, nu=0.0, witness=np.array(witness))


def halfspace_pair(rng, n, boxed):
    """(E, F, r): the eps-argmin sets of a random problem in R^n and of its
    rows moved by up to 1e-3, and a radius r in [0.5, 3]."""
    cost = rng.normal(size=n)
    # <c, x> >= -1 and the level row bound <c, x>; n - 1 halfspaces more
    # leave a recession direction for n >= 2 (that many meet beyond 0 in
    # c's orthogonal complement), which the box rows take away
    a = rng.normal(size=(n - 1, n))
    rows = np.vstack([
        np.append(cost, -1.0),
        np.column_stack([a, -rng.uniform(0.2, 1.0, size=n - 1)]),
        *([np.append(s * e, -2.0) for e in np.eye(n) for s in (1.0, -1.0)] if boxed else []),
    ])
    moved = rows.copy()
    moved[:, -1] += rng.uniform(-1e-3, 1e-3, size=len(rows))
    eps = float(rng.uniform(0.1, 0.5))
    E = sd.eps_argmin(problem(cost, rows), eps)
    F = sd.eps_argmin(problem(cost, moved), eps)
    return E, F, float(rng.uniform(0.5, 3.0))


class _Halfspaces(NamedTuple):
    """An eps-argmin set as dykstra_truncated_hausdorff hands it to
    _truncated_excess: its vertices cut by a box, and its rows, onto which
    the patched projection runs Dykstra."""

    rows: np.ndarray
    vertices: np.ndarray
    dim: int


def dykstra_truncated_hausdorff(monkeypatch, E, F, r):
    """(value, estimate) of d-hat_r(E, F) with every distance to a set taken
    by a tightly converged Dykstra projection onto its halfspaces."""
    real = sd.project_onto_polytope

    def project(x, C):
        if isinstance(C, _Halfspaces):
            return project_onto_halfspaces(x, C.rows, tol=1e-14)
        return real(x, C)

    # any box wider than r that holds both witnesses leaves the vertices in
    # the r-ball, and whether there are others, as they are
    width = 3.0 * r + max(np.linalg.norm(E.witness), np.linalg.norm(F.witness))
    box = [np.append(s * e, -width) for e in np.eye(E.dim) for s in (1.0, -1.0)]
    H = [
        _Halfspaces(S.rows, np.array(enumerate_hrep_vertices(np.vstack([S.rows, *box]))), S.dim)
        for S in (E, F)
    ]
    with monkeypatch.context() as m:
        m.setattr(sd, "project_onto_polytope", project)
        e_ef, exact_ef = sd._truncated_excess(E, H[0], H[1], r)
        e_fe, exact_fe = sd._truncated_excess(F, H[1], H[0], r)
    return max(e_ef, e_fe), not (exact_ef and exact_fe)


class TestAgainstDykstra:
    def test_random_sets(self, rng, monkeypatch):
        """Bounded and unbounded eps-argmin sets in n = 1..3: the boxed
        vertex hulls give Dykstra's distances on the halfspaces, and the
        same exactness flag."""
        flags = []
        for i in range(12):
            E, F, r = halfspace_pair(rng, 1 + i % 3, boxed=i % 2 == 1)
            td = sd.truncated_hausdorff(E, F, r)
            value, estimate = dykstra_truncated_hausdorff(monkeypatch, E, F, r)
            assert td.estimate == estimate
            assert td.value == pytest.approx(value, abs=1e-8)
            flags.append(td.estimate)
        assert any(flags) and not all(flags)


class TestDrMetric:
    def test_identical(self):
        C = box_set(1.0, 0.0, 0.0, [0.0, 0.0])
        assert sd.d_r_metric(C, C, 2.0) == 0.0

    def test_translation_1d(self):
        # d(x, [0,1]) vs d(x, [0.3, 1.3]): max gap 0.3, attained left of 0
        v = sd.d_r_metric(segment(0.0, 1.0), segment(0.3, 1.3), 3.0, grid_resolution=0.01)
        assert v == pytest.approx(0.3, abs=0.02)

    def test_dominated_by_truncated_hausdorff(self, rng):
        """d_r <= d-hat_r <= d_H whenever the truncated value is exact."""
        for _ in range(10):
            E, F, _ = halfspace_pair(rng, 2, boxed=True)
            dr = sd.d_r_metric(E, F, 10.0, grid_resolution=0.25)
            td = sd.truncated_hausdorff(E, F, 10.0)
            assert not td.estimate
            assert dr <= td.value + 1e-7
            assert td.value <= hausdorff(*sd._hulls([E, F], 10.0)) + 1e-9

    def test_grid_resolution_must_be_positive(self):
        C = segment(0.0, 1.0)
        with pytest.raises(ValueError, match="grid_resolution"):
            sd.d_r_metric(C, C, 1.0, grid_resolution=0.0)


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

    def test_two_dimensional_pair(self):
        # a pair on which some Dykstra projection outran 20,000 sweeps; every
        # vertex lies inside the r-ball, so the value is d_H of the sets
        def rp(sets):
            sets = {label: Polytope(V) for label, V in sets.items()}
            return RobustProblem(constraint_sets=sets, cost=[-0.04683124858533187, -2.0594743076322546])

        rp_u = rp({
            "u0": [[0.10667351905831299, 0.13893427103657258, -2.02227668199587],
                   [0.014588160498317931, 0.3717705737391992, -2.0968642831288746],
                   [0.11899101234475082, 0.3840446608132181, -1.9814389274701507],
                   [-0.14851159693107108, 0.09356698015424342, -1.920167069091666]],
            "u1": [[0.6514227323836982, 0.4875316832841836, -0.7094564098713252],
                   [0.9060427372621663, 0.4788754369618698, -0.4803596337976975],
                   [0.635842393836905, 0.7506122441354496, -0.4772768250384719]],
            "lo0": [[1.0, 0.0, -4.0]],
            "hi0": [[-1.0, 0.0, -4.0]],
            "lo1": [[0.0, 1.0, -4.0]],
            "hi1": [[0.0, -1.0, -4.0]],
        })
        rp_v = rp({
            "u0": [[0.107182466192177, 0.13870481226296513, -2.0222488470158466],
                   [0.01509710763218195, 0.3715411149655917, -2.096836448148851],
                   [0.11949995947861483, 0.3838152020396106, -1.981411092490127],
                   [-0.14800264979720706, 0.09333752138063597, -1.9201392341116421]],
            "u1": [[0.6513401106499435, 0.4880679373832504, -0.7095907917537059],
                   [0.9059601155284116, 0.47941169106093656, -0.4804940156800782],
                   [0.6357597721031503, 0.7511484982345163, -0.4774112069208526]],
            "lo0": [[1.0002400006063978, 3.4461030573536854e-05, -4.000503652108372]],
            "hi0": [[-0.9998619316772126, -9.879005823605366e-05, -3.9994674298519413]],
            "lo1": [[6.140262191144639e-05, 1.0000117176470649, -3.9994445310857154]],
            "hi1": [[0.00032481474167262705, -1.0003866950365417, -4.000239615592717]],
        })
        eps = 0.13567073800349305
        rep = sd.check_eps_argmin_lipschitz(rp_u, rp_v, eps=eps)
        assert rep.passed and rep.context["estimate"] is False
        EU, EV = (
            Polytope(np.array(enumerate_hrep_vertices(sd.eps_argmin(robust_counterpart(p), eps).rows)))
            for p in (rp_u, rp_v)
        )
        assert rep.measured == pytest.approx(hausdorff(EU, EV), abs=1e-9)

    def test_r_must_exceed_r0(self):
        # min x over [1, 10]: nu = 1 and the witness 1 lie in the 2-ball,
        # so the check reaches the radii and refuses r <= r0
        rp = RobustProblem(
            constraint_sets={"u": Polytope([[1.0, 1.0]]), "box": Polytope([[-1.0, -10.0]])},
            cost=[1.0],
        )
        for r, r0 in ((1.0, 2.0), (2.0, 2.0)):
            with pytest.raises(ValueError, match=r"need r > r0 > 0"):
                sd.check_eps_argmin_lipschitz(rp, rp, eps=0.1, r=r, r0=r0)

    def test_bad_reference(self):
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

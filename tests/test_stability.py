import dataclasses
import json

import numpy as np
import pytest

from robust_stability import harness, lp, stability as st
from robust_stability.errors import (
    EpsilonTooLargeError,
    HypothesisViolatedError,
    NotInteriorSolvableError,
    NuNotFiniteError,
    SlaterFailedError,
)
from robust_stability.geometry import (
    Polytope,
    contains_origin_interior,
    dist_origin_to_hset,
)
from robust_stability.model import LsioProblem, RobustProblem, robust_counterpart
from robust_stability.setdist import check_eps_argmin_lipschitz

from conftest import random_feasible_instance, shifted_instance


def problem(cost, rows):
    """The LSIO problem of the stacked rows [a | b], labelled t0, t1, ..."""
    return LsioProblem(cost, rows, [f"t{i}" for i in range(len(rows))])


def thin_triangle(c):
    """min x1 + x2 s.t. x1 + (c-1) x2 >= -1, (c-1) x1 + x2 >= -1: Z- is the
    triangle (1, c-1), (c-1, 1), (-1, -1), of inradius c / sqrt(2)."""
    return problem([1.0, 1.0], [[1.0, c - 1.0, -1.0], [c - 1.0, 1.0, -1.0]])


def interval_problem():
    # x in [1, 2], minimize x
    return problem([1.0], [[1.0, 1.0], [-1.0, -2.0]])


class TestBuildingBlocks:
    def test_psi_values(self):
        assert st.psi(0.0) == 1.0
        assert st.psi(1.0) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert st.psi(3.0) == pytest.approx(4.0 * np.sqrt(10.0), abs=1e-12)

    def test_H_generators_are_the_rows(self):
        # H = conv{(1,0,0),(0,1,0)} minus the downward b-ray; nearest point
        # to the origin is the segment midpoint (1/2, 1/2, 0).
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert dist_origin_to_hset(rows) == pytest.approx(np.sqrt(0.5), abs=1e-6)

    def test_dist_to_infeasibility_examples(self):
        # single row <1, x> >= 1: H = {(1,1)} - ray, nearest point (1,1) or below
        d = st.distance_to_infeasibility(np.array([[1.0, 1.0]]))
        assert d == pytest.approx(1.0, abs=1e-8)
        # ([1], -1): generator (1,-1), ray only pushes b further down
        d2 = st.distance_to_infeasibility(np.array([[1.0, -1.0]]))
        assert d2 == pytest.approx(np.sqrt(2.0), abs=1e-8)
        # interval [1,2]: min-norm point of conv{(1,1),(-1,-2)} - ray is at
        # lambda = 8/13 with squared norm 1/13
        d3 = st.distance_to_infeasibility(interval_problem().rows)
        assert d3 == pytest.approx(1.0 / np.sqrt(13.0), abs=1e-8)

    def test_dist_to_infeasibility_slater_required(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SlaterFailedError):
            st.distance_to_infeasibility(rows)
        # H contains the origin here (no Slater slack), so the distance to
        # the set is 0
        d = dist_origin_to_hset(rows)
        assert d == pytest.approx(0.0, abs=1e-8)

    def test_dist_to_infeasibility_scaling(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            rows = np.array([np.append(rng.normal(size=n), rng.uniform(-2, -0.3)) for _ in range(3)])
            d = dist_origin_to_hset(rows)
            s = float(rng.uniform(0.5, 2.0))
            d2 = dist_origin_to_hset(s * rows)
            assert d2 == pytest.approx(s * d, abs=1e-7)

    def test_sup_R(self):
        pi = interval_problem()
        assert st.sup_R(pi, 1.0) == 2.0
        assert st.sup_R(pi, 5.0) == 5.0
        with pytest.raises(NuNotFiniteError):
            st.sup_R(pi, np.inf)

    def test_build_Zminus(self):
        pi = interval_problem()
        Z = st.build_Zminus(pi)
        got = sorted(tuple(v) for v in Z.vertices)
        assert got == [(-1.0,), (-1.0,), (1.0,)]


class TestInteriorSolvable:
    def test_ok(self):
        r = st.check_interior_solvable(interval_problem())
        assert r.ok and r.failing == ""
        assert r.slater.rho == pytest.approx(0.5, abs=1e-8)
        assert r.solve_result.value == pytest.approx(1.0, abs=1e-10)
        assert r.bounded_face

    def test_no_slater(self):
        pi = problem([1.0], [[1.0, 0.0], [-1.0, 0.0]])
        r = st.check_interior_solvable(pi)
        assert not r.ok and "Slater" in r.failing

    def test_unbounded_value(self):
        pi = problem([-1.0], [[1.0, 0.0]])
        r = st.check_interior_solvable(pi)
        assert not r.ok and "solvability" in r.failing

    def test_unbounded_optimal_face(self):
        pi = problem([1.0, 0.0], [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        r = st.check_interior_solvable(pi)
        assert not r.ok and "bounded optimal face" in r.failing

    def test_dist_bd_solvable_interval(self):
        # dist to infeasibility 1/sqrt(13); Z- = conv{1,-1}, inradius 1
        assert st.distance_to_bd_solvable(interval_problem()) == pytest.approx(
            1.0 / np.sqrt(13.0), abs=1e-8
        )

    def test_dist_bd_solvable_rejects(self):
        pi = problem([-1.0], [[1.0, 0.0]])
        with pytest.raises(NotInteriorSolvableError):
            st.distance_to_bd_solvable(pi)


def recession_face_bounded(pi):
    """Reference for the bounded-face verdict of a solvable problem: the
    recession cone {d : A d >= 0, <c, d> = 0} of the optimal face is {0};
    2n LPs maximize +/- d_i over that cone cut by the unit box."""
    n = pi.dim
    A = np.vstack([pi.rows[:, :-1], pi.cost, -pi.cost, np.kron(np.eye(n), [[1.0], [-1.0]])])
    b = np.concatenate([np.zeros(len(pi.rows) + 2), -np.ones(2 * n)])
    for e in np.eye(n):
        for s in (1.0, -1.0):
            res = lp.solve(lp.LinearProgram(-s * e, A, b))
            assert res.status == lp.OPTIMAL
            if -res.value > 1e-7:
                return False
    return True


class TestBoundedFace:
    """check_interior_solvable's bounded-face verdict: origin strictly inside Z-."""

    def test_point_optimum(self):
        pi = problem([1.0], [[1.0, 1.0]])
        assert st.check_interior_solvable(pi).bounded_face

    def test_line_optimum(self):
        pi = problem([1.0, 0.0], [[1.0, 0.0, 0.0]])
        r = st.check_interior_solvable(pi)
        assert not r.bounded_face and "Z-" in r.failing

    def test_corner_optimum(self):
        pi = problem([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert st.check_interior_solvable(pi).bounded_face

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_recession_cone(self, rng, n):
        # box rows keep the face bounded.  Dropping one and zeroing the cost
        # along it leaves the face bounded only where an uncertain row takes
        # over; freeing a coordinate (its box rows dropped, its entries
        # zeroed) always makes the face unbounded.
        verdicts = {0: set(), 1: set(), 2: set()}
        for trial in range(60):
            pi = robust_counterpart(random_feasible_instance(rng, n=n))
            mode = trial % 3
            rows, labels, cost = pi.rows, pi.labels, pi.cost
            keep = np.ones(len(rows), dtype=bool)
            if mode == 1:
                drop = int(rng.integers(len(rows) - 2 * n, len(rows)))
                keep[drop] = False
                cost = np.where(rows[drop, :-1] != 0.0, 0.0, cost)
            if mode == 2:
                free = np.arange(n) == int(rng.integers(n))
                box = np.array([label.startswith(("lo", "hi")) for label in labels])
                keep = ~(box & rows[:, :-1][:, free].any(axis=1))
                rows = np.where(np.append(free, False), 0.0, rows)
                cost = np.where(free, 0.0, cost)
            pi = LsioProblem(cost, rows[keep], [l for l, k in zip(labels, keep) if k])
            r = st.check_interior_solvable(pi)
            assert r.slater is not None and r.solve_result.status == lp.OPTIMAL
            assert r.bounded_face == recession_face_bounded(pi), trial
            verdicts[mode].add(r.bounded_face)
        assert verdicts == {0: {True}, 1: {True, False}, 2: {False}}


def straight_line_constants(pi, nu, eps):
    """Independent transcription of the constant formulas, no shared helpers."""
    import math

    c_norm = math.sqrt(sum(v * v for v in np.asarray(pi.cost, dtype=float)))
    d_i = dist_origin_to_hset(pi.rows)
    d_z = contains_origin_interior(st.build_Zminus(pi)).value
    s_r = max(max(-b for b in pi.rows[:, -1]), nu)
    rho_hat = s_r / d_z

    def psi(a):
        return (1 + a) * math.sqrt(1 + a * a)

    beta = psi(rho_hat) / (d_i - eps)
    gamma = rho_hat + eps * beta + c_norm * beta
    mu = (s_r + eps * max(1.0, gamma)) / (d_z - eps)
    L = (eps + c_norm) * psi(mu) / (d_i - eps) + mu
    return {"beta": beta, "gamma": gamma, "mu": mu, "L": L, "epsilon": eps}


class TestLipschitzConstant:
    def test_matches_straight_line_formula(self):
        pi = interval_problem()
        eps = 0.25
        got = st.lipschitz_constant(pi, eps=eps).to_dict()
        want = straight_line_constants(pi, nu=1.0, eps=eps)
        for k in ("beta", "gamma", "mu", "L", "epsilon"):
            assert got[k] == pytest.approx(want[k], rel=1e-9), k

    def test_default_epsilon_is_half_dist(self):
        c = st.lipschitz_constant(interval_problem())
        assert c.epsilon == pytest.approx(0.5 * c.dist_bd_solvable, abs=1e-12)
        assert c.dist_bd_solvable == pytest.approx(1.0 / np.sqrt(13.0), abs=1e-8)

    def test_eps_out_of_range(self):
        pi = interval_problem()
        with pytest.raises(EpsilonTooLargeError):
            st.lipschitz_constant(pi, eps=5.0)
        with pytest.raises(EpsilonTooLargeError):
            st.lipschitz_constant(pi, eps=0.0)

    def test_eps_monotone_in_L(self):
        pi = interval_problem()
        ls = [
            st.lipschitz_constant(pi, eps=e).lipschitz
            for e in (0.05, 0.1, 0.2, 0.27)
        ]
        assert all(a < b for a, b in zip(ls, ls[1:]))

    def test_cost_norm_monotone(self):
        prev = None
        for s in (0.5, 1.0, 2.0, 4.0):
            pi = problem([s], [[1.0, 1.0], [-1.0, -2.0]])
            c = st.lipschitz_constant(pi, eps=0.25)
            if prev is not None:
                assert c.lipschitz > prev
            prev = c.lipschitz

    def test_duplicate_and_permuted_rows_exact_invariance(self, rng):
        for _ in range(10):
            rp = random_feasible_instance(rng, n=2)
            checker = st.ValueLipschitzChecker(rp)
            pi = checker.augmented
            base = st.lipschitz_constant(pi, eps=checker.constants.epsilon)
            perm = rng.permutation(len(pi.rows))
            rows2 = np.vstack([pi.rows[perm], pi.rows[perm[:1]]])
            pi2 = LsioProblem(pi.cost, rows2, [f"q{i}" for i in range(len(perm))] + ["dup"])
            other = st.lipschitz_constant(pi2, eps=checker.constants.epsilon)
            for k, v in base.to_dict().items():
                assert other.to_dict()[k] == v, k  # bit-exact

    def test_d_z_above_dim_4(self):
        # n = 6 box |x_i| <= 1, c = 1: Z- = conv{+/- e_i, -c} keeps the
        # cross-polytope's facet sum(x) = 1, so d_z = 1 / sqrt(6) exactly,
        # which the lower bound margin / sqrt(6) meets
        box = [np.append(s * e, -1.0) for e in np.eye(6) for s in (1.0, -1.0)]
        pi = problem(np.ones(6), box)
        assert st.lipschitz_constant(pi).d_z == pytest.approx(1.0 / np.sqrt(6), abs=1e-12)

    def test_boundary_case_rejected(self):
        # unbounded optimal face (x2 free on the optimal set): the origin sits
        # on the boundary of Z-, so no constants exist for this problem
        pi = problem([1.0, 0.0], [[1.0, 0.0, 1.0], [-1.0, 0.0, -2.0]])
        with pytest.raises(NotInteriorSolvableError):
            st.lipschitz_constant(pi)

    @pytest.mark.parametrize(
        "entry",
        [st.lipschitz_constant, st.distance_to_bd_solvable],
        ids=["lipschitz_constant", "distance_to_bd_solvable"],
    )
    def test_zminus_boundary_rejected(self, monkeypatch, entry):
        # Z- = conv{(1, 0), (-1, 0)} is a segment through the origin, while
        # Slater and solvability hold, so the Z- probe's own None verdict is
        # what rejects: the spy sees it called once and answer None
        pi = problem([1.0, 0.0], [[1.0, 0.0, 1.0], [-1.0, 0.0, -2.0]])
        verdicts = []
        real = st.contains_origin_interior
        monkeypatch.setattr(
            st, "contains_origin_interior", lambda P: verdicts.append(real(P)) or verdicts[-1]
        )
        with pytest.raises(NotInteriorSolvableError, match="Z-"):
            entry(pi)
        assert verdicts == [None]

    def test_zminus_thin_triangle_rejected(self, tmp_path, capsys):
        # min x1 + x2 s.t. x1 + (c-1) x2 >= -1, (c-1) x1 + x2 >= -1 is Slater
        # and solvable; Z- = conv{(1, c-1), (c-1, 1), (-1, -1)} has every
        # axis margin above 1e-9 but inradius c / sqrt(2) <= 1e-9, so the
        # bounded-face check rejects it, and every entry point with it
        pi = thin_triangle(1.2e-9)
        assert contains_origin_interior(st.build_Zminus(pi)) is None
        r = st.check_interior_solvable(pi)
        assert r.slater is not None and r.solve_result.status == lp.OPTIMAL
        assert not r.ok and not r.bounded_face and r.d_z is None
        assert "bounded optimal face" in r.failing
        for entry in (st.lipschitz_constant, st.distance_to_bd_solvable):
            with pytest.raises(NotInteriorSolvableError, match="Z-"):
                entry(pi)
        sets = {t: Polytope(row[None, :]) for t, row in zip(pi.labels, pi.rows)}
        rp = RobustProblem(constraint_sets=sets, cost=pi.cost)
        with pytest.raises(HypothesisViolatedError, match="Z-"):
            st.ValueLipschitzChecker(rp)
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({
            "n": 2,
            "cost": pi.cost.tolist(),
            "constraints": [
                {"name": t, "vertices": [row.tolist()]} for t, row in zip(pi.labels, pi.rows)
            ],
        }))
        assert harness.cli(["constants", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "HypothesisViolatedError"

    @pytest.mark.parametrize("d", [1.2e-9, 1.5e-9, 2e-9])
    def test_zminus_within_tolerance_rejected(self, d):
        # min x1 s.t. x1 +/- d x2 >= -1 is Slater and solvable, but
        # Z- = conv{(1, d), (1, -d), (-1, 0)} has inradius d/2 <= 1e-9, so
        # the bounded-face check rejects it (its eps-argmin is ~eps/d long)
        pi = problem([1.0, 0.0], [[1.0, d, -1.0], [1.0, -d, -1.0]])
        r = st.check_interior_solvable(pi)
        assert r.slater is not None and r.solve_result.status == lp.OPTIMAL
        assert not r.ok and "Z-" in r.failing
        with pytest.raises(NotInteriorSolvableError, match="Z-"):
            st.lipschitz_constant(pi)
        sets = {"t0": Polytope([[1.0, d, -1.0]]), "t1": Polytope([[1.0, -d, -1.0]])}
        rp = RobustProblem(constraint_sets=sets, cost=[1.0, 0.0])
        with pytest.raises(HypothesisViolatedError, match="Z-"):
            check_eps_argmin_lipschitz(rp, rp, eps=0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_checker_d_z_is_the_augmented_inradius(rng, n):
    # the checker reads d_z from the probe of the counterpart's Z-; the
    # augmented problem's zero slack row leaves its value's bits as they are
    for _ in range(5):
        checker = st.ValueLipschitzChecker(random_feasible_instance(rng, n=n, n_uncertain=3))
        aug = checker.augmented
        want = contains_origin_interior(st.build_Zminus(st._canonical(aug))).value
        assert checker.constants.d_z.hex() == want.hex()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hypotheses_hold_exactly_when_constants_exist(rng, n):
    # one verdict: check_interior_solvable is ok exactly when it sets d_z
    # and exactly when lipschitz_constant returns constants
    problems = [robust_counterpart(random_feasible_instance(rng, n=n)) for _ in range(5)]
    problems += [thin_triangle(c * 1e-9) for c in (1.0, 1.2, 1.5, 3.0)]
    verdicts = set()
    for pi in problems:
        r = st.check_interior_solvable(pi)
        assert (r.d_z is not None) == r.ok
        try:
            st.lipschitz_constant(pi)
            constants = True
        except NotInteriorSolvableError:
            constants = False
        assert constants == r.ok
        verdicts.add(r.ok)
    assert verdicts == {True, False}


class TestSolveCounts:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_checker_solves_each_lp_once(self, rng, lp_solve_calls, n):
        # Slater LP and the solve; the polar pass over Z- certifies every
        # probe direction of these instances, so the bounded-face check
        # solves no LP
        rp = random_feasible_instance(rng, n=n)
        checker = st.ValueLipschitzChecker(rp)
        assert lp_solve_calls[0] == 2
        # a check from U's basis is still one solve
        checker.check(shifted_instance(rp, rng, 1e-6))
        assert lp_solve_calls[0] == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lipschitz_constant_solves_each_lp_once(self, rng, lp_solve_calls, n):
        # the check's solve of the canonical problem also gives nu
        pi = robust_counterpart(random_feasible_instance(rng, n=n))
        st.lipschitz_constant(pi)
        assert lp_solve_calls[0] == 2


class TestCanonical:
    def test_signed_zeros_duplicates_and_order(self):
        rows = np.array(
            [[1.0, -1.0], [0.0, -2.0], [-0.0, -2.0], [1.0, -1.0], [-1.0, -3.0], [0.0, -2.0]]
        )
        canon = st._canonical(problem([1.0], rows))
        # 0.0 and -0.0 differ in their bytes, so both rows stay; they tie in
        # the order, so they keep their first-occurrence order
        assert canon.labels == ("t4", "t1", "t2", "t0")
        assert [r.tobytes() for r in canon.rows] == [rows[i].tobytes() for i in (4, 1, 2, 0)]

    def test_matches_sorted_first_occurrences(self, rng):
        for _ in range(50):
            rows = np.round(rng.normal(size=(12, 3)))  # ties, duplicates, -0.0
            seen, first = set(), []
            for row in rows:
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    first.append(row)
            want = sorted(first, key=tuple)
            got = st._canonical(problem([1.0, 1.0], rows)).rows
            assert [r.tobytes() for r in got] == [r.tobytes() for r in want]

    def test_permuted_duplicated_copies_with_signed_zeros(self):
        # the box rows -e_i carry -0.0 entries, and a permuted copy with
        # duplicates gives the same constants, bit for bit
        box = np.array([np.append(s * e, -1.0) for e in np.eye(2) for s in (1.0, -1.0)])
        rows = np.vstack([box, [[0.5, 0.25, -0.5]]])
        base = st.lipschitz_constant(problem([1.0, 0.5], rows)).to_dict()
        copy = np.vstack([rows[::-1], rows[1:3]])
        other = st.lipschitz_constant(problem([1.0, 0.5], copy)).to_dict()
        assert {k: v.hex() for k, v in other.items()} == {k: v.hex() for k, v in base.items()}


class TestAugmentation:
    def test_slack_row_appended(self):
        pi = interval_problem()
        aug = st.augment_with_slack_row(pi, 0.5)
        assert aug.rows.shape == (3, 2)
        assert aug.labels[-1] == st.SLACK_ROW_LABEL
        assert aug.rows[-1].tolist() == [0.0, -0.5]

    def test_slack_row_preserves_value(self):
        pi = interval_problem()
        aug = st.augment_with_slack_row(pi, 0.5)
        assert lp.solve(aug.to_lp()).value == lp.solve(pi.to_lp()).value

    def test_sup_R_at_least_rho(self):
        pi = problem([1.0], [[1.0, 1.0], [-1.0, -1.2]])
        aug = st.augment_with_slack_row(pi, 0.7)
        nu = lp.solve(aug.to_lp()).value
        assert st.sup_R(aug, nu) >= 0.7


class TestValueLipschitz:
    def test_check_solves_the_counterpart_in_u_label_order(self, rng, monkeypatch):
        rp = random_feasible_instance(rng, n=2)
        checker = st.ValueLipschitzChecker(rp)
        shifted = shifted_instance(rp, rng, 1e-4)
        rpV = RobustProblem(
            constraint_sets=dict(reversed(shifted.constraint_sets.items())), cost=rp.cost
        )
        cpV = robust_counterpart(rpV)
        index = {label: i for i, label in enumerate(cpV.labels)}
        want = cpV.rows[[index[label] for label in checker.counterpart.labels]]
        solved = []
        real = lp.solve
        monkeypatch.setattr(lp, "solve", lambda prob, **kw: solved.append(prob) or real(prob, **kw))
        checker.check(rpV)
        (prob,) = solved
        got = np.column_stack([prob.a_matrix, prob.rhs])
        assert got.tobytes() == want.tobytes()

    def test_small_translation_within_bound(self, rng):
        for _ in range(5):
            rp = random_feasible_instance(rng, n=2)
            checker = st.ValueLipschitzChecker(rp)
            mag = min(1e-3, 0.1 * checker.constants.epsilon)
            rep = checker.check(shifted_instance(rp, rng, mag))
            assert rep.passed
            assert rep.context["d_nat"] == pytest.approx(mag, abs=1e-9)

    @pytest.fixture
    def pivot_runs(self, monkeypatch):
        count = [0]
        real_loop = lp._pivot_loop

        def loop(*args, **kw):
            count[0] += 1
            return real_loop(*args, **kw)

        monkeypatch.setattr(lp, "_pivot_loop", loop)
        return count

    def test_small_perturbations_need_no_pivots(self, rng, pivot_runs):
        """U's optimal basis, re-certified on V, answers small perturbations;
        nu_v agrees with V's cold solve at rounding level."""
        for n in (1, 2, 3):
            rp = random_feasible_instance(rng, n=n, n_uncertain=3)
            checker = st.ValueLipschitzChecker(rp)
            for _ in range(10):
                rpV = shifted_instance(rp, rng, 1e-3 * checker.constants.epsilon)
                pivot_runs[0] = 0
                rep = checker.check(rpV)
                assert pivot_runs[0] == 0
                cold = lp.solve(robust_counterpart(rpV).to_lp())
                assert rep.context["nu_v"] == pytest.approx(cold.value, rel=1e-13, abs=1e-13)

    def test_stale_basis_falls_back_to_cold_solve(self, rng, pivot_runs):
        """A reversed cost moves V's optimum to another vertex: U's basis
        fails its certificate and V gets the cold simplex's value, bit for
        bit."""
        for n in (1, 2, 3):
            rp = random_feasible_instance(rng, n=n)
            checker = st.ValueLipschitzChecker(rp)
            rpV = dataclasses.replace(
                shifted_instance(rp, rng, 0.1 * checker.constants.epsilon), cost=-rp.cost
            )
            pivot_runs[0] = 0
            rep = checker.check(rpV)
            assert pivot_runs[0] > 0
            assert rep.context["nu_v"] == lp.solve(robust_counterpart(rpV).to_lp()).value

    def test_vertex_counts_may_differ(self, rng):
        """V's sets need not have U's vertex counts: a duplicated vertex
        changes neither d_nat nor, beyond rounding, nu_v (U's active rows
        now index other rows of V's LP)."""
        rp = random_feasible_instance(rng, n=2)
        checker = st.ValueLipschitzChecker(rp)
        rpV = shifted_instance(rp, rng, 0.1 * checker.constants.epsilon)
        sets = {a: Polytope(np.vstack([V.vertices, V.vertices[-1:]]))
                for a, V in rpV.constraint_sets.items()}
        doubled = checker.check(RobustProblem(constraint_sets=sets, cost=rpV.cost))
        single = checker.check(rpV)
        assert doubled.context["d_nat"] == single.context["d_nat"]
        assert doubled.context["nu_v"] == pytest.approx(single.context["nu_v"], abs=1e-13)

    def test_identity_perturbation(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rep = st.check_value_lipschitz(rp, rp)
        assert rep.passed and rep.measured == 0.0 and rep.bound == 0.0

    def test_large_perturbation_rejected(self, rng):
        rp = random_feasible_instance(rng, n=2)
        checker = st.ValueLipschitzChecker(rp)
        big = 2.0 * checker.constants.epsilon
        with pytest.raises(HypothesisViolatedError):
            checker.check(shifted_instance(rp, rng, big))

    def test_bad_reference_rejected(self):
        from robust_stability.geometry import Polytope
        from robust_stability.model import RobustProblem

        rp = RobustProblem(
            constraint_sets={
                "a": Polytope([[1.0, 0.0]]),
                "b": Polytope([[-1.0, 0.0]]),
            },
            cost=[1.0],
        )
        with pytest.raises(HypothesisViolatedError):
            st.ValueLipschitzChecker(rp)

import numpy as np
import pytest

from robust_stability import lp
from robust_stability.errors import DimensionMismatchError, NumericalBreakdownError

import rational_simplex


def _lp(cost, rows):
    """min <cost, x> s.t. <a, x> >= b for each stacked row [a | b] of rows."""
    rows = np.array(rows, dtype=float).reshape(len(rows), len(cost) + 1)
    return lp.LinearProgram(np.array(cost, dtype=float), rows[:, :-1], rows[:, -1])


class TestSolve:
    def test_simple_optimal(self):
        res = lp.solve(_lp([1.0], [[1.0, 1.0]]))
        assert res.status == lp.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.solution == pytest.approx([1.0], abs=1e-12)

    def test_infeasible(self):
        res = lp.solve(_lp([1.0], [[-1.0, 0.0], [1.0, 1.0]]))
        assert res.status == lp.INFEASIBLE
        assert res.value == np.inf
        # Farkas: w >= 0, A'w = 0, b'w > 0
        w = res.dual_weights
        A = np.array([[-1.0], [1.0]])
        b = np.array([0.0, 1.0])
        assert np.all(w >= 0)
        assert np.abs(A.T @ w).max() <= 1e-8
        assert b @ w > 1e-9

    def test_unbounded(self):
        res = lp.solve(_lp([-1.0], [[1.0, 0.0]]))
        assert res.status == lp.UNBOUNDED
        assert res.value == -np.inf

    def test_no_rows(self):
        assert lp.solve(_lp([0.0, 0.0], [])).status == lp.OPTIMAL
        assert lp.solve(_lp([1.0], [])).status == lp.UNBOUNDED

    def test_no_variables(self):
        # rows <0, x> >= b over an empty x: feasible iff every b <= 0
        feasible = lp.LinearProgram(np.zeros(0), np.zeros((1, 0)), np.array([-1.0]))
        assert lp.solve(feasible).status == lp.OPTIMAL
        infeasible = lp.LinearProgram(np.zeros(0), np.zeros((2, 0)), np.array([0.0, 2.0]))
        res = lp.solve(infeasible)
        assert res.status == lp.INFEASIBLE and res.dual_weights @ infeasible.rhs > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lp.LinearProgram(np.array([1.0, 2.0]), np.array([[1.0]]), np.array([0.0]))

    def test_certificates_random(self, rng):
        """Weak duality and Farkas residuals on random dense LPs."""
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 10))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            c = rng.normal(size=n)
            res = lp.solve(lp.LinearProgram(c, A, b))
            if res.status == lp.OPTIMAL:
                x, y = res.solution, res.dual_weights
                assert float(np.max(b - A @ x, initial=0.0)) <= 1e-8
                assert np.abs(A.T @ y - c).max() <= 1e-7
                assert b @ y <= res.value + 1e-8  # weak duality
                assert abs(b @ y - res.value) <= 1e-7  # strong, in fact
            elif res.status == lp.INFEASIBLE:
                y = res.dual_weights
                assert np.all(y >= 0)
                assert np.abs(A.T @ y).max() <= 1e-8 * max(1.0, y.sum())
                assert b @ y > 1e-10

    def test_determinism(self):
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 8))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            c = rng.normal(size=n)
            prob = lp.LinearProgram(c, A, b)
            r1, r2 = lp.solve(prob), lp.solve(prob)
            assert r1.status == r2.status
            assert r1.value == r2.value
            if r1.status == lp.OPTIMAL:
                assert r1.solution.tobytes() == r2.solution.tobytes()
                assert r1.dual_weights.tobytes() == r2.dual_weights.tobytes()
                solved += 1
        assert solved > 0


class TestCertificates:
    """Certificates read off the final tableau, checked on the original data."""

    def test_farkas_mixed_sign_rhs(self, rng):
        # <a, x> >= 1 and <-a, x> >= 0 clash; the other rows have either sign
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=n)
            A = np.vstack([a, -a, rng.normal(size=(int(rng.integers(1, 6)), n))])
            b = np.concatenate([[1.0, 0.0], rng.normal(size=A.shape[0] - 2)])
            res = lp.solve(lp.LinearProgram(rng.normal(size=n), A, b))
            assert res.status == lp.INFEASIBLE
            w = res.dual_weights
            assert np.all(w >= 0)
            assert np.abs(A.T @ w).max() <= 1e-8 * max(1.0, w.sum())
            assert b @ w > 1e-10

    def test_duals_without_artificials(self, rng, monkeypatch):
        # every b <= 0: x = 0 is feasible, so only phase 2 runs
        phases = []
        real_loop = lp._pivot_loop

        def loop(*args, bounded=False):
            phases.append(1 if bounded else 2)
            return real_loop(*args, bounded=bounded)

        monkeypatch.setattr(lp, "_pivot_loop", loop)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            box = np.vstack([np.eye(n), -np.eye(n)])
            A = np.vstack([rng.normal(size=(int(rng.integers(0, 6)), n)), box])
            b = -rng.uniform(0.0, 3.0, size=A.shape[0])
            c = rng.normal(size=n)
            phases.clear()
            res = lp.solve(lp.LinearProgram(c, A, b))
            assert phases == [2]
            assert res.status == lp.OPTIMAL
            x, w = res.solution, res.dual_weights
            assert np.all(w >= 0)
            assert np.max(b - A @ x) <= 1e-9
            assert np.abs(A.T @ w - c).max() <= 1e-9
            assert abs(b @ w - res.value) <= 1e-9
            assert np.abs(w * (A @ x - b)).max() <= 1e-9

    def test_rational_agreement_nonpositive_rhs(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            A = rng.integers(-3, 4, size=(m, n))
            b = rng.integers(-3, 1, size=m)
            c = rng.integers(-3, 4, size=n)
            res = lp.solve(lp.LinearProgram(c.astype(float), A.astype(float), b.astype(float)))
            status, value = rational_simplex.solve_status(
                c.tolist(), list(zip(A.tolist(), b.tolist()))
            )
            assert res.status == status
            if status == lp.OPTIMAL:
                assert res.value == pytest.approx(float(value), abs=1e-9)

    def test_artificials_left_basic(self):
        # x >= 1 twice and x <= 1: phase 1 ends with artificials basic at 0,
        # which must leave the basis before phase 2
        A = np.array([[1.0], [1.0], [-1.0]])
        b = np.array([1.0, 1.0, -1.0])
        res = lp.solve(lp.LinearProgram(np.array([1.0]), A, b))
        assert res.status == lp.OPTIMAL
        assert res.value == 1.0 and res.solution.tolist() == [1.0]
        w = res.dual_weights
        assert np.all(w >= 0) and A.T @ w == pytest.approx([1.0]) and b @ w == 1.0

    @staticmethod
    def _corrupt_loop(monkeypatch, corrupt):
        real_loop = lp._pivot_loop

        def loop(T, *args, **kw):
            return corrupt(T, real_loop(T, *args, **kw))

        monkeypatch.setattr(lp, "_pivot_loop", loop)

    def test_self_check_rejects_bad_optimum(self, monkeypatch):
        def shift_basic_values(T, enter):
            T[:-1, -1] += 0.5
            return enter

        self._corrupt_loop(monkeypatch, shift_basic_values)
        prob = _lp([1.0, 1.0], [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        with pytest.raises(NumericalBreakdownError):
            lp.solve(prob)

    def test_self_check_rejects_bad_ray(self, monkeypatch):
        # claim that the first column prices out with no blocking row
        self._corrupt_loop(monkeypatch, lambda T, enter: 0)
        prob = _lp([-1.0], [[-1.0, -1.0]])  # min -x s.t. x <= 1
        with pytest.raises(NumericalBreakdownError):
            lp.solve(prob)


def _same(r1, r2):
    """Bit-identical results, arrays compared by their bytes."""
    assert (r1.status, r1.value) == (r2.status, r2.value)
    for f in ("solution", "dual_weights", "active"):
        a, b = getattr(r1, f), getattr(r2, f)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


class TestStart:
    """solve(start=): a candidate active set is certified or falls back."""

    @pytest.fixture
    def pivots(self, monkeypatch):
        count = [0]
        real_loop = lp._pivot_loop

        def loop(*args, **kw):
            count[0] += 1
            return real_loop(*args, **kw)

        monkeypatch.setattr(lp, "_pivot_loop", loop)
        return count

    def test_own_active_set(self, rng, pivots):
        tried = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 10))
            A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
            prob = lp.LinearProgram(c, A, b)
            cold = lp.solve(prob)
            if cold.status != lp.OPTIMAL or cold.active is None:
                continue
            assert cold.active.size == n
            pivots[0] = 0
            warm = lp.solve(prob, start=cold.active)
            assert pivots[0] == 0
            assert warm.status == lp.OPTIMAL
            assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
            assert warm.active.tolist() == cold.active.tolist()
            tried += 1
        assert tried > 50

    @pytest.mark.parametrize(
        "cost, rows, start",
        [
            # stale dual: y = -1e-8 for row 0, inside the checks' 1e-7 noise
            ([-1e-8], [[1.0, 0.0], [-1.0, -1.0]], [0]),
            # stale primal: row 1's slack is -1e-8, inside the checks' noise
            ([1.0], [[1.0, 0.0], [1.0, 1e-8]], [0]),
            # far from optimal
            ([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -4.0]], [0, 2]),
        ],
    )
    def test_stale_start_gives_cold_result(self, cost, rows, start, pivots):
        prob = _lp(cost, rows)
        cold = lp.solve(prob)
        assert cold.active.tolist() != start
        runs = pivots[0]
        _same(lp.solve(prob, start=start), cold)
        assert pivots[0] == 2 * runs  # the simplex ran again

    @pytest.mark.parametrize(
        "start",
        [[0, 1], [2, 2], [0, 3], [-1, 2], [2], [0, 1, 2], np.array([0, 99])],
        ids=["singular", "repeated", "out-of-range", "negative", "short", "long", "array"],
    )
    def test_bad_start_falls_back(self, start):
        # rows 0 and 1 are parallel, so {0, 1} is singular
        rows = [[1.0, 0.0, 0.0], [2.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        prob = _lp([1.0, 1.0], rows)
        _same(lp.solve(prob, start=start), lp.solve(prob))

    def test_failed_check_falls_back(self, monkeypatch, pivots):
        # the checks behind the sign tests fail only under gross rounding, so
        # stand in a failing first check: the start must give way to the simplex
        prob = _lp([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -4.0]])
        cold = lp.solve(prob)
        verdicts = iter(["dual"])
        real_check = lp._failed_check
        monkeypatch.setattr(
            lp, "_failed_check", lambda *a: next(verdicts, None) or real_check(*a)
        )
        pivots[0] = 0
        _same(lp.solve(prob, start=cold.active), cold)
        assert pivots[0] > 0

    def test_no_rows_falls_back(self):
        for cost in ([0.0, 0.0], [1.0, 0.0]):
            _same(lp.solve(_lp(cost, []), start=[0, 1]), lp.solve(_lp(cost, [])))

    def test_infeasible_and_unbounded_keep_certificates(self):
        infeasible = _lp([1.0], [[1.0, 1.0], [-1.0, 0.0]])
        res = lp.solve(infeasible, start=[0])
        assert res.status == lp.INFEASIBLE
        _same(res, lp.solve(infeasible))
        assert res.dual_weights @ infeasible.rhs > 0
        unbounded = _lp([-1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        res = lp.solve(unbounded, start=[0, 1])
        assert res.status == lp.UNBOUNDED
        _same(res, lp.solve(unbounded))

    def test_degenerate_reference_with_ties(self, pivots):
        # three rows tie at the optimum x = 0; c is parallel to row 2, so the
        # duals may be positive on fewer than n rows, but every pair of the
        # three is an optimal basis
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, -1.0, -3.0]]
        prob = _lp([1.0, 1.0], rows)
        cold = lp.solve(prob)
        assert cold.status == lp.OPTIMAL and cold.active.size == 2
        assert set(cold.active.tolist()) <= {0, 1, 2}
        pivots[0] = 0
        for start in ([0, 1], [0, 2], [1, 2], [2, 0]):
            warm = lp.solve(prob, start=start)
            assert warm.value == cold.value == 0.0
            assert warm.active.tolist() == start
            assert (warm.dual_weights > 0).sum() <= 2
        assert pivots[0] == 0
        # a perturbed copy, where only some of the tied bases stay optimal
        moved = _lp([1.0, 1.0], [[1.0, 1e-3, 0.0], *rows[1:]])
        _same_value = lp.solve(moved, start=cold.active)
        assert _same_value.status == lp.OPTIMAL
        assert _same_value.value == pytest.approx(lp.solve(moved).value, abs=1e-15)

    def test_rational_agreement_of_warm_results(self, rng):
        accepted = 0
        for _ in range(150):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            box = np.vstack([np.eye(n), -np.eye(n)]).astype(int)
            A = np.vstack([rng.integers(-3, 4, size=(m, n)), box])
            b = np.concatenate([rng.integers(-3, 2, size=m), np.full(2 * n, -4)])
            c = rng.integers(-3, 4, size=n)
            ref = lp.solve(lp.LinearProgram(c.astype(float), A.astype(float), b.astype(float)))
            if ref.active is None:
                continue
            # an integer perturbation of the data, solved from ref's basis
            A2 = A + rng.integers(-1, 2, size=A.shape) * (rng.random(A.shape) < 0.2)
            b2 = b + rng.integers(-1, 2, size=b.shape) * (rng.random(b.shape) < 0.2)
            prob = lp.LinearProgram(c.astype(float), A2.astype(float), b2.astype(float))
            res = lp.solve(prob, start=ref.active)
            accepted += res.active is not None and res.active.tolist() == ref.active.tolist()
            status, value = rational_simplex.solve_status(
                c.tolist(), list(zip(A2.tolist(), b2.tolist()))
            )
            assert res.status == status
            if status == lp.OPTIMAL:
                assert res.value == pytest.approx(float(value), abs=1e-9)
        assert accepted > 20


class TestSlater:
    def test_interval(self):
        cert = lp.slater_constant(np.array([[1.0, 0.0], [-1.0, -2.0]]))
        assert cert.rho == pytest.approx(1.0, abs=1e-9)
        assert cert.point == pytest.approx([1.0], abs=1e-8)
        assert not cert.capped

    def test_no_slack(self):
        assert lp.slater_constant(np.array([[1.0, 0.0], [-1.0, 0.0]])) is None

    def test_constant_row_bounds_slack(self):
        # <0, x> >= -1 has fixed slack 1 for every x, so rho* = 1
        cert = lp.slater_constant(np.array([[0.0, -1.0]]))
        assert cert.rho == pytest.approx(1.0, abs=1e-9)
        assert not cert.capped

    def test_unbounded_slack_is_capped(self):
        cert = lp.slater_constant(np.array([[1.0, 0.0]]))
        assert cert.capped
        assert cert.rho == pytest.approx(1e6, rel=1e-6)

    def test_monotone_and_scaling(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            rows = np.array([np.append(rng.normal(size=n), rng.uniform(-2, 0)) for _ in range(m)])
            cert = lp.slater_constant(rows)
            if cert is None:
                continue
            # adding a row never increases rho*
            more = np.vstack([rows, np.append(rng.normal(size=n), rng.uniform(-2, 0))])
            cert2 = lp.slater_constant(more)
            rho2 = cert2.rho if cert2 is not None else 0.0
            assert rho2 <= cert.rho + 1e-8
            # scaling rows by s scales rho* by s (away from the cap)
            if not cert.capped:
                s = float(rng.uniform(0.5, 2.0))
                scaled = s * rows
                cert3 = lp.slater_constant(scaled)
                assert cert3.rho == pytest.approx(s * cert.rho, abs=1e-7)

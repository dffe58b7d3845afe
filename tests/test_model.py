import numpy as np
import pytest

from robust_stability import lp
from robust_stability import model as md
from robust_stability.errors import DimensionMismatchError, IndexMismatchError
from robust_stability.geometry import Polytope, hausdorff

from conftest import random_feasible_instance, shifted_instance


def two_unit_rows():
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def system(rows, labels=("t1", "t2"), cost=(0.0, 0.0)):
    return md.LsioProblem(cost=cost, rows=rows, labels=labels)


class TestLsioProblem:
    def test_rows_and_labels(self):
        p = system(two_unit_rows(), cost=[1.0, 0.0])
        assert p.rows.shape == (2, 3) and p.labels == ("t1", "t2") and p.dim == 2
        lp_ = p.to_lp()
        assert lp_.a_matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert lp_.rhs.tolist() == [0.0, 0.0]

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            system(two_unit_rows(), ("t1",))
        with pytest.raises(ValueError, match="labels"):
            system(two_unit_rows(), ("t1", "t2", "t3"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            system(two_unit_rows(), ("t1", "t1"))

    @pytest.mark.parametrize("width", [2, 4])
    def test_rejects_width_other_than_n_plus_1(self, width):
        with pytest.raises(DimensionMismatchError):
            system(np.zeros((2, width)))
        with pytest.raises(DimensionMismatchError):
            system(np.zeros(width), ("t1",))  # one row, not stacked


class TestRobustCounterpart:
    def test_segment_set(self):
        rp = md.RobustProblem(
            constraint_sets={"u": Polytope([[1.0, 1.0], [2.0, 1.0]])}, cost=[1.0]
        )
        cp = md.robust_counterpart(rp)
        assert sorted(map(tuple, cp.rows.tolist())) == [(1.0, 1.0), (2.0, 1.0)]
        assert cp.labels == ("u#0", "u#1")
        assert lp.solve(cp.to_lp()).value == pytest.approx(1.0, abs=1e-10)

    def test_singleton_is_nominal(self):
        rp = md.RobustProblem(
            constraint_sets={"u": Polytope([[3.0, 2.0, -1.0]])}, cost=[1.0, 1.0]
        )
        cp = md.robust_counterpart(rp)
        assert cp.rows.shape == (1, 3)
        assert cp.rows[0, :-1] == pytest.approx([3.0, 2.0])
        assert cp.rows[0, -1] == -1.0

    def test_two_singletons(self):
        rp = md.RobustProblem(
            constraint_sets={
                "a": Polytope([[1.0, 0.0]]),
                "b": Polytope([[-1.0, -2.0]]),
            },
            cost=[1.0],
        )
        got = sorted(map(tuple, md.robust_counterpart(rp).rows.tolist()))
        assert got == [(-1.0, -2.0), (1.0, 0.0)]

    def test_feasibility_equivalence(self, rng):
        """Membership in the counterpart equals worst-case vertex satisfaction."""
        rp = md.RobustProblem(
            constraint_sets={
                "a": Polytope(rng.normal(size=(3, 3))),
                "b": Polytope(rng.normal(size=(4, 3))),
            },
            cost=[1.0, 0.0],
        )
        cp = md.robust_counterpart(rp)
        for _ in range(1000):
            x = rng.normal(size=2) * 2
            in_cp = all(r[:-1] @ x >= r[-1] for r in cp.rows)
            in_rp = all(
                min(v[:-1] @ x - v[-1] for v in U.vertices) >= 0
                for U in rp.constraint_sets.values()
            )
            assert in_cp == in_rp

    def test_monotone_in_vertices(self, rng):
        for _ in range(20):
            base = rng.normal(size=(2, 3))
            base[:, -1] = -np.abs(base[:, -1]) - 0.3
            box = [
                Polytope([[1.0, 0.0, -4.0]]),
                Polytope([[-1.0, 0.0, -4.0]]),
                Polytope([[0.0, 1.0, -4.0]]),
                Polytope([[0.0, -1.0, -4.0]]),
            ]
            sets = {"u": Polytope(base)}
            sets.update({f"b{i}": P for i, P in enumerate(box)})
            rp = md.RobustProblem(constraint_sets=sets, cost=rng.normal(size=2))
            v1 = lp.solve(md.robust_counterpart(rp).to_lp()).value
            extra = rng.normal(size=(1, 3))
            extra[:, -1] = -np.abs(extra[:, -1]) - 0.3
            sets2 = dict(sets)
            sets2["u"] = Polytope(np.vstack([base, extra]))
            rp2 = md.RobustProblem(constraint_sets=sets2, cost=rp.cost)
            v2 = lp.solve(md.robust_counterpart(rp2).to_lp()).value
            assert v2 >= v1 - 1e-9


class TestEpigraphReform:
    def test_singleton_cost(self):
        rp = md.RobustProblem(
            constraint_sets={"u": Polytope([[1.0, 1.0]])},
            cost_set=Polytope([[1.0]]),
        )
        ref = md.epigraph_reform(rp)
        v = lp.solve(md.robust_counterpart(ref).to_lp()).value
        nominal = md.RobustProblem(
            constraint_sets={"u": Polytope([[1.0, 1.0]])}, cost=[1.0]
        )
        assert v == pytest.approx(
            lp.solve(md.robust_counterpart(nominal).to_lp()).value, abs=1e-10
        )

    def test_interval_cost(self):
        # C = conv{1, 2}, x in [1, 2]: min_x max(x, 2x) = 2 at x = 1
        rp = md.RobustProblem(
            constraint_sets={
                "lo": Polytope([[1.0, 1.0]]),
                "hi": Polytope([[-1.0, -2.0]]),
            },
            cost_set=Polytope([[1.0], [2.0]]),
        )
        v = lp.solve(md.robust_counterpart(md.epigraph_reform(rp)).to_lp()).value
        assert v == pytest.approx(2.0, abs=1e-10)

    def test_zero_cost(self):
        rp = md.RobustProblem(
            constraint_sets={
                "lo": Polytope([[1.0, 0.0]]),
                "hi": Polytope([[-1.0, -2.0]]),
            },
            cost_set=Polytope([[0.0]]),
        )
        v = lp.solve(md.robust_counterpart(md.epigraph_reform(rp)).to_lp()).value
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_against_grid(self, rng):
        """Value equals brute-force min over x-grid of max over cost vertices."""
        for _ in range(5):
            C = Polytope(rng.normal(size=(3, 2)))
            sets = {
                "a": Polytope([[1.0, 0.0, 0.0]]),
                "b": Polytope([[-1.0, 0.0, -2.0]]),
                "c": Polytope([[0.0, 1.0, 0.0]]),
                "d": Polytope([[0.0, -1.0, -2.0]]),
            }
            rp = md.RobustProblem(constraint_sets=sets, cost_set=C)
            v = lp.solve(md.robust_counterpart(md.epigraph_reform(rp)).to_lp()).value
            xs = np.linspace(0, 2, 81)
            grid = min(
                max(c @ np.array([x1, x2]) for c in C.vertices)
                for x1 in xs
                for x2 in xs
            )
            assert abs(v - grid) <= 1e-4 + 0.05  # coarse grid; sanity band
            assert v <= grid + 1e-9


class TestDeltaSigma:
    def test_identical(self):
        s = system(two_unit_rows())
        assert md.delta_sigma(s, s) == 0.0

    def test_matched_indexing(self):
        s1 = system(two_unit_rows())
        s2 = system(two_unit_rows())
        assert md.delta_sigma(s1, s2) == 0.0

    def test_swapped_indexing(self):
        s1 = system(two_unit_rows())
        s2 = system(two_unit_rows()[::-1])
        assert md.delta_sigma(s1, s2) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_index_mismatch(self):
        with pytest.raises(IndexMismatchError):
            md.delta_sigma(system(two_unit_rows()), system(two_unit_rows()[:1], ("t1",)))

    def test_metric(self, rng):
        labels = ["a", "b", "c"]
        def random_system():
            rows = np.array([np.append(rng.normal(size=2), rng.normal()) for l in labels])
            return system(rows, labels)
        for _ in range(30):
            s1, s2, s3 = random_system(), random_system(), random_system()
            assert md.delta_sigma(s1, s2) == md.delta_sigma(s2, s1)
            assert md.delta_sigma(s1, s3) <= (
                md.delta_sigma(s1, s2) + md.delta_sigma(s2, s3) + 1e-9
            )


class TestDeltaPi:
    def test_identical(self):
        p = system(two_unit_rows(), cost=[1.0, 0.0])
        assert md.delta_pi(p, p) == 0.0

    def test_cost_dominates(self):
        p1 = system(two_unit_rows(), cost=[1.0, 0.0])
        p2 = system(two_unit_rows(), cost=[0.0, 1.0])
        assert md.delta_pi(p1, p2) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_swapped_system_equal_costs(self):
        p1 = system(two_unit_rows(), cost=[1.0, 1.0])
        p2 = system(two_unit_rows()[::-1], cost=[1.0, 1.0])
        assert md.delta_pi(p1, p2) == pytest.approx(np.sqrt(2), abs=1e-12)


class TestConstraintwiseDistance:
    def square(self):
        return Polytope([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])

    def test_identity(self):
        rp = md.RobustProblem(constraint_sets={"a": self.square()}, cost=[1.0, 0.0])
        assert md.constraintwise_distance(rp, rp) == 0.0

    def test_single_shift(self):
        U = self.square()
        rpU = md.RobustProblem(
            constraint_sets={"a": U, "b": U}, cost=[1.0, 0.0]
        )
        rpV = md.RobustProblem(
            constraint_sets={"a": U.translated([0.5, 0, 0]), "b": U},
            cost=[1.0, 0.0],
        )
        assert md.constraintwise_distance(rpU, rpV) == pytest.approx(0.5, abs=1e-10)

    def test_max_of_shifts(self):
        U = self.square()
        rpU = md.RobustProblem(constraint_sets={"a": U, "b": U}, cost=[1.0, 0.0])
        rpV = md.RobustProblem(
            constraint_sets={
                "a": U.translated([0.3, 0, 0]),
                "b": U.translated([0.5, 0, 0]),
            },
            cost=[1.0, 0.0],
        )
        assert md.constraintwise_distance(rpU, rpV) == pytest.approx(0.5, abs=1e-10)


    def test_wolfe_calls(self, rng, min_norm_point_calls):
        """Every set is translated by 0.05.  A box row is a one-vertex set
        whose bound is its distance, and no other set's bound lies above the
        largest of those, so the scan over all sets needs no Wolfe solve.
        One scan per set took 8 solves, and full scans without bounds 20."""
        rp = random_feasible_instance(rng, n=2)
        rpV = shifted_instance(rp, rng, 0.05)
        assert md.constraintwise_distance(rp, rpV) == pytest.approx(0.05, abs=1e-12)
        assert min_norm_point_calls[0] == 0


class TestConstraintwiseDistanceMatchesFullScan:
    """d_nat skips every set whose nearest-vertex bound is strictly below the
    running maximum; it must be the largest per-set distance, float for
    float."""

    @staticmethod
    def problems(U_sets, V_sets):
        n = U_sets[0].shape[1] - 1
        def rp(sets):
            return md.RobustProblem(
                constraint_sets={f"s{i}": Polytope(V) for i, V in enumerate(sets)},
                cost=np.ones(n),
            )
        return rp(U_sets), rp(V_sets)

    def assert_same(self, U_sets, V_sets):
        rpU, rpV = self.problems(U_sets, V_sets)
        want = max(
            hausdorff(rpU.constraint_sets[a], rpV.constraint_sets[a])
            for a in rpU.constraint_sets
        )
        assert md.constraintwise_distance(rpU, rpV) == want
        return want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_instances(self, rng, n):
        def random_set():
            return rng.normal(size=(int(rng.integers(1, 5)), n + 1))
        for _ in range(40):
            U = [random_set() for _ in range(int(rng.integers(1, 7)))]
            self.assert_same(U, [random_set() for _ in U])
            self.assert_same(U, [V + 0.1 * rng.normal(size=n + 1) for V in U])
            self.assert_same(U, [V * rng.uniform(0.5, 1.5) for V in U])
            self.assert_same(U, [V + 0.05 * rng.normal(size=V.shape) for V in U])

    def test_translates_tie(self, min_norm_point_calls):
        """Every set is the same exact translate, so every bound ties with
        the running maximum; ties are projected, as in one set's scan."""
        square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        U = [square, square[:3] + 2.0, square[:2] - 1.0]
        w = np.array([0.5, 0.0, 0.0])
        assert self.assert_same(U, [V + w for V in U]) == 0.5
        min_norm_point_calls[0] = 0
        rpU, rpV = self.problems(U, [V + w for V in U])
        md.constraintwise_distance(rpU, rpV)
        assert min_norm_point_calls[0] == 18  # one per vertex of U and of V

    def test_one_vertex_sets(self, rng):
        for _ in range(20):
            point = rng.normal(size=(1, 3))
            many = rng.normal(size=(int(rng.integers(2, 5)), 3))
            self.assert_same([point, many], [many, point])
            self.assert_same([point, point], [point + 0.1, many])

    def test_identical_problems(self, rng):
        U = [rng.normal(size=(k, 3)) for k in (1, 2, 3, 4)]
        assert self.assert_same(U, U) == 0.0

    def test_bound_just_below_another_distance(self, min_norm_point_calls):
        """A segment translated by 1 - 1e-9 is never projected once a
        one-vertex pair at distance 1 has been seen."""
        segment = np.array([[0.0, 0.0], [0.0, 1.0]])
        U = [np.array([[0.0, 0.0]]), segment]
        V = [np.array([[1.0, 0.0]]), segment + [1.0 - 1e-9, 0.0]]
        assert self.assert_same(U, V) == 1.0
        min_norm_point_calls[0] = 0
        md.constraintwise_distance(*self.problems(U, V))
        assert min_norm_point_calls[0] == 0

    def test_bound_above_a_smaller_distance(self):
        """The crossed segments have bound sqrt(2) but distance 1, and are
        visited first; the point pair at 1.05 must still be visited."""
        U = [np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0]])]
        V = [np.array([[0.0, -1.0], [0.0, 1.0]]), np.array([[1.05, 0.0]])]
        assert self.assert_same(U, V) == 1.05

    def test_larger_distance_listed_last(self):
        U = [np.array([[0.0, 0.0]])] * 3
        V = [np.array([[0.5, 0.0]]), np.array([[0.2, 0.0]]), np.array([[0.9, 0.0]])]
        assert self.assert_same(U, V) == 0.9


class TestPiEquivalent:
    def test_permuted_duplicate(self):
        p1 = system(two_unit_rows(), cost=[1.0, 0.0])
        p2 = system(two_unit_rows()[[1, 0, 0]], ("x", "y", "z"), cost=[1.0, 0.0])
        assert md.pi_equivalent(p1, p2)

    def test_extra_trivial_row_breaks_it(self):
        p1 = system(two_unit_rows(), cost=[1.0, 0.0])
        p2 = system(
            np.vstack([two_unit_rows(), [0.0, 0.0, -1.0]]),
            ("t1", "t2", "triv"),
            cost=[1.0, 0.0],
        )
        assert not md.pi_equivalent(p1, p2)

    def test_different_costs(self):
        p1 = system(two_unit_rows(), cost=[1.0, 0.0])
        p2 = system(two_unit_rows(), cost=[0.0, 1.0])
        assert not md.pi_equivalent(p1, p2)

    def test_equivalent_problems_share_value(self, rng):
        for _ in range(10):
            rows = np.array([np.append(rng.normal(size=2), rng.uniform(-2, 0)) for i in range(4)])
            cost = rng.normal(size=2)
            perm = np.vstack([rows[rng.permutation(4)], rows[:1]])
            p1 = system(rows, [f"r{i}" for i in range(4)], cost=cost)
            p2 = system(perm, [f"p{i}" for i in range(4)] + ["dup"], cost=cost)
            assert md.pi_equivalent(p1, p2)
            v1 = lp.solve(p1.to_lp())
            v2 = lp.solve(p2.to_lp())
            assert v1.status == v2.status
            if v1.status == lp.OPTIMAL:
                assert abs(v1.value - v2.value) <= 1e-9

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
NO_BOUND = (np.inf, np.inf)  # _settle bounds that never skip a projection


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
        """Stacked (t, s) rows through the sampler's path: _settle's
        memberships and the one distance sigma_{U;V} reads, Wolfe's bits."""
        U = unit_square()
        V = U.translated([3.0, 0.0])

        def settle(ts):
            t = np.array(ts)
            inside = tf._memberships(t[None], [2], (None, None))[0]
            return tf._settle(t, U, V, inside, (False,) * 4, NO_BOUND, 0.0)

        assert settle([0.5, 0.5])[:2] == (True, False)
        in_u, in_v, dist_u, _ = settle([3.5, 0.5])
        assert (in_u, in_v) == (False, True)
        assert bits(dist_u) == bits(project_onto_polytope(np.array([3.5, 0.5]), U)[1])
        assert dist_u == pytest.approx(2.5, abs=1e-7)
        assert settle([9.0, 9.0])[:2] == (False, False)


def eager_sample_index_points(U, V, plan):
    """The sampler with both projections made for every point, drawing
    through the sampler's own block helper: the reference the lazy sampler
    must match bit for bit."""

    def classify(t):
        du = project_onto_polytope(t, U)[1]
        dv = project_onto_polytope(t, V)[1]
        for d in (du, dv):
            if tf._MEMBERSHIP_TOL < d <= tf._MEMBERSHIP_TOL + tf._AMBIGUITY_BAND:
                return None
        return du <= tf._MEMBERSHIP_TOL, dv <= tf._MEMBERSHIP_TOL, du, dv

    rng = np.random.default_rng(plan.seed)
    out, far = [], (np.zeros(len(U.vertices)), np.zeros(len(V.vertices)))
    for v in list(U.vertices) + list(V.vertices):
        cls = classify(v)
        if cls is not None:
            out.append((v, *cls))
    all_v = np.vstack([U.vertices, V.vertices])
    lo = all_v.min(axis=0) - tf._BOX_MARGIN
    hi = all_v.max(axis=0) + tf._BOX_MARGIN
    want = list(plan.counts)
    got = [0, 0, 0, 0]
    stall = 0
    while any(g < w for g, w in zip(got, want)) and stall < 200:
        for t in tf._draw_block(rng, U, V, lo, hi, far)[1]:  # far: bounds only
            cls = classify(t)
            if cls is None:
                stall += 1
            else:
                in_u, in_v = cls[0], cls[1]
                region = 0 if (in_u and in_v) else 1 if in_u else 2 if in_v else 3
                if got[region] < want[region]:
                    got[region] += 1
                    stall = 0
                    out.append((t, *cls))
                else:
                    stall += 1
            if stall == 200 or all(g >= w for g, w in zip(got, want)):
                break
    return out


def bits(x):
    """The bytes of x, None for a distance that was not projected."""
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def vertex_max(U, V):
    """The largest distance from a vertex outside the other set to that
    set: the sup the vertex pass samples."""
    ds = [project_onto_polytope(v, Q)[1] for P, Q in ((U, V), (V, U)) for v in P.vertices]
    return max((d for d in ds if d > tf._MEMBERSHIP_TOL + tf._AMBIGUITY_BAND), default=0.0)


class TestLazySamplerMatchesEager:
    """The sampler skips projections whose answer is known or cannot raise
    the sampled sup; every point, membership and distance it projects must
    be the eager sampler's.  Every distance sigma reads is projected or
    skipped; a skipped one is at most its bound (to rounding), which lies
    strictly below the vertex maximum, and at most that maximum, so no skip
    moves the sampled sup."""

    def assert_same(self, U, V, plan):
        """Returns the lazy sampler's points and how many reads it skipped."""
        bounds, real = {}, tf._draw_block
        def recording(*args):
            block = real(*args)
            bounds.update(zip(map(bits, block[1]), block[2]))
            return block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tf, "_draw_block", recording)
            lazy = tf._sample_index_points(U, V, plan)[0]
        eager = eager_sample_index_points(U, V, plan)
        assert len(lazy) == len(eager)
        top, skipped = vertex_max(U, V), 0
        for (t, in_u, in_v, du, dv), (t0, in_u0, in_v0, du0, dv0) in zip(lazy, eager):
            assert bits(t) == bits(t0)
            assert (in_u, in_v) == (in_u0, in_v0)
            for d, d0 in ((du, du0), (dv, dv0)):
                if d is not None:
                    assert bits(d) == bits(d0)
            if tf._gap(in_u, in_v, du, dv) is None:  # the read was skipped
                skipped += 1
                bound = bounds[bits(t)][1 if in_u else 0]
                d0 = tf._gap(in_u, in_v, du0, dv0)
                # convexity bounds the exact distance; Wolfe's may exceed it
                # by rounding (an ulp on the disjoint squares), never past top
                assert d0 <= bound + 1e-9 and bound < top and d0 <= top
        return lazy, skipped

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
        out = self.assert_same(U, V, LEAN_PLAN)[0]
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
        # a one-vertex set's draws are its vertex, bounded by that vertex's
        # distance: below the vertex maximum sqrt(5) their reads are skipped,
        # and two points' draws tie with it, so each is projected
        outside = Polytope([[2.0, 0.0]])
        lazy = self.assert_same(outside, unit_square(), LEAN_PLAN)[0]
        draws = [dv for t, _, _, _, dv in lazy[5:] if bits(t) == bits(outside.vertices[0])]
        assert draws and all(dv is None for dv in draws)  # after the 5 vertices
        lazy, skipped = self.assert_same(point, outside, LEAN_PLAN)
        assert skipped == 0 and len(lazy) > 2

    def test_sets_without_facets(self, rng):
        """Without a facet list every membership is projected, so a read of
        the distance to that set is never skipped; reads of the distance to a
        set with facets still are."""
        U5 = random_polytope(rng, 5, max_vertices=9)
        many = Polytope(rng.normal(size=(70, 2)))
        assert facets(U5) is None and facets(many) is None
        plan = tf.SamplePlan(seed=1, counts=(5, 5, 5, 5))
        pairs = [(U5, U5.translated(0.3 * rng.normal(size=5))),
                 (many, unit_square()), (unit_square(), many)]
        for U, V in pairs:
            lazy, skipped = self.assert_same(U, V, plan)
            listed = (facets(U) is not None, facets(V) is not None)
            for t, in_u, in_v, du, dv in lazy:
                if in_u != in_v and not listed[in_u]:  # the read's set has none
                    assert tf._gap(in_u, in_v, du, dv) is not None
            assert (skipped > 0) == any(listed)


class TestStallAcrossBlocks:
    """The stall cutoff counts consecutive rejected draws across block
    boundaries, and sampling stops at the draw that fills the last region."""

    U = unit_square()
    V = unit_square().translated([3.0, 0.0])

    @pytest.fixture
    def scripted(self, monkeypatch):
        """Replaces the random stream by the given points (homes all 2),
        handed out _BLOCK at a time; returns the start of each block drawn."""
        blocks = []

        def install(points):
            T = np.array(points, dtype=float)

            def draw(rng, U, V, lo, hi, far):
                start = len(blocks) * tf._BLOCK
                blocks.append(start)
                chunk = T[start : start + tf._BLOCK]
                assert len(chunk) == tf._BLOCK, "script ran out of draws"
                return [2] * tf._BLOCK, chunk, [NO_BOUND] * tf._BLOCK

            monkeypatch.setattr(tf, "_draw_block", draw)
            return blocks

        return install

    def sampled(self, plan):
        out = tf._sample_index_points(self.U, self.V, plan)[0]
        return [t.tolist() for t, *_ in out[8:]]  # after the 8 vertices

    def test_exactly_stall_rejections(self, scripted):
        in_u, in_v, outside = [0.5, 0.5], [3.5, 0.5], [9.0, 9.0]
        # one U point fills region 1; 199 rejections; an outside point is
        # still accepted; 200 more rejections end the sampling before the
        # V point, which would have been accepted
        script = [in_u] + [in_u] * 199 + [outside] + [in_u] * 200 + [in_v]
        script += [in_v] * (-len(script) % tf._BLOCK)
        assert tf._STALL == 200
        assert 1 // tf._BLOCK != 199 // tf._BLOCK  # both stall runs span
        assert 201 // tf._BLOCK != 400 // tf._BLOCK  # a block boundary
        blocks = scripted(script)
        assert self.sampled(tf.SamplePlan(counts=(1, 1, 1, 1))) == [in_u, outside]
        assert len(blocks) == 400 // tf._BLOCK + 1

    def test_last_region_fills_mid_block(self, scripted, monkeypatch):
        in_u, in_v, edge = [0.5, 0.5], [3.5, 0.5], [0.5, 0.0]
        blocks = scripted([in_u, in_v] + [edge] * (tf._BLOCK - 2))
        settled, real = [], tf._settle
        def recording(t, *args):
            settled.append(t.tolist())
            return real(t, *args)
        monkeypatch.setattr(tf, "_settle", recording)
        assert self.sampled(tf.SamplePlan(counts=(0, 1, 1, 0))) == [in_u, in_v]
        assert len(blocks) == 1
        # the edge midpoint lies in U's facet band, so a walk that went on
        # would have settled it
        assert settled[8:] == [in_u, in_v]

    def test_disjoint_squares_stop_across_a_boundary(self, monkeypatch):
        """Real stream: the last accepted draw is followed by exactly
        _STALL drawn points before sampling stops, spanning a block boundary."""
        draws, real = [], tf._draw_block
        def recording(*args):
            block = real(*args)
            draws.extend(block[1].tolist())
            return block
        monkeypatch.setattr(tf, "_draw_block", recording)
        out = tf._sample_index_points(self.U, self.V, LEAN_PLAN)[0]
        last = draws.index(out[-1][0].tolist())
        assert len(draws) == (last + tf._STALL) // tf._BLOCK * tf._BLOCK + tf._BLOCK
        assert (last + 1) // tf._BLOCK != (last + tf._STALL) // tf._BLOCK
        eager = eager_sample_index_points(self.U, self.V, LEAN_PLAN)
        assert [bits(t) for t, *_ in out] == [bits(t) for t, *_ in eager]


class TestBlockVerdict:
    """The block facet verdict is the per-point verdict, and the
    projections' where it decides; the distances keep their bits."""

    def assert_same(self, U, V, seed=0):
        hreps = (facets(U), facets(V))
        rng = np.random.default_rng(seed)
        all_v = np.vstack([U.vertices, V.vertices])
        lo, hi = all_v.min(axis=0) - tf._BOX_MARGIN, all_v.max(axis=0) + tf._BOX_MARGIN
        far = (np.zeros(len(U.vertices)), np.zeros(len(V.vertices)))
        homes, T, _ = tf._draw_block(rng, U, V, lo, hi, far)
        homes = homes + [0] * len(U.vertices) + [1] * len(V.vertices)
        T = np.vstack([T, all_v])
        near, band_points = [], []  # within the band of a facet, and beyond it
        for i, (P, h) in enumerate(zip((U, V), hreps)):
            if h is not None:
                band = tf._FACET_BAND * h.scale
                for n, o in zip(h.normals, h.offsets):
                    on = np.abs((P.vertices - h.center) @ n - o) < 1e-9 * h.scale
                    foot = P.vertices[on].mean(axis=0)
                    near += [foot + f * band * n for f in (-2, 2)]
                    band_points += [(i, foot + f * band * n) for f in (-0.5, 0.5)]
        T = np.vstack([T, *near, *(t for _, t in band_points)])
        homes = homes + [2] * (len(near) + len(band_points))
        band_points = [i for i, _ in band_points]
        block = tf._memberships(T, homes, hreps)
        for j, i in enumerate(band_points):  # left to Wolfe
            assert block[len(T) - len(band_points) + j][i] is None
        full = (False, False, True, False)
        decided = 0
        for t, home, inside in zip(T, homes, block):
            one_row = tf._memberships(t[None], [home], hreps)[0]
            assert one_row == inside
            single = tf._settle(t, U, V, one_row, full, NO_BOUND, 0.0)
            no_facets = tf._memberships(t[None], [home], (None, None))[0]
            plain = tf._settle(t, U, V, no_facets, full, NO_BOUND, 0.0)
            settled = tf._settle(t, U, V, list(inside), full, NO_BOUND, 0.0)
            assert (single is None) == (settled is None)
            if single is not None:
                assert single[:2] == settled[:2]
                assert list(map(bits, single[2:])) == list(map(bits, settled[2:]))
            if plain is not None:
                if single is not None:
                    assert single[:2] == plain[:2]
                    for d, d0 in zip(single[2:], plain[2:]):
                        if d is not None and d0 is not None:
                            assert bits(d) == bits(d0)
                for i in (0, 1):
                    if inside[i] is not None:
                        decided += 1
                        assert inside[i] == plain[i]
        return decided

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_pairs(self, rng, dim):
        for seed in range(6):
            U = random_polytope(rng, dim, max_vertices=7)
            V = random_polytope(rng, dim, max_vertices=7, center=0.4 * rng.normal(size=dim))
            assert self.assert_same(U, V, seed) > 0

    def test_one_vertex_sets(self):
        point = Polytope([[0.5, 0.5]])
        assert facets(point) is None
        self.assert_same(point, unit_square())
        self.assert_same(unit_square(), point)

    def test_sets_without_facets(self, rng):
        U5 = random_polytope(rng, 5, max_vertices=9)
        many = Polytope(rng.normal(size=(70, 2)))
        assert facets(U5) is None and facets(many) is None
        self.assert_same(U5, U5.translated(0.3 * rng.normal(size=5)))
        self.assert_same(many, unit_square())
        self.assert_same(unit_square(), many)


class TestSkipBounds:
    """_draw_block bounds each candidate's distances to U and V, and _settle
    skips the one projection sigma reads only where that bound lies strictly
    below the running maximum; membership projections always run."""

    def draw(self, U, V, seed=0):
        far = [np.array([project_onto_polytope(v, Q)[1] for v in P.vertices])
               for P, Q in ((U, V), (V, U))]
        all_v = np.vstack([U.vertices, V.vertices])
        lo, hi = all_v.min(axis=0) - tf._BOX_MARGIN, all_v.max(axis=0) + tf._BOX_MARGIN
        return far, tf._draw_block(np.random.default_rng(seed), U, V, lo, hi, far)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bounds_hold(self, rng, dim):
        """Box draws take the nearest vertex, hull draws w . far, which lies
        between the smallest and largest vertex distance; both bound Wolfe's
        distance, and a point's distance to its home set is 0."""
        for seed in range(4):
            U = random_polytope(rng, dim, max_vertices=6)
            V = random_polytope(rng, dim, max_vertices=6, center=0.4 * rng.normal(size=dim))
            far, (homes, T, B) = self.draw(U, V, seed)
            assert set(homes) == {0, 1, 2}
            for home, t, bound in zip(homes, T, B):
                for i, P in enumerate((U, V)):
                    if home == 2:
                        nearest = np.linalg.norm(P.vertices - t, axis=1).min()
                        assert bound[i] == pytest.approx(nearest, rel=1e-12)
                    elif home == i:
                        assert bound[i] == 0.0
                    else:
                        assert far[home].min() - 1e-12 <= bound[i] <= far[home].max() + 1e-12
                    assert project_onto_polytope(t, P)[1] <= bound[i] + 1e-9

    def test_one_vertex_set_bound_is_its_vertex_distance(self):
        point = Polytope([[2.0, 0.0]])
        far, (homes, T, B) = self.draw(point, unit_square())
        assert homes.count(0) > 1
        for home, t, bound in zip(homes, T, B):
            if home == 0:
                assert bits(t) == bits(point.vertices[0])
                assert bound == [0.0, far[0][0]] and far[0][0] == 1.0

    def test_skip_needs_the_bound_strictly_below_top(self):
        U, V = unit_square(), unit_square().translated([3.0, 0.0])
        hreps = (facets(U), facets(V))

        def settle(t, bound, top, hreps=hreps):
            t = np.asarray(t, dtype=float)
            inside = tf._memberships(t[None], [2], hreps)[0]
            return tf._settle(t, U, V, inside, (False,) * 4, bound, top)

        inner = [0.5, 0.5]  # deep in U only, 2.5 from V
        assert settle(inner, (0.0, 2.5), 2.5) == (True, False, None, pytest.approx(2.5))
        assert settle(inner, (0.0, 2.7), 2.6)[3] == pytest.approx(2.5)
        assert settle(inner, (0.0, 2.5), 2.6) == (True, False, None, None)
        assert settle(inner, (9.0, 2.5), 2.6) == (True, False, None, None)
        # U's edge midpoint is in U's facet band: its membership is
        # projected even though the read of V's distance is skipped
        in_u, in_v, du, dv = settle([0.5, 0.0], (0.0, 0.0), np.inf)
        assert (in_u, in_v, dv) == (True, False, None) and du is not None
        # without facet lists both memberships are projected
        in_u, in_v, du, dv = settle(inner, (0.0, 0.0), np.inf, (None, None))
        assert (in_u, in_v) == (True, False) and du is not None and dv is not None


class TestClassifyWithFacets:
    """Memberships read off the facets are the projections' answers; points
    within the facet band are projected, and so is the one distance sigma reads."""

    @pytest.fixture
    def projected(self, monkeypatch):
        """Names of the sets ("U", "V") _settle projects onto, in order."""
        log, real = [], tf.project_onto_polytope
        def recording(t, P):
            log.append("U" if P is self.U else "V")
            return real(t, P)
        monkeypatch.setattr(tf, "project_onto_polytope", recording)
        return log

    def classify(self, projected, t, home=2):
        """_settle with the facets, checked against _settle without; t lies
        in `home` (0: U, 1: V, 2: neither)."""
        t = np.asarray(t, dtype=float)
        hreps, full = (facets(self.U), facets(self.V)), (False,) * 4
        projected.clear()
        inside = tf._memberships(t[None], [home], hreps)[0]
        got = tf._settle(t, self.U, self.V, inside, full, NO_BOUND, 0.0)
        calls = list(projected)
        no_facets = tf._memberships(t[None], [home], (None, None))[0]
        want = tf._settle(t, self.U, self.V, no_facets, full, NO_BOUND, 0.0)
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


    @pytest.mark.parametrize("s", [88, 135])
    def test_measured_is_the_vertex_distance(self, s):
        """The sampled sup is a Wolfe distance, the same one d_H reads, so
        where a vertex attains both they agree to the bit (the difference
        t - proj rounded measured 1-2 ulp away on these pairs)."""
        rng = np.random.default_rng(s)
        d = int(rng.integers(1, 5))
        U = Polytope(rng.normal(size=(d + 2, d)))
        V = Polytope(rng.normal(size=(d + 2, d)) + 0.5)
        plan = tf.SamplePlan(seed=0, counts=(5, 5, 5, 5))
        rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=plan)
        assert rep.slack == 0.0

    def test_wolfe_calls(self, min_norm_point_calls):
        """Pinned Wolfe count of one fixed check.  Projecting every point onto
        both sets and every vertex of U and V onto the other set took 144;
        deciding every membership by projection took 89; projecting the
        vertices again for d_H, after the sampler had, took 35; projecting
        every distance sigma reads, also where convexity bounds it below the
        vertex maximum, took 29."""
        U = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 1.5]])
        V = U.translated([0.5, 0.25])
        rep = tf.verify_transform_distance(U, V, b=-1.0, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed and rep.context["samples"] == 50
        assert min_norm_point_calls[0] == 9


class TestVerifyTransformDistanceMulti:
    def test_shifted_instance(self, rng):
        rp = random_feasible_instance(rng, n=2)
        rpV = shifted_instance(rp, rng, 0.05)
        rep = tf.verify_transform_distance_multi(rp, rpV, rho=0.5, plan=LEAN_PLAN)
        assert rep.passed
        assert rep.bound == pytest.approx(
            constraintwise_distance(rp, rpV), abs=1e-12
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

    def test_one_vertex_sets_sample_their_vertex(self):
        """The lo/hi box rows are one-vertex sets; their hull draws sit on the
        vertex itself (a Dirichlet weight of one vertex can read an ulp off
        1.0), so the sampled sup is the vertex distance the bound reads."""
        plan = tf.SamplePlan(counts=(5, 5, 5, 5))
        for s in range(1000, 1150):
            rng = np.random.default_rng(s)
            rp = random_feasible_instance(rng, n=1 + s % 3)
            rpV = shifted_instance(rp, rng, 0.05)
            rep = tf.verify_transform_distance_multi(rp, rpV, rho=0.5, plan=plan)
            assert rep.slack == 0.0, s

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

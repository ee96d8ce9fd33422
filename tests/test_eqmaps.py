import itertools
import math
import sys

import numpy as np
import pytest

from tverberg import circle as ci
from tverberg import eqmaps as eq
from tverberg.numbercert import ModificationPlan, bezout_certificate, certificate_to_plan


def plan_of(r, steps):
    return ModificationPlan(r, steps)


def one_step(r, k, sign=-1):
    """The map of the one-step plan k:sign."""
    return eq.build_from_plan(plan_of(r, ((k, sign),)))[0]


def bump_rho(x, c, radius):
    """Orbit-invariant bump evaluated at x: 1 near the orbit of c, 0 outside.

    Radial in the chordal distance to the nearest orbit point, which
    maximizes <x, sigma c> = sum_i <c[:, i], x[:, sigma(i)]>: a linear
    assignment over columns, solved exactly for every r.  An oracle for
    the closed form of eq._nearest.
    """
    from scipy.optimize import linear_sum_assignment

    arr = np.asarray(x, dtype=float)
    carr = np.asarray(c, dtype=float)
    _, sigma = linear_sum_assignment(carr.T @ arr, maximize=True)
    dmin = float(eq._frob(arr - eq._act_array(sigma, carr)))
    if dmin >= radius:
        return 0.0
    return float(eq._bump(dmin, radius))


def orbit(r, k, theta):
    """Oracle: all C(r,k) centers of c_theta, one per mask of _low_masks."""
    return eq._orbit_point(eq._center(r, k, theta), eq._low_masks(r, k))


def brute_min_orbit_distance(r, k):
    """Oracle: enumerate the whole orbit and minimize chordal distances."""
    base = eq._center(r, k, 0.0)
    pts = {base.tobytes(): base}
    for sigma in itertools.permutations(range(r)):
        img = eq._act_array(sigma, base)
        pts.setdefault(img.tobytes(), img)
    vals = [np.linalg.norm(base - p) for p in pts.values() if p.tobytes() != base.tobytes()]
    return min(vals)


class TestSpherePoint:
    def test_random_points_satisfy_invariants(self):
        rng = np.random.default_rng(3)
        X = eq.random_sphere_points(6, 200, rng)
        assert np.abs(X.sum(axis=2)).max() < 1e-12
        assert np.abs(eq._frob(X) - 1.0).max() < 1e-12

    def test_points_near_zero_are_drawn_again(self):
        """A point of norm at most 1e-6 after recentering is replaced by the
        next draw, made after the whole first draw; the other points stay."""
        first = np.random.default_rng(5).standard_normal((3, 2, 4))
        first[1] = 7.0  # constant rows recenter to 0
        again = np.random.default_rng(6).standard_normal((1, 2, 4))

        class Planted:
            draws = [first.copy(), again.copy()]

            def standard_normal(self, shape):
                assert shape == self.draws[0].shape
                return self.draws.pop(0)

        X = eq.random_sphere_points(4, 3, Planted())
        expected = np.concatenate([first, again])[[0, 3, 2]]
        expected -= expected.mean(axis=2, keepdims=True)
        assert np.allclose(X, expected / eq._frob(expected)[:, None, None], rtol=0.0, atol=1e-15)


class TestAction:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = eq.random_sphere_points(4, 1, rng)[0]
        assert np.array_equal(eq._act_array((0, 1, 2, 3), x), x)

    def test_r2_swap_is_antipode(self):
        a, b = 0.6, 0.8
        scale = 1.0 / math.sqrt(2.0)
        x = np.array([[a, -a], [b, -b]]) * scale
        assert np.allclose(eq._act_array((1, 0), x), -x)

    def test_stabilizer_fixes_center(self):
        c = eq._center(6, 2, 0.0)
        sigma = (1, 0, 2, 3, 4, 5)  # transposition inside the low block
        assert np.allclose(eq._act_array(sigma, c), c)
        tau = (0, 1, 3, 2, 4, 5)  # transposition inside the high block
        assert np.allclose(eq._act_array(tau, c), c)

    def test_composition_convention(self):
        rng = np.random.default_rng(1)
        x = eq.random_sphere_points(5, 1, rng)[0]
        s = (1, 2, 0, 4, 3)
        t = (0, 2, 1, 3, 4)
        st = tuple(t[s[i]] for i in range(5))
        assert np.allclose(eq._act_array(t, eq._act_array(s, x)), eq._act_array(st, x))


class TestCenters:
    def test_center_6_2(self):
        centers = orbit(6, 2, 0.0)
        c = centers[0]
        c1 = eq._center(6, 2, math.pi / 2)  # the reflection axis u of c
        expected = np.array([-4, -4, 2, 2, 2, 2]) / math.sqrt(48)
        assert np.allclose(c[0], expected)
        assert np.allclose(c[1], 0)
        assert np.allclose(c1[1], expected)
        assert np.allclose(c1[0], 0)
        assert len(centers) == 15
        assert np.array_equal(c, eq._center(6, 2, 0.0))
        assert np.array_equal(one_step(6, 2).node.centers, centers)

    def test_center_2_1(self):
        centers = one_step(2, 1).node.centers
        assert np.allclose(centers[0, 0], np.array([-1, 1]) / math.sqrt(2))
        assert len(centers) == 2

    def test_orbit_size_6_3(self):
        assert len(one_step(6, 3).node.centers) == 20

    def test_safe_radius_values(self):
        assert abs(ci.safe_radius(6, 2) - math.sqrt(1.5) / 3) < 1e-15
        assert abs(ci.safe_radius(2, 1) - 2 / 3) < 1e-15
        for r in range(2, 8):
            for k in range(1, r):
                assert ci.safe_radius(r, k) > 0

    def test_one_radius_rule_is_safe_radius_for_one_step(self):
        """min_orbit_dist/3 < sin(pi/4), so the sine cap binds only for n > 1."""
        for r in range(2, 101):
            for k in range(1, r):
                assert ci.safe_radius(r, k) < math.sin(math.pi / 4)
        for r, k in ((2, 1), (6, 2), (10, 3)):
            assert one_step(r, k).node.radius == ci.safe_radius(r, k)

    def test_min_orbit_distance_brute_force(self):
        for r in range(2, 8):
            for k in range(1, r):
                assert abs(ci.min_orbit_distance(r, k) - brute_min_orbit_distance(r, k)) < 1e-12

    def test_orbit_balls_pairwise_disjoint(self):
        for r, k in ((2, 1), (6, 1), (6, 2), (6, 3), (7, 3)):
            layer = one_step(r, k)
            node = layer.node
            m = len(node.centers)
            for i in range(m):
                for j in range(i + 1, m):
                    d = float(np.linalg.norm(node.centers[i] - node.centers[j]))
                    assert d > 2.0 * node.radius


class TestBump:
    def test_plateau_and_support(self):
        c = eq._center(6, 2, 0.0)
        R = ci.safe_radius(6, 2)
        assert bump_rho(c, c, R) == 1.0
        # a point at distance exactly R from c (walk along a tangent great circle)
        t = np.zeros((2, 6))
        t[1] = c[0]
        ang = 2 * math.asin(R / 2)
        far = math.cos(ang) * c + math.sin(ang) * t
        assert abs(np.linalg.norm(far - c) - R) < 1e-12
        assert bump_rho(far, c, R) == 0.0

    def test_value_at_third_radius(self):
        c = eq._center(6, 2, 0.0)
        R = ci.safe_radius(6, 2)
        t = np.zeros((2, 6))
        t[1] = c[0]
        ang = 2 * math.asin(R / 6)
        x = math.cos(ang) * c + math.sin(ang) * t
        val = bump_rho(x, c, R)
        assert 0.0 < val < 1.0
        assert val >= 1.0 / 3.0  # the reflection zone keeps clear of the blend

    def test_bump_geometry(self, monkeypatch):
        """Premises (b) and (e) in the bump's own terms: zeros can lie only within
        5R/8 of a center, where the bump rho is at least 1/2, and there a plus
        step's reflection is exact.  The blend lambda is exactly 1 wherever
        rho >= 1/3 and exactly 0 wherever rho <= 1/4, both in the weight s that
        _homotopy hands _phi at t = 1 and in CircleMap.image.  On the circle,
        with c = 1 and |z| == 1.0 exactly, the plus step at lambda = 1 is the
        minus step after the reflection z -> conj(z), so its image is the
        conjugate of the minus step's, and at lambda = 0 it is the minus step's."""
        assert eq.ZERO_ZONE_FRACTION == 0.625
        weights = []
        phi = eq._phi
        monkeypatch.setattr(eq, "_phi", lambda X, C, s: weights.append(s) or phi(X, C, s))
        d = np.linspace(0.0, 1.0, 4001)  # distance to the center, in units of R
        for R in (ci.safe_radius(2, 1), 0.26, ci.safe_radius(6, 2), ci.safe_radius(15, 7),
                  math.sin(math.pi / 2000)):
            assert abs(float(eq._bump(0.625 * R, R)) - 0.5) <= 1e-15
            angle = 2.0 * np.arcsin(d * R / 2.0)  # chord d*R from the angle 0
            # numpy: the r = 2 plus step whose center c_0 is z = -1, at t = 1
            node = eq.ModificationNode(k=1, sign=1, radius=R, center=eq._center(2, 1, 0.0))
            X = on_circle(math.pi + angle)
            _, rho, _ = eq._balls(node, X)
            weights.clear()
            eq._homotopy(eq.MapLayer(2, (node,)), X, 1.0)
            (s,) = weights
            full, off = rho >= 1.0 / 3.0, rho <= 0.25
            assert full.sum() > 100 and off.sum() > 100
            assert np.all(s[full] == 1.0) and np.all(s[off] == 0.0)
            # complex: the plus and minus steps at c = 1, on the points of modulus 1.0
            plus, minus = (ci.CircleMap((sign,), R, (1 + 0j,)) for sign in (1, -1))
            z = [w for w in map(complex, np.exp(1j * angle)) if abs(w) == 1.0]
            rho = [float(eq._bump(abs(w - 1.0), R)) for w in z]
            assert sum(p >= 1.0 / 3.0 for p in rho) > 100 and sum(0 < p <= 0.25 for p in rho) > 100
            for w, p in zip(z, rho):
                if p >= 1.0 / 3.0:
                    assert plus.image(w) == minus.image(w).conjugate(), (R, w)
                elif p <= 0.25:
                    assert plus.image(w) == minus.image(w), (R, w)
        # at s = 1, phi is the exact reflection: it fixes c and sends u, c turned by 90 degrees, to -u
        c = eq._center(6, 2, 0.0)
        u = np.stack([-c[1], c[0]])
        assert np.allclose(phi(np.stack([u, c]), np.stack([c, c]), 1.0), [-u, c], rtol=0, atol=1e-15)

    def test_matches_nearest_orbit_point_at_r10(self):
        layer = one_step(10, 3)
        node = layer.node
        rng = np.random.default_rng(17)
        noise = eq.random_sphere_points(10, len(node.centers), rng)
        X = node.centers + 0.5 * node.radius * noise
        X /= eq._frob(X)[:, None, None]
        X = np.concatenate([X, eq.random_sphere_points(10, 20, rng)])
        dmin = eq._nearest(node, X)[0]
        assert (dmin < node.radius).any() and (dmin >= node.radius).any()
        for x, d in zip(X, dmin):
            want = float(eq._bump(d, node.radius)) if d < node.radius else 0.0
            assert abs(bump_rho(x, node.centers[0], node.radius) - want) < 1e-12

    def test_balls_select_the_rows_of_positive_bump(self):
        """_balls keeps exactly the rows whose bump is above 0: within about
        1e-6 R of the rim the bump rounds to 0 although d < R."""
        node = one_step(6, 2).node
        c, R = node.centers[0], node.radius
        v = eq.random_sphere_points(6, 1, np.random.default_rng(3))[0]
        v -= np.sum(v * c) * c
        v /= np.linalg.norm(v)
        rim = R * (1.0 - np.logspace(-2, -12, 11))
        d = np.concatenate([np.linspace(0.0, 1.02 * R, 52), rim])
        ang = 2 * np.arcsin(d / 2)
        X = np.cos(ang)[:, None, None] * c + np.sin(ang)[:, None, None] * v
        dmin = eq._nearest(node, X)[0]
        assert abs(dmin - d).max() < 1e-12
        assert np.array_equal(eq._balls(node, X)[0], np.flatnonzero(eq._bump(dmin, R) > 0.0))
        assert np.count_nonzero((dmin < R) & ~(eq._bump(dmin, R) > 0.0)) >= 3

    def test_orbit_invariance(self):
        c = eq._center(4, 2, 0.0)
        R = ci.safe_radius(4, 2)
        rng = np.random.default_rng(5)
        for x in eq.random_sphere_points(4, 20, rng):
            v = bump_rho(x, c, R)
            for sigma in eq.generators(4):
                assert abs(bump_rho(eq._act_array(sigma, x), c, R) - v) < 1e-12


class TestModifications:
    def test_center_maps_to_antipode_of_value(self):
        layer = one_step(6, 2)
        node = layer.node
        vals = layer.eval_batch(node.centers)
        assert np.allclose(vals, -node.centers, atol=1e-12)

    def test_identity_outside_support(self):
        layer = one_step(6, 1)
        rng = np.random.default_rng(7)
        X = eq.random_sphere_points(6, 500, rng)
        dmin = eq._nearest(layer.node, X)[0]
        outside = dmin >= layer.node.radius
        assert outside.any()
        out = layer.eval_batch(X)
        assert np.array_equal(out[outside], X[outside])

    def test_codomain_invariants(self):
        plan = certificate_to_plan(bezout_certificate(6))
        layer, _ = eq.build_from_plan(plan)
        rng = np.random.default_rng(11)
        X = eq.random_sphere_points(6, 2000, rng)
        Y = layer.eval_batch(X)
        assert np.abs(Y.sum(axis=2)).max() < 1e-9
        assert np.abs(eq._frob(Y) - 1.0).max() < 1e-9

    def test_plus_equals_minus_on_reflection_hyperplane(self):
        minus = one_step(6, 2)
        plus = one_step(6, 2, 1)
        node = minus.node
        c = node.centers[0]
        u = np.stack([-c[1], c[0]])  # the reflection axis: c rotated by +90 degrees
        # tangent direction at c orthogonal to the reflection axis u
        v = np.zeros((2, 6))
        v[0, 2] = 1.0
        v[0, 3] = -1.0
        v -= np.sum(v * c) * c
        v -= np.sum(v * u) * u
        v /= eq._frob(v)
        x = c + 0.1 * node.radius * v
        x /= eq._frob(x)
        a = minus.eval_batch(x[None])[0]
        b = plus.eval_batch(x[None])[0]
        assert np.allclose(a, b, atol=1e-12)

    def test_separation_check_runs_for_mixed_plans(self):
        plan = plan_of(6, ((1, -1), (2, -1), (3, 1), (4, 1), (5, -1)))
        layer, ledger = eq.build_from_plan(plan)
        assert ledger.final == plan.target


class TestNearest:
    """_nearest's closed form against the nearest point of the listed orbit."""

    @pytest.mark.parametrize("r", range(2, 9))
    def test_closed_form_matches_brute_force(self, r):
        rng = np.random.default_rng(r)
        for k in range(1, r):
            # the j-th of three steps at k sits at theta = j*pi/6
            layer, _ = eq.build_from_plan(plan_of(r, ((k, -1),) * 3))
            for theta, step in zip((0.0, math.pi / 6, math.pi / 3), layer.chain()):
                node = step.node
                centers = orbit(r, k, theta)
                assert np.array_equal(node.center, centers[0])
                assert np.array_equal(node.centers, centers)
                m = len(centers)
                scale = rng.uniform(0.05, 0.95, (m, 1, 1)) * node.radius
                near = centers + scale * eq.random_sphere_points(r, m, rng)
                near /= eq._frob(near)[:, None, None]
                X = np.concatenate([near, eq.random_sphere_points(r, 200, rng)])
                diff = X[:, None] - centers[None]
                dist = np.sqrt(np.einsum("abij,abij->ab", diff, diff))
                dmin, gains, kth = eq._nearest(node, X)
                assert np.abs(dmin - dist.min(axis=1)).max() < 1e-12
                inside = dmin < node.radius
                assert inside[:m].all() and not inside.all()
                located = eq._orbit_point(node.center, gains[inside] >= kth[inside, None])
                assert np.array_equal(located, centers[dist[inside].argmin(axis=1)])


SEPARATED_PLANS = [
    (6, ((1, -1), (2, -1), (3, 1), (4, 1), (5, -1))),
    (6, ((1, -1), (1, -1), (2, 1), (1, 1))),
    (10, "auto"),
]


class TestSeparation:
    """_check_separation measures the new orbit against each earlier orbit by
    circle.orbit_distance, a closed form in k, k', theta and theta', and
    requires the arcs 2*asin(R/2) of the two balls to fit in 2*asin(D/2)."""

    @pytest.mark.parametrize("r, steps", SEPARATED_PLANS)
    def test_one_center_distance_equals_all_pairs_minimum(self, r, steps):
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        if steps == "auto":
            assert sorted(k for k, _ in plan.steps) == [1, 2, 3, 3, 4, 5, 5]
        layer, _ = eq.build_from_plan(plan)
        nodes = [step.node for step in layer.chain()]
        thetas = [theta for _, _, theta, _ in ci.place_steps(plan)]
        for i, later in enumerate(nodes):
            for earlier, theta0 in zip(nodes[:i], thetas):
                diff = later.centers[:, None] - earlier.centers[None]
                brute = float(np.sqrt(np.einsum("abij,abij->ab", diff, diff).min()))
                alone = [(earlier.k, earlier.sign, theta0, earlier.radius)]
                # the check fails iff the two arcs asin(R/2) add up to more than asin(D/2);
                # put that threshold 1e-12 below and above the brute-force distance's arc
                arc = math.asin(brute / 2.0) - math.asin(earlier.radius / 2.0)
                below = 2.0 * math.sin(arc - 1e-12)
                ci._check_separation(r, alone, later.k, thetas[i], below)
                above = 2.0 * math.sin(arc + 1e-12)
                with pytest.raises(eq.CenterSeparationError):
                    ci._check_separation(r, alone, later.k, thetas[i], above)

    @pytest.mark.parametrize("r, steps", [
        (6, "auto"), (10, "auto"), (12, "auto"), (14, "auto"), (15, "auto"),
        (6, ((1, -1), (1, -1), (2, 1), (1, 1))),
        (2, ((1, -1),) * 8),
    ], ids=["6-auto", "10-auto", "12-auto", "14-auto", "15-auto", "6-repeated-k", "2-eight"])
    def test_closed_form_matches_nearest(self, r, steps):
        """orbit_distance against _nearest from one center of the later orbit,
        and its rearrangement sum I = r*min(k,k')*(r - max(k,k')) against the sorted rows."""
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        layer, _ = eq.build_from_plan(plan)
        nodes = [step.node for step in layer.chain()]
        thetas = [theta for _, _, theta, _ in ci.place_steps(plan)]
        pairs = 0
        for i, later in enumerate(nodes):
            for earlier, theta0 in zip(nodes[:i], thetas):
                want = float(eq._nearest(earlier, later.center[None])[0][0])
                got = ci.orbit_distance(r, earlier.k, theta0, later.k, thetas[i])
                assert abs(got - want) < 1e-12
                rows = [sorted(eq._center(r, k, 0.0)[0] * math.sqrt(k * (r - k) * r))
                        for k in (earlier.k, later.k)]
                lo, hi = sorted((earlier.k, later.k))
                assert abs(float(np.dot(*rows)) - r * lo * (r - hi)) < 1e-9
                pairs += 1
        assert pairs == len(nodes) * (len(nodes) - 1) // 2 > 0

    @pytest.mark.parametrize("r, steps", [(6, "auto"), *SEPARATED_PLANS[1:]])
    def test_map_below_is_identity_at_new_centers(self, r, steps):
        """_homotopy subtracts the center itself where the formula names f(center)."""
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        layer, _ = eq.build_from_plan(plan)
        for step in layer.chain():
            node = step.node
            below = eq.MapLayer(r, step.nodes[:-1])
            assert np.array_equal(below.eval_batch(node.centers), node.centers)

    def test_error_fires_when_radii_grow(self, monkeypatch):
        """A planted oversize radius makes two steps' balls meet, and the error
        names both steps: same-k steps without the sine cap, and a k = 2 ball
        beyond half its distance to the k = 1 orbit."""
        monkeypatch.setattr(ci, "step_radius", lambda r, k, n: ci.safe_radius(r, k))
        with pytest.raises(eq.CenterSeparationError,
                           match=r"the balls of step 1 \(k=1, radius 0\.428687\) meet those of "
                                 r"step 0 \(k=1, radius 0\.428687\) at orbit distance 0\.517638"):
            eq.build_from_plan(plan_of(6, ((1, -1), (1, -1), (2, 1), (1, 1))))
        monkeypatch.undo()
        placed = ci.place_steps(certificate_to_plan(bezout_certificate(6)))
        (k0, _, theta0, radius0), (k, _, theta, radius) = placed[:2]
        touch = ci.orbit_distance(6, k0, theta0, k, theta) - radius0
        ci._check_separation(6, placed[:1], k, theta, radius)
        ci._check_separation(6, placed[:1], k, theta, touch)  # the chords touch; the arcs fit
        with pytest.raises(eq.CenterSeparationError, match=r"step 1 \(k=2, .* step 0 \(k=1, "):
            ci._check_separation(6, placed[:1], k, theta, 1.1 * touch)


class TestPlacement:
    """circle.place_steps is the one placement that both builders read."""

    @pytest.mark.parametrize("r, steps", [
        (6, "auto"), (10, "auto"), (12, "auto"), (14, "auto"), (15, "auto"),
        (6, ((1, -1), (1, -1), (2, 1), (1, 1))),
    ], ids=["6-auto", "10-auto", "12-auto", "14-auto", "15-auto", "6-repeated-k"])
    def test_nodes_are_the_placements(self, r, steps):
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        layer, _ = eq.build_from_plan(plan)
        placed = ci.place_steps(plan)
        nodes = [(nd.k, nd.sign, nd.radius) for nd in layer.nodes]
        assert nodes == [(k, s, radius) for k, s, _, radius in placed]
        for nd, (k, _, theta, _) in zip(layer.nodes, placed):
            assert np.array_equal(nd.center, eq._center(r, k, theta))
        assert [(k, s) for k, s, _ in nodes] == list(plan.steps)

    @pytest.mark.parametrize("r, steps", [
        (6, ((1, -1), (2, -1), (1, 1), (2, 1), (1, -1))),
        (10, ((3, 1), (1, -1), (3, -1), (5, 1), (1, 1), (3, -1))),
    ], ids=["6-interleaved", "10-interleaved"])
    def test_interleaved_steps_take_their_same_k_index(self, r, steps):
        """The j-th of the n steps at k sits at theta = j*pi/(2n), where j counts
        the earlier steps at k however the other k interleave with them."""
        ks = [k for k, _ in steps]
        want = [(k, s, ks[:i].count(k) * math.pi / (2 * ks.count(k)),
                 ci.step_radius(r, k, ks.count(k))) for i, (k, s) in enumerate(steps)]
        assert ci.place_steps(plan_of(r, steps)) == want

    @pytest.mark.parametrize("steps", [
        *itertools.product(((1, 1), (1, -1)), repeat=4), ((1, -1),) * 64,
    ])
    def test_circle_map_reads_the_placements(self, steps):
        placed = ci.place_steps(plan_of(2, steps))
        circle_map = circle_of(steps)
        assert circle_map.signs == tuple(s for _, s in steps)
        assert circle_map.centers == tuple(complex(math.cos(theta), math.sin(theta))
                                           for _, _, theta, _ in placed)
        assert {radius for _, _, _, radius in placed} == {circle_map.radius}

    def test_every_pair_of_steps_has_angular_slack(self):
        """No two placed steps' balls meet: on every pair of steps the arcs
        asin(R/2) of the two balls fall short of the arc asin(D/2) between the
        two orbits, on the auto plans up to r = 15, repeated k at r = 6, the 16
        four-step r = 2 plans, 500 steps at r = 2, and 300 seeded random
        plans with r from 3 to 15, most of them with several k."""
        plans = [certificate_to_plan(bezout_certificate(r)) for r in (6, 10, 12, 14, 15)]
        plans += [plan_of(6, ((1, -1), (1, -1), (2, 1), (1, 1))), plan_of(2, ((1, -1),) * 500)]
        plans += [plan_of(2, steps) for steps in itertools.product(((1, 1), (1, -1)), repeat=4)]
        rng = np.random.default_rng(11)
        for _ in range(300):
            r = int(rng.integers(3, 16))
            ks = [k for k in range(1, r) if math.comb(r, k) <= ci.MAX_ORBIT]
            plans.append(plan_of(r, [(int(rng.choice(ks)), int(rng.choice((-1, 1))))
                                     for _ in range(int(rng.integers(2, 13)))]))
        multi_k = 0
        for plan in plans:
            placed = ci.place_steps(plan)
            multi_k += len({k for k, _, _, _ in placed}) > 1
            for i, (k, _, theta, radius) in enumerate(placed):
                for k0, _, theta0, radius0 in placed[:i]:
                    arc = math.asin(ci.orbit_distance(plan.r, k0, theta0, k, theta) / 2.0)
                    assert arc - math.asin(radius / 2.0) - math.asin(radius0 / 2.0) > 0.0
        assert multi_k > 250

    def test_radii_are_step_radius_where_no_other_k_is_in_reach(self):
        """Half the distance to another k's orbit bounds a radius only where
        that orbit is near: every r = 2 plan (one k), r = 12 1:-,5:+ and
        r = 30 3:-,3:+ keep step_radius, and r = 6 auto's k = 1 step is bounded
        by its k = 2 orbit."""
        plans = [plan_of(2, ((1, -1),) * n) for n in (1, 2, 3, 64, 500)]
        plans += [plan_of(2, steps) for steps in itertools.product(((1, 1), (1, -1)), repeat=4)]
        plans += [plan_of(12, ((1, -1), (5, 1))), plan_of(30, ((3, -1), (3, 1)))]
        for plan in plans:
            ks = [k for k, _ in plan.steps]
            assert ([radius for _, _, _, radius in ci.place_steps(plan)]
                    == [ci.step_radius(plan.r, k, ks.count(k)) for k in ks])
        first = ci.place_steps(certificate_to_plan(bezout_certificate(6)))[0]
        assert first[3] == ci.orbit_distance(6, 1, 0.0, 2, 0.0) / 2.0 < ci.step_radius(6, 1, 1)

    def test_huge_orbit_is_refused_before_its_size_is_computed(self, deadline):
        """C(10^7, 5*10^6) has millions of digits: place_steps builds the orbit
        size up factor by factor and refuses once it passes MAX_ORBIT, so the
        library path and the numpy builder fail fast, with a short message."""
        import time

        plan = plan_of(10 ** 7, ((5 * 10 ** 6, -1),))
        for build in (ci.place_steps, eq.build_from_plan):
            t0 = time.perf_counter()
            with deadline(1.0), pytest.raises(ValueError) as info:
                build(plan)
            assert time.perf_counter() - t0 < 1.0
            assert str(info.value) == ("plan step k=5000000 has C(10000000,5000000), more than "
                                       "5,005 centers, beyond the builder's cap MAX_ORBIT = 5005")
        for r, steps in ((18, ((1, -1), (5, 1))), (18, ((13, 1),)), (26, ((13, -1),)),
                         (5006, ((1, -1),)), (5006, ((5005, 1),))):
            k = steps[-1][0]
            with pytest.raises(ValueError, match=f"k={k} has C\\({r},{k}\\), more than 5,005"):
                ci.place_steps(plan_of(r, steps))
        for r, k in ((15, 6), (15, 9), (5005, 1), (5005, 5004)):
            assert len(ci.place_steps(plan_of(r, ((k, -1),)))) == 1

    @pytest.mark.parametrize("build", [eq.build_from_plan, ci.build_circle_map])
    def test_long_plan_refused_before_separation(self, build, monkeypatch):
        calls = []
        separation = ci._check_separation

        def counted(*args):
            calls.append(args)
            separation(*args)

        monkeypatch.setattr(ci, "_check_separation", counted)
        build(plan_of(2, ((1, -1),) * 500))
        assert len(calls) == 500
        calls.clear()
        with pytest.raises(ValueError, match="plan has 501 steps, beyond the builder's cap "
                                             "MAX_PLAN_STEPS = 500"):
            build(plan_of(2, ((1, -1),) * 501))
        assert len(calls) == 0


class TestBuildFromPlan:
    def test_empty_plan_is_identity(self):
        layer, ledger = eq.build_from_plan(plan_of(2, ()))
        assert layer.node is None
        assert ledger.final == 1 and ledger.running == (1,)

    def test_r6_certificate_ledger(self):
        plan = certificate_to_plan(bezout_certificate(6))
        layer, ledger = eq.build_from_plan(plan)
        assert ledger.running == (1, -5, -20, 0)
        assert [l.node.sign for l in layer.chain()] == [-1, -1, 1]
        assert [rep.variant for rep in eq.verify_local_degrees(layer)] == ["minus", "minus", "plus"]

    def test_r6_repeated_k_plan(self):
        plan = plan_of(6, ((1, -1), (1, -1), (2, 1), (1, 1)))
        layer, ledger = eq.build_from_plan(plan)
        assert ledger.running == (1, -5, -11, 4, 10) and ledger.final == plan.target
        for rep, (k, sign) in zip(eq.verify_local_degrees(layer), plan.steps, strict=True):
            assert (rep.k, rep.variant) == (k, "minus" if sign < 0 else "plus")
            assert rep.matches_ledger
            assert rep.delta_signs == (sign,)

    def test_repeated_k_families_are_rotated(self):
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1), (1, 1), (1, -1))))
        for j, step in enumerate(layer.chain()):
            node = step.node
            theta = j * math.pi / 6
            row = node.centers[0, 0] / math.cos(theta)
            assert np.allclose(node.centers[0, 1], math.sin(theta) * row)
            # the plus step reflects through the hyperplane orthogonal to c rotated by +90 degrees
            u = np.array([-math.sin(theta) * row, math.cos(theta) * row])
            c = node.centers[0]
            phi = eq._phi(np.stack([u, c]), node.centers[[0, 0]], 1.0)
            assert np.allclose(phi, [-u, c])
            assert node.radius == min(ci.safe_radius(2, 1), math.sin(math.pi / 12))

    def test_r3_plans_stay_1_mod_3(self):
        for steps in itertools.product(((1, 1), (1, -1), (2, 1), (2, -1)), repeat=2):
            plan = plan_of(3, steps)
            _, ledger = eq.build_from_plan(plan)
            assert ledger.final % 3 == 1
            assert ledger.final != 0


class TestHomotopy:
    def test_t0_is_base_map(self):
        plan = plan_of(2, ((1, -1),))
        layer, _ = eq.build_from_plan(plan)
        rng = np.random.default_rng(2)
        X = eq.random_sphere_points(2, 200, rng)
        H0 = eq._homotopy(layer, X, np.zeros(len(X)))
        assert np.array_equal(H0, eq.identity_map(2).eval_batch(X))

    def test_zero_at_centers_at_half(self):
        for steps in (((1, -1),), ((1, 1),)):
            layer, _ = eq.build_from_plan(plan_of(2, steps))
            node = layer.node
            H = eq._homotopy(layer, node.centers, np.full(len(node.centers), 0.5))
            assert eq._frob(H).max() < 1e-9

    def test_nonzero_at_t1(self):
        plan = certificate_to_plan(bezout_certificate(6))
        layer, _ = eq.build_from_plan(plan)
        rng = np.random.default_rng(13)
        worst = np.inf
        for _ in range(5):
            X = eq.random_sphere_points(6, 20000, rng)
            H1 = eq._homotopy(layer, X, np.ones(len(X)))
            worst = min(worst, float(eq._frob(H1).min()))
        assert worst > 1e-3


def recursive_step(layer, X, t, normalize):
    """Reference: the recursive evaluator the two-pass loop of eq._homotopy replaced.

    It evaluates the map below the last step on all of X and, for a plus
    step, once more on phi of the ball rows.
    """
    if layer.node is None:
        return X.copy()
    node = layer.node
    below = eq.MapLayer(layer.r, layer.nodes[:-1])
    out = recursive_step(below, X, 1.0, True)
    balls = eq._balls(node, X)
    if balls is None:
        return out
    sel, rho, C = balls
    t = np.asarray(t, dtype=float)
    ts = t[sel] if t.ndim else t
    if node.sign < 0:
        vals = out[sel]
    else:
        phi = eq._phi(X[sel], C, np.minimum(3.0 * ts, 1.0) * eq._smoothstep(12.0 * rho - 3.0))
        vals = recursive_step(below, phi, 1.0, True)
    h = vals - 2.0 * (ts * rho)[:, None, None] * C
    if normalize:
        nh = eq._frob(h)
        if np.any(nh < 1e-9):
            raise eq.NumericalDegeneracyError("map value collapsed below 1e-9 during normalization")
        h /= nh[:, None, None]
    out[sel] = h
    return out


LOOP_PLANS = [
    (6, "auto"),
    (6, ((1, -1), (1, -1), (2, 1), (1, 1))),
    (6, ((1, 1), (1, -1), (2, 1), (2, -1), (1, -1))),
    (2, ((1, 1),) * 4),
]


def loop_plan_points(r, steps, seed):
    """The plan's map and uniform points plus points inside every ball of every step."""
    plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
            else plan_of(r, steps))
    layer, _ = eq.build_from_plan(plan)
    rng = np.random.default_rng(seed)
    parts = [eq.random_sphere_points(r, 300, rng)]
    for node in layer.nodes:
        m = len(node.centers)
        for _ in range(3):
            scale = rng.uniform(0.0, 0.9, (m, 1, 1)) * node.radius
            near = node.centers + scale * eq.random_sphere_points(r, m, rng)
            parts.append(near / eq._frob(near)[:, None, None])
    return layer, np.concatenate(parts), rng


class TestLoopEvaluator:
    """eq._homotopy's one loop against the recursive reference, bit for bit."""

    @pytest.mark.parametrize("r, steps", LOOP_PLANS)
    def test_matches_recursive_reference(self, r, steps):
        layer, X, rng = loop_plan_points(r, steps, 5)
        inside = 0
        for step in layer.chain():
            dmin = eq._nearest(step.node, X)[0]
            inside += np.count_nonzero(dmin < step.node.radius)
            for t in (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0, len(X))):
                for normalize in (False, True):
                    assert np.array_equal(eq._homotopy(step, X, t, normalize),
                                          recursive_step(step, X, t, normalize))
            assert np.array_equal(step.eval_batch(X), recursive_step(step, X, 1.0, True))
        assert inside >= len(X) - 300

    @pytest.mark.parametrize("r, steps", LOOP_PLANS)
    def test_one_nearest_per_step_on_every_row(self, monkeypatch, r, steps):
        layer, X, _ = loop_plan_points(r, steps, 6)
        rows = []
        nearest = eq._nearest

        def counted(node, Y):
            rows.append(len(Y))
            return nearest(node, Y)

        monkeypatch.setattr(eq, "_nearest", counted)
        layer.eval_batch(X)
        assert rows == [len(X)] * layer.depth

    @pytest.mark.parametrize("r, steps", LOOP_PLANS)
    def test_rows_on_their_own_steps(self, r, steps):
        """No row lies in two steps' balls.  The rows in a step's balls run the
        map after that step, bit for bit, as the step alone, which the per-step
        checks evaluate, and as the whole map at t = 1, and dmin receives each
        row's distance to the step's nearest center; the whole map leaves the
        other rows as they are."""
        layer, X, rng = loop_plan_points(r, steps, 8)
        inside = np.array([eq._nearest(node, X)[0] < node.radius for node in layer.nodes])
        assert inside.sum(axis=0).max() == 1
        whole = layer.eval_batch(X)
        for j, step in enumerate(layer.chain()):
            rows, alone = X[inside[j]], eq.MapLayer(r, (step.node,))
            for t in (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0, len(rows))):
                for normalize in (False, True):
                    dmin = np.full(len(rows), np.nan)
                    H = eq._homotopy(alone, rows, t, normalize, dmin=dmin)
                    assert np.array_equal(H, eq._homotopy(step, rows, t, normalize))
                    assert np.array_equal(H, recursive_step(step, rows, t, normalize))
                    assert np.array_equal(dmin, eq._nearest(step.node, rows)[0])
            assert np.array_equal(whole[inside[j]], eq._homotopy(alone, rows, 1.0, True))
        off = ~inside.any(axis=0)
        assert 0 < off.sum() and np.array_equal(whole[off], X[off])

    def test_deep_plan_needs_no_recursion(self):
        """120 steps evaluate under a recursion limit 60 frames above the current depth."""
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1), (1, 1)) * 60))
        X = eq.random_sphere_points(2, 50, np.random.default_rng(7))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            Y = layer.eval_batch(X)
            H = eq._homotopy(layer, X, 0.5)
            steps = list(layer.chain())
        finally:
            sys.setrecursionlimit(limit)
        assert np.allclose(eq._frob(Y), 1.0) and H.shape == X.shape
        assert [step.depth for step in steps] == list(range(1, 121))


class TestEquivariance:
    def test_identity_is_exactly_equivariant(self):
        assert eq.verify_equivariance(eq.identity_map(6), samples=200, seed=0) == 0.0

    def test_one_step_r2(self):
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1),)))
        assert eq.verify_equivariance(layer, samples=2000, seed=1) < 1e-12

    def test_r6_certificate_map(self):
        plan = certificate_to_plan(bezout_certificate(6))
        layer, _ = eq.build_from_plan(plan)
        assert eq.verify_equivariance(layer, samples=3000, seed=2) < 1e-9

    def test_samples_are_drawn_in_chunks(self, monkeypatch):
        """Uniform points are drawn _EVAL_ROWS at a time, in the equivariance
        check and the identity's search alike, and the chunks continue one stream."""
        draws = []
        draw = eq.random_sphere_points

        def recorded(r, count, rng):
            draws.append(draw(r, count, rng))
            return draws[-1]

        monkeypatch.setattr(eq, "random_sphere_points", recorded)
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1),)))
        assert eq.verify_equivariance(layer, samples=45000, seed=4) < 1e-12
        assert [len(X) for X in draws] == [4096] * 10 + [4040] and eq._EVAL_ROWS == 4096
        once = draw(2, 45000, np.random.default_rng(4))
        assert np.array_equal(np.concatenate(draws), once)
        draws.clear()
        eq.verify_no_spurious_zeros(eq.identity_map(2), samples=9000, seed=4)
        assert [len(X) for X in draws] == [4096, 4096, 808]
        assert np.array_equal(np.concatenate(draws), once[:9000])

    def test_equivariance_memory_is_bounded_by_row_blocks(self):
        """r = 100: 20,000 uniform points are drawn and evaluated _EVAL_ROWS at
        a time, which peaks at about 38 MB; draws of 20,000 points peaked at
        about 123 MB."""
        import tracemalloc

        layer = one_step(100, 1)
        tracemalloc.start()
        try:
            residual = eq.verify_equivariance(layer, samples=20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < 1e-9
        assert peak < 40 * 2 ** 20


def tangent_basis(E, center):
    """Orthonormal tangent basis at center, as (2r-3, 2, r), with det [c, b] > 0
    in the coordinates of E."""
    chat = eq._coords(E, center)
    chat = chat / np.linalg.norm(chat)
    n = len(chat)
    Q, _ = np.linalg.qr(np.column_stack([chat, np.eye(n)]))
    if np.dot(Q[:, 0], chat) < 0:
        Q = -Q
    tangent = Q[:, 1:n]
    if np.linalg.det(np.column_stack([chat, tangent])) < 0:
        tangent = tangent.copy()
        tangent[:, 0] *= -1.0
    return np.tensordot(tangent.T, E, axes=(1, 0))


def per_center_fd_signs(layer, fd_step=1e-5):
    """Reference: the Jacobian sign center by center, in a chart on the tangent
    space of each center with its own QR frame."""
    node, r = layer.node, layer.r
    E = eq._ambient_basis(r)
    signs = []
    for center in node.centers:
        B = tangent_basis(E, center)
        dim = len(B) + 1
        step = fd_step
        for _ in range(5):
            p = np.stack([center + step * B, center - step * B], axis=1).reshape(-1, 2, r)
            pts = np.concatenate([p / eq._frob(p)[:, None, None], [center, center]])
            ts = np.full(2 * dim, 0.5)
            ts[-2:] = 0.5 + step, 0.5 - step
            H = eq._coords(E, eq._homotopy(layer, pts, ts))
            det = float(np.linalg.det(((H[0::2] - H[1::2]) / (2.0 * step)).T))
            if abs(det) > 1e-8:
                break
            step *= 0.5
        signs.append(1 if det > 0 else -1)
    return tuple(signs)


class TestLocalDegrees:
    def test_r2_minus_step(self):
        (rep,) = eq.verify_local_degrees(one_step(2, 1))
        assert rep.delta_signs == (-1,) and rep.matches_ledger

    def test_r6_k2_minus_step(self):
        """The one sign read at the first center is every center's sign."""
        layer = one_step(6, 2)
        (rep,) = eq.verify_local_degrees(layer)
        assert rep.delta_signs == (-1,) and rep.matches_ledger
        assert per_center_fd_signs(layer) == (1,) * 15

    def test_plus_minus_opposite_signs(self):
        for r, k in ((2, 1), (6, 1), (6, 2)):
            (minus,) = eq.verify_local_degrees(one_step(r, k))
            (plus,) = eq.verify_local_degrees(one_step(r, k, 1))
            assert minus.delta_signs[0] == -plus.delta_signs[0]

    @pytest.mark.parametrize("r, steps", [(6, "auto"), SEPARATED_PLANS[1], (10, "auto"),
                                          (12, "auto")])
    def test_batched_signs_match_per_center_reference(self, r, steps):
        """The sign read at each step's first center is the per-center reference's
        sign at every center of the orbit (sigma (+) sigma keeps orientation)."""
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        layer, _ = eq.build_from_plan(plan)
        for step, rep in zip(layer.chain(), eq.verify_local_degrees(layer), strict=True):
            assert rep.delta_signs == (rep.delta_signs[0],) and rep.matches_ledger
            assert per_center_fd_signs(step) == (-rep.delta_signs[0],) * math.comb(r, step.node.k)

    @pytest.mark.parametrize("r, steps", [(6, "auto"), SEPARATED_PLANS[1], (10, "auto"),
                                          (2, ((1, -1), (1, 1)) * 60), (2, ((1, 1),)), (2, ())])
    def test_one_pass_matches_each_prefix(self, r, steps):
        """Both checks, which evaluate each step alone, give each step what the
        map after it gives: the center residual, |h_1/2| at its center, bit for
        bit, and the delta sign; the identity gets no entry."""
        layer, _ = eq.build_from_plan(certificate_to_plan(bezout_certificate(r))
                                      if steps == "auto" else plan_of(r, steps))
        E = eq._ambient_basis(r)
        residuals, signs = [], []
        for step in layer.chain():
            c = step.node.center[None]
            residuals.append(float(eq._frob(eq._homotopy(step, c, np.full(1, 0.5)))[0]))
            signs.append((-1 if eq._stencil_det(step, E, step.node.center) > 0 else 1,))
        assert eq.center_residual(layer) == residuals and all(res < 1e-9 for res in residuals)
        assert [rep.delta_signs for rep in eq.verify_local_degrees(layer)] == signs

    def test_one_homotopy_call_per_row_block(self, monkeypatch):
        """On 120 steps and on r = 6 auto, each check evaluates each step's one
        block on that step alone, in step order: its center (center_residual)
        or the 4r - 2 stencil points there (verify_local_degrees)."""
        homotopy, calls = eq._homotopy, []
        monkeypatch.setattr(eq, "_homotopy", lambda layer, X, *args, **kwargs:
                            calls.append((layer.nodes, len(X))) or homotopy(layer, X, *args, **kwargs))
        for r, steps in ((2, ((1, -1), (1, 1)) * 60), (6, "auto")):
            layer = plan_layer(r, steps)
            for check, points in zip((eq.center_residual, eq.verify_local_degrees), (1, 4 * r - 2)):
                calls.clear()
                assert len(check(layer)) == layer.depth
                assert calls == [((node,), points) for node in layer.nodes]

    def test_flat_determinant_raises_naming_k_and_center(self, monkeypatch):
        """A determinant at most 1e-8 at the step's center fails the step at once,
        with no retry; the error names the center, the first of the orbit."""
        layer = one_step(6, 2)
        calls = []
        monkeypatch.setattr(eq, "_stencil_det", lambda layer, E, center: calls.append(center) or 1e-9)
        with pytest.raises(eq.NumericalDegeneracyError, match="at center 0 of the k=2 step"):
            eq.verify_local_degrees(layer)
        assert len(calls) == 1 and np.array_equal(calls[0], layer.node.center)

    @pytest.mark.parametrize("r, steps", [
        (6, "auto"), (10, "auto"), (12, "auto"),
        (6, ((1, -1), (1, -1), (2, 1), (1, 1))), (2, ((1, -1),) * 64),
    ])
    def test_determinant_is_two_at_every_center(self, r, steps):
        """Every stencil point lies on the plateau of its ball, where h_t is
        x - 2t*c (minus) or the full reflection (plus), so |det| = 2 at every
        center of the orbit, with one sign; this is why a center with
        |det| <= 1e-8 is an error and not retried."""
        plan = (certificate_to_plan(bezout_certificate(r)) if steps == "auto"
                else plan_of(r, steps))
        layer, _ = eq.build_from_plan(plan)
        E, count = eq._ambient_basis(r), 0
        for node in layer.nodes:
            alone = eq.MapLayer(r, (node,))
            det = np.array([eq._stencil_det(alone, E, c) for c in node.centers])
            assert np.abs(det - eq._stencil_det(alone, E, node.center)).max() < 1e-6
            assert np.abs(np.abs(det) - 2.0).max() < 1e-6
            count += len(det)
        assert count == sum(math.comb(r, node.k) for node in layer.nodes)

    def test_stencil_memory_is_bounded_by_point_blocks(self):
        """r = 100: the one stencil of 398 points peaks far below what blocks of
        64 centers took, about 235 MB."""
        import tracemalloc

        layer = one_step(100, 1)
        tracemalloc.start()
        try:
            (rep,) = eq.verify_local_degrees(layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.delta_signs == (-1,) and rep.matches_ledger
        assert peak < 64 * 2 ** 20

    def test_negated_border_row_flips_every_sign(self, monkeypatch):
        """The border row [c, 0] orients the chart: negating it (which negates
        the determinant, linear in that row) flips every delta sign."""
        layer, _ = eq.build_from_plan(plan_of(6, ((1, -1), (2, 1))))
        det = eq._stencil_det
        before = eq.verify_local_degrees(layer)
        monkeypatch.setattr(eq, "_stencil_det", lambda *args: -det(*args))
        for rep, mutant in zip(before, eq.verify_local_degrees(layer), strict=True):
            assert rep.matches_ledger
            assert mutant.delta_signs == tuple(-s for s in rep.delta_signs)
            assert not mutant.matches_ledger

    def test_collapsed_stencil_raises(self, monkeypatch):
        # a step far below the resolution of the center's entries leaves
        # every stencil point on the center, so J = 0
        monkeypatch.setattr(eq, "FD_STEP", 1e-30)
        with pytest.raises(eq.NumericalDegeneracyError, match="at most 1e-8 .* at center 0 "):
            eq.verify_local_degrees(one_step(6, 2))


def plan_layer(r, steps):
    """The map of the auto plan at r, or of the given steps."""
    plan = certificate_to_plan(bezout_certificate(r)) if steps == "auto" else plan_of(r, steps)
    return eq.build_from_plan(plan)[0]


# The plans whose searches the tests below run.
SEARCHED_PLANS = [(6, "auto"), (2, ((1, -1), (1, 1))), (6, ((1, -1), (1, -1), (2, 1), (1, 1))),
                  (10, "auto")]


def searched_points(monkeypatch, layer, samples, seed, keep=True):
    """The search of layer and the (node, X, rows) of each homotopy call it
    makes, each on the one step node alone; X is None unless keep."""
    calls = []
    homotopy = eq._homotopy

    def recording(alone, X, t, **kwargs):
        assert alone.depth == 1
        calls.append((alone.node, X.copy() if keep else None, len(X)))
        return homotopy(alone, X, t, **kwargs)

    monkeypatch.setattr(eq, "_homotopy", recording)
    searches = eq.verify_no_spurious_zeros(layer, samples=samples, seed=seed)
    monkeypatch.setattr(eq, "_homotopy", homotopy)
    return searches, calls


def rows_per_step(layer, calls):
    """The rows each step of layer sent through _homotopy in the calls of searched_points."""
    return [sum(rows for node, _, rows in calls if node is step) for step in layer.nodes]


class TestSpuriousZeros:
    def test_identity_min_is_one(self):
        (search,) = eq.verify_no_spurious_zeros(eq.identity_map(2), samples=2000, seed=0)
        assert abs(search.minimum - 1.0) < 1e-9

    def test_one_step_r2(self):
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1),)))
        (search,) = eq.verify_no_spurious_zeros(layer, samples=20000, seed=3)
        assert search.minimum > 1e-3

    @pytest.mark.parametrize("r, steps", SEARCHED_PLANS)
    def test_off_the_balls_the_homotopy_has_unit_norm(self, r, steps):
        """The premise of searching each step in its own ball: off the balls of
        step j, h_t on the map after step j is the normalized map below, so
        | |h_t| - 1 | is rounding on uniform samples there, at every t."""
        layer = plan_layer(r, steps)
        rng = np.random.default_rng(2)
        X = eq.random_sphere_points(r, 4000, rng)
        T = rng.uniform(0.0, 1.0, len(X))
        for j, prefix in enumerate(layer.chain()):
            off = eq._nearest(layer.nodes[j], X)[0] >= layer.nodes[j].radius
            assert off.sum() > 3000
            norms = eq._frob(eq._homotopy(prefix, X[off], T[off]))
            assert np.abs(norms - 1.0).max() <= 1e-12

    def test_ball_points_lie_in_the_first_ball(self, monkeypatch):
        """Each step's points lie on the sphere, nearest to the step's first
        center, at distance R * sqrt(U): (5/8)^2 of them in the zero zone."""
        layer = plan_layer(6, "auto")
        searches, calls = searched_points(monkeypatch, layer, 3000, 4)
        assert [node for node, _, _ in calls] == list(layer.nodes)  # 3,000 rows: one block each
        for (node, X, _), search in zip(calls, searches, strict=True):
            assert np.abs(eq._frob(X) - 1.0).max() < 1e-12
            assert np.abs(X.sum(axis=2)).max() < 1e-12
            dist = np.sqrt(((X[:, None] - node.centers[None]) ** 2).sum(axis=(2, 3)))
            assert np.all(dist.argmin(axis=1) == 0) and dist[:, 0].max() < node.radius
            # the brute-force count of the zone points, within 5 sd of the law's mean
            assert search.in_zero_zone == int((dist[:, 0] <= 0.625 * node.radius).sum())
            assert abs(search.in_zero_zone - 3000 * 0.390625) < 5 * math.sqrt(3000 * 0.24)

    def test_search_memory_is_bounded_by_row_blocks(self, monkeypatch):
        """r = 100: 20,000 ball points are drawn and evaluated _EVAL_ROWS at a
        time, which peaks at about 32 MB; one block of them all peaked at 154 MB."""
        import tracemalloc

        layer = one_step(100, 1)
        tracemalloc.start()
        try:
            _, calls = searched_points(monkeypatch, layer, 20000, 0, keep=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows_per_step(layer, calls) == [20000]
        assert max(rows for _, _, rows in calls) == eq._EVAL_ROWS
        assert peak < 40 * 2 ** 20

    @pytest.mark.parametrize("r, steps", [(6, "auto"), (2, ((1, -1), (1, 1)))])
    def test_blocks_leave_the_search_unchanged(self, r, steps, monkeypatch):
        """A step's points come from its own draw in draw order, so blocks of
        7 rows give the report of the default blocks, where included."""
        layer = plan_layer(r, steps)
        whole = eq.verify_no_spurious_zeros(layer, samples=2000, seed=1)
        monkeypatch.setattr(eq, "_EVAL_ROWS", 7)
        assert eq.verify_no_spurious_zeros(layer, samples=2000, seed=1) == whole

    @pytest.mark.parametrize("counts, block", [
        ([5, 12, 3, 7], 8), ([20, 20, 20, 20], 7), ([100, 100, 100], 69), ([0, 3, 0, 9, 1], 4),
        ([100, 100, 100], 1440),
    ])
    def test_blocks_cut_each_step_on_its_own(self, counts, block, monkeypatch):
        """The equivariance check's sum(counts) ball points are split evenly over
        the plan's steps, one r = 9, k = 4 step per nonzero count, the first
        steps taking one more where it does not divide.  Each step's points are
        cut at multiples of block // 2 whatever the other steps hold, and each
        block runs on its step alone, once plus once per generator, in step
        order, with the residual of the default blocks."""
        steps = sum(1 for n in counts if n)
        layer = plan_layer(9, ((4, -1),) * steps)
        samples = sum(counts)
        whole = eq.verify_equivariance(layer, samples=samples, seed=3)
        homotopy, calls = eq._homotopy, []
        monkeypatch.setattr(eq, "_homotopy", lambda alone, X, *args, **kwargs:
                            calls.append((alone.nodes, len(X))) or homotopy(alone, X, *args, **kwargs))
        monkeypatch.setattr(eq, "_EVAL_ROWS", block)
        assert eq.verify_equivariance(layer, samples=samples, seed=3) == whole < 1e-9
        shares = [samples // steps + (j < samples % steps) for j in range(steps)]
        half = block // 2
        assert [call for call in calls if len(call[0]) == 1] == [
            ((node,), min(lo + half, share) - lo) for node, share in zip(layer.nodes, shares)
            for lo in range(0, share, half) for _ in range(3)]
        if counts == [5, 12, 3, 7]:  # 27 points: 7, 7, 7 and 6, in blocks of 4
            assert [rows for nodes, rows in calls[::3] if len(nodes) == 1] == [4, 3] * 3 + [4, 2]

    @pytest.mark.parametrize("r, steps", SEARCHED_PLANS)
    def test_each_step_gets_the_search_of_its_prefix(self, r, steps):
        """The one pass over every step gives each step the search of the map
        after it alone, and every step reports points in its zero zone."""
        layer = plan_layer(r, steps)
        searches = eq.verify_no_spurious_zeros(layer, samples=2000, seed=1)
        assert [search.k for search in searches] == [node.k for node in layer.nodes]
        assert searches == [eq.verify_no_spurious_zeros(step, samples=2000, seed=1)[-1]
                            for step in layer.chain()]
        assert all(search.in_zero_zone > 0 for search in searches)

    def test_reports_where_and_evaluations(self, monkeypatch):
        """The step sends its samples through _homotopy; the identity map's
        search draws its samples and evaluates no homotopy."""
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1),)))
        (search,), calls = searched_points(monkeypatch, layer, 2000, 0)
        assert search.k == 1
        assert 0.0 <= search.t <= 1.0
        assert 0.0 <= search.distance_in_R < 1.0
        assert not (search.distance_in_R < 0.1 and abs(search.t - 0.5) <= 0.1)
        assert rows_per_step(layer, calls) == [2000]
        draws, draw = [], eq.random_sphere_points
        monkeypatch.setattr(eq, "random_sphere_points",
                            lambda r, count, rng: draws.append(count) or draw(r, count, rng))
        (identity,), calls = searched_points(monkeypatch, eq.identity_map(2), 300, 0)
        assert (identity.k, identity.distance_in_R, identity.t) == (None, None, None)
        assert calls == [] and sum(draws) == 300

    def test_counts_points_in_zero_zone(self, monkeypatch):
        """in_zero_zone is the brute-force count of the evaluated points within
        5R/8 of a center, step by step, summed over the blocks of each step."""
        layer = plan_layer(2, ((1, -1), (1, 1)))
        monkeypatch.setattr(eq, "_EVAL_ROWS", 150)
        searches, calls = searched_points(monkeypatch, layer, 400, 4)
        assert [rows for _, _, rows in calls] == [150, 150, 100] * 2
        expected = [0, 0]
        for node, X, _ in calls:
            dist = np.sqrt(((X[:, None] - node.centers[None]) ** 2).sum(axis=(2, 3)))
            expected[layer.nodes.index(node)] += int((dist.min(axis=1) <= 0.625 * node.radius).sum())
        assert [search.in_zero_zone for search in searches] == expected
        assert all(0 < count < 400 for count in expected)
        (identity,) = eq.verify_no_spurious_zeros(eq.identity_map(2), samples=300, seed=0)
        assert identity.in_zero_zone == 0

    def test_verify_work_cap(self, monkeypatch):
        """MAX_VERIFY_WORK counts, in both modes, the equivariance check's
        samples * (steps + 1) * (1 + generators) row-steps (uniform points
        through every step, ball points through their own) and, for verify,
        the search's samples * steps, at 2 units a row-step, the ball points'
        draws at r^2/50 each, and one stencil of r^3 a step: it admits the auto
        plans up to r = 15 at the sample cap, 500 steps at r = 2 up to 98,550
        samples (verify) and 149,694 (build), one verified step up to r = 666,
        and refuses more.  It decides from counts alone: at r = 10^9 it lists
        no generator, and both modes are refused."""
        def listed(r):
            raise AssertionError("the work cap listed the generators")

        monkeypatch.setattr(eq, "generators", listed)
        for verify in (False, True):
            with pytest.raises(ValueError, match=r"^eqmap (build|verify) at r=1000000000 would do "):
                eq.check_verify_work(10 ** 9, [1], 1, stencils_and_search=verify)
        for r in (6, 10, 12, 14, 15):
            ks = [k for k, _ in certificate_to_plan(bezout_certificate(r)).steps]
            eq.check_verify_work(r, ks, eq.MAX_SAMPLES, stencils_and_search=True)
            eq.check_verify_work(r, ks, eq.MAX_SAMPLES, stencils_and_search=False)
        eq.check_verify_work(2, [1] * 500, 2000, stencils_and_search=True)
        eq.check_verify_work(2, [1] * 500, 98_550, stencils_and_search=True)
        eq.check_verify_work(2, [1] * 500, 149_694, stencils_and_search=False)
        eq.check_verify_work(666, [1], 200, stencils_and_search=True)
        eq.check_verify_work(30, [3, 3], 2000, stencils_and_search=True)
        eq.check_verify_work(1000, [1, 1], 2000, stencils_and_search=False)
        eq.check_verify_work(2, [], eq.MAX_SAMPLES, stencils_and_search=True)
        with pytest.raises(ValueError, match=r"^eqmap verify at r=2 would do 300,001,128 units of "
                                             r"work \(197,496,204 for the equivariance row-steps, "
                                             r"98,551,000 for the search row-steps, 3,949,924 for "
                                             r"the ball draws and 4,000 for the stencils\), beyond "
                                             r"the cap eqmaps\.MAX_VERIFY_WORK = 300,000,000$"):
            eq.check_verify_work(2, [1] * 500, 98_551, stencils_and_search=True)
        with pytest.raises(ValueError, match=r"^eqmap build at r=2 would do 300,000,755 units of "
                                             r"work \(299,988,780 for the equivariance row-steps, "
                                             r"0 for the search row-steps, 11,975 for the ball "
                                             r"draws and 0 for the stencils\), beyond"):
            eq.check_verify_work(2, [1] * 500, 149_695, stencils_and_search=False)
        for r in (667, 700):
            with pytest.raises(ValueError, match=r"beyond the cap eqmaps\.MAX_VERIFY_WORK = "):
                eq.check_verify_work(r, [1], 200, stencils_and_search=True)
        # the draws bound the samples at large r: one k = 1 step at r = 5,005
        eq.check_verify_work(5005, [1], 598, stencils_and_search=False)
        with pytest.raises(ValueError, match=r"300,106,487 units of work"):
            eq.check_verify_work(5005, [1], 599, stencils_and_search=False)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            eq.check_verify_work(6, [1], 0, stencils_and_search=True)
        with pytest.raises(ValueError, match=r"eqmaps\.MAX_SAMPLES = 1,000,000"):
            eq.check_verify_work(300, [1], eq.MAX_SAMPLES + 1, stencils_and_search=True)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_empty_sample_set_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            eq.verify_no_spurious_zeros(eq.identity_map(2), samples=samples)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            eq.verify_equivariance(eq.identity_map(2), samples=samples)

    def test_sample_count_beyond_the_cap_rejected(self):
        match = r"samples = 1,000,001 is beyond the cap eqmaps\.MAX_SAMPLES = 1,000,000"
        with pytest.raises(ValueError, match=match):
            eq.verify_no_spurious_zeros(eq.identity_map(2), samples=eq.MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match=match):
            eq.verify_equivariance(eq.identity_map(2), samples=eq.MAX_SAMPLES + 1)


def circle_of(steps):
    """The circle map of the r = 2 plan of steps."""
    return ci.build_circle_map(plan_of(2, steps))[0]


def on_circle(theta):
    """The points [[a, -a], [b, -b]] of z = sqrt(2)(a + ib) = e^{i theta}."""
    X = np.zeros((len(theta), 2, 2))
    X[:, :, 0] = np.stack([np.cos(theta), np.sin(theta)], axis=1) / math.sqrt(2.0)
    X[:, :, 1] = -X[:, :, 0]
    return X


def sphere_images(steps, theta):
    """MapLayer.eval_batch of the r = 2 plan of steps at the angles theta, as z."""
    Y = eq.build_from_plan(plan_of(2, steps))[0].eval_batch(on_circle(theta))
    return math.sqrt(2.0) * (Y[:, 0, 0] + 1j * Y[:, 1, 0])


class TestWinding:
    def test_identity(self):
        assert ci.winding_number(circle_of(())) == 1

    def test_acceptance_plans(self):
        cases = {
            ((1, -1),): -1,
            ((1, 1),): 3,
            ((1, -1), (1, -1)): -3,
        }
        for steps, expected in cases.items():
            circle_map, ledger = ci.build_circle_map(plan_of(2, steps))
            assert ci.winding_number(circle_map) == expected == ledger.final

    def test_ledger_agreement_all_plans_to_length_6_and_length_8(self):
        """Each plan's winding matches its ledger, and its circle map matches
        MapLayer.eval_batch to 1e-12 on 2,048 angles, at least 60 in each ball."""
        plans = [steps for length in range(7)
                 for steps in itertools.product(((1, 1), (1, -1)), repeat=length)]
        for first in (1, -1):
            plans.append(((1, first),) * 8)
            plans.append(((1, first), (1, -first)) * 4)
        theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        for steps in plans:
            circle_map, ledger = ci.build_circle_map(plan_of(2, steps))
            got = np.array([circle_map.image(complex(math.cos(t), math.sin(t))) for t in theta])
            assert np.abs(got - sphere_images(steps, theta)).max() < 1e-12, f"plan {steps}"
            w = ci.winding_number(circle_map)
            assert w == ledger.final, f"plan {steps}: winding {w} != {ledger.final}"
            assert w % 2 == 1  # equivariant circle maps have odd degree

    def test_image_matches_sphere_map_on_long_plans(self):
        """On random plans of up to 40 steps the one step that image applies
        gives MapLayer.eval_batch's value, which runs every step, to 1e-11
        (1.4e-12 at worst), and moves some point."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            steps = [(1, int(s)) for s in rng.choice((-1, 1), size=rng.integers(1, 41))]
            circle_map = circle_of(steps)
            theta = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False),
                                    rng.uniform(0.0, 2.0 * math.pi, 1024)])
            z = np.array([complex(math.cos(t), math.sin(t)) for t in theta])
            got = np.array([circle_map.image(w) for w in z])
            assert np.abs(got - sphere_images(steps, theta)).max() < 1e-11, f"plan {steps}"
            assert np.any(got != z)

    def test_balls_are_disjoint_and_the_blend_keeps_points_in_them(self):
        """What image rests on: no point lies in two balls, over every step
        and both points of its orbit, and the reflection blend moves no
        ball point farther from its center, at any lam."""
        rng = np.random.default_rng(34)
        plans = [[(1, int(s)) for s in rng.choice((-1, 1), size=rng.integers(1, 61))]
                 for _ in range(40)] + [[(1, -1)] * 100, [(1, -1)] * 500]
        for steps in plans:
            circle_map = circle_of(steps)
            R = circle_map.radius
            centers = np.array(circle_map.centers)
            centers = np.concatenate([centers, -centers])
            arc = 2.0 * math.asin(R / 2.0)  # a ball's reach in angle from its center
            inside = np.angle(centers)[:, None] + rng.uniform(-arc, arc, (len(centers), 20))
            theta = np.concatenate([inside.ravel(), rng.uniform(0.0, 2.0 * math.pi, 2000)])
            z = np.exp(1j * theta)
            dist = np.abs(z[:, None] - centers[None, :])
            in_ball = dist < R
            assert in_ball.sum(axis=1).max() <= 1, f"plan {steps}"
            rows, cols = np.nonzero(in_ball)
            assert len(rows) > 0.9 * inside.size
            zb, c, d = z[rows], centers[cols], dist[rows, cols]
            v = 1j * c
            for lam in (0.0, 0.3, 0.5, 0.9, 1.0):
                y = zb - 2.0 * lam * (zb.real * v.real + zb.imag * v.imag) * v
                assert np.all(np.abs(y / np.abs(y) - c) <= d + 1e-15), f"plan {steps}, lam {lam}"

    def test_requires_r2(self):
        with pytest.raises(ValueError, match="only for r = 2"):
            ci.build_circle_map(plan_of(3, ()))

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(ci, "MAX_WINDING_SAMPLES", 512)
        with pytest.raises(ci.WindingNonconvergenceError, match="within 512 samples"):
            ci.winding_number(circle_of(((1, -1),)))

    def test_long_same_k_plan_within_budget(self, monkeypatch):
        """The first grid resolves the smallest ball, R = sin(pi/400) at 100 steps,
        and only coarse arcs are halved: 2**16 samples suffice."""
        monkeypatch.setattr(ci, "MAX_WINDING_SAMPLES", 2 ** 16)
        circle_map, ledger = ci.build_circle_map(plan_of(2, ((1, -1),) * 100))
        assert ci.winding_number(circle_map) == ledger.final == -199


class TestPlanJson:
    def test_layer_plan_round_trip(self):
        plan = certificate_to_plan(bezout_certificate(6))
        layer, _ = eq.build_from_plan(plan)
        obj = eq.layer_plan_json(layer)
        assert obj["r"] == 6
        assert obj["radius_rule"] == eq.RADIUS_RULE == ("min(min_orbit_dist/3, sin(pi/(4n)), "
                                                        "orbit_dist(k, k')/2)")
        assert [(s["k"], s["sign"]) for s in obj["steps"]] == list(plan.steps)
        layer, _ = eq.build_from_plan(plan_of(2, ((1, -1), (1, -1))))
        assert eq.layer_plan_json(layer)["radius_rule"] == eq.RADIUS_RULE
        for r, steps in ((6, plan.steps), (2, ((1, -1), (1, -1))), SEPARATED_PLANS[1]):
            layer, _ = eq.build_from_plan(plan_of(r, steps))
            obj = eq.layer_plan_json(layer)
            again, _ = eq.build_from_plan(plan_of(obj["r"], [(s["k"], s["sign"])
                                                             for s in obj["steps"]]))
            assert again.depth == layer.depth == len(steps)
            for a, b in zip(layer.chain(), again.chain()):
                assert (a.node.k, a.node.sign) == (b.node.k, b.node.sign)
                assert a.node.radius == b.node.radius
                assert np.array_equal(a.node.centers, b.node.centers)

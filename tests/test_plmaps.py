import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from tverberg import complexes, plmaps
from tverberg.complexes import SimplicialComplex, simplex_skeleton
from tverberg.plmaps import (
    CheckVerdict,
    IntersectionWitness,
    PLMap,
    almost_r_embedding_check,
    constant_map,
    in_general_position,
    join_maps,
    random_rational_map,
    simplices_intersect,
)

# ---------------------------------------------------------------------------
# Oracles (independent of the LP path)
# ---------------------------------------------------------------------------

def orient(p, q, r):
    """Sign of the signed area of the triangle p q r, exactly."""
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (val > 0) - (val < 0)


def segments_cross(p, q, r, s):
    """Exact proper-or-touching intersection test for segments pq and rs."""
    d1 = orient(r, s, p)
    d2 = orient(r, s, q)
    d3 = orient(p, q, r)
    d4 = orient(p, q, s)
    if d1 != d2 and d3 != d4:
        return True

    def on_segment(a, b, c):
        return (
            orient(a, b, c) == 0
            and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    return (
        on_segment(r, s, p) or on_segment(r, s, q)
        or on_segment(p, q, r) or on_segment(p, q, s)
    )


def point_in_triangle(p, a, b, c):
    signs = {orient(a, b, p), orient(b, c, p), orient(c, a, p)}
    return not ({1, -1} <= signs)


def square_map():
    K = simplex_skeleton(3, 3)
    pts = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    return PLMap(K, 2, pts)


def unit_triangle_map():
    K = simplex_skeleton(2, 2)
    return PLMap(K, 2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))


# A non-pure complex whose maximal faces have 2, 3 and 4 vertices
NON_PURE = SimplicialComplex.from_faces(9, [(0, 1, 2, 3), (2, 4, 5), (5, 6), (6, 7, 8),
                                            (0, 8), (1, 4), (3, 7), (4, 6)])


def disjoint_combinations(K, r):
    """The r-subsets of the face list, in increasing face index, whose faces are pairwise disjoint."""
    return (t for t in itertools.combinations(K.faces(), r) if len(set().union(*t)) == sum(map(len, t)))


def scanned_tuples(K, r, maximal_only):
    """Disjoint tuples in the checker's order; with maximal_only, by has_face."""
    for faces in disjoint_combinations(K, r):
        free = set(range(K.num_vertices)).difference(*faces)
        if not maximal_only or not any(K.has_face(tuple(sorted(face + (v,))))
                                       for face in faces for v in free):
            yield faces


def images(f, faces):
    return [[f.coords[v] for v in face] for face in faces]


def degenerate_map(K, d, den, seed):
    """Images on the grid of step 1/den in [-2, 2]^d, so many are collinear or coincide."""
    rng = random.Random(seed)
    return PLMap(K, d, tuple(tuple(F(rng.randint(-2 * den, 2 * den), den) for _ in range(d))
                             for _ in range(K.num_vertices)))


def lifted_kernel_dim(points):
    """Dimension of the affine dependences of the points: the number of points
    less the rank of the rows (p, 1), by plain rational elimination."""
    rows = [[F(x) for x in p] + [F(1)] for p in points]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][c] / rows[rank][c]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(points) - rank


def phase_one_with_artificial_columns(A, b):
    """Feasible x >= 0 with A x = b, or None: plmaps._phase_one as it was with
    explicit artificial columns, kept as the oracle of the column-free tableau.

    Phase-one simplex with Bland's rule (smallest eligible index enters;
    ties in the ratio test break toward the smallest basic index), so
    termination is guaranteed.  The tableau stays integral via integer
    pivoting: after a pivot on (p, q) every other row transforms as
    (T[i][j]*piv - T[i][q]*T[p][j]) / det with exact division by the
    previous pivot.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [0] * m
        art[i] = 1
        T.append(row + art + [rhs])
    obj = [-sum(T[i][j] for i in range(m)) for j in range(n)]
    obj += [0] * m
    obj.append(-sum(T[i][-1] for i in range(m)))
    T.append(obj)

    ncols = n + m
    det = 1
    basis = list(range(n, n + m))
    while True:
        objrow = T[m]
        q = -1
        for j in range(ncols):
            if objrow[j] < 0:
                q = j
                break
        if q < 0:
            break
        p = -1
        bn = bd = 0
        for i in range(m):
            v = T[i][q]
            if v > 0:
                num = T[i][-1]
                if p < 0 or num * bd < bn * v or (num * bd == bn * v and basis[i] < basis[p]):
                    p, bn, bd = i, num, v
        if p < 0:
            raise AssertionError("phase-one objective is bounded; no pivot row found")
        piv = T[p][q]
        Tp = T[p]
        for i in range(m + 1):
            if i == p:
                continue
            Ti = T[i]
            tiq = Ti[q]
            if tiq:
                T[i] = [(a * piv - tiq * c) // det for a, c in zip(Ti, Tp)]
            elif piv != det:
                T[i] = [(a * piv) // det for a in Ti]
        det = piv
        basis[p] = q

    if T[m][-1] != 0:
        return None
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = F(T[i][-1], det)
    return x


def random_lp(rng):
    """A small integer system A x = b: feasible at a sparse x0 >= 0 (so often
    degenerate) or with a random b, plus combinations of rows and a zero row."""
    m, n = rng.randint(1, 6), rng.randint(1, 9)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = [rng.randint(-4, 4) for _ in range(m)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j, c = rng.randrange(len(A)), rng.randrange(len(A)), rng.choice((-2, -1, 1, 2))
        A.append([u + c * v for u, v in zip(A[i], A[j])])
        b.append(b[i] + c * b[j])
    if rng.random() < 0.1:
        A.append([0] * n)
        b.append(0)
    return A, b


def assert_matches_brute_force(f, r, maximal_only):
    """Every scanned tuple through the r-fold LP: same verdict, count and witness."""
    checked, first = 0, None
    for faces in scanned_tuples(f.complex, r, maximal_only):
        checked += 1
        hit = simplices_intersect(images(f, faces), f.d)
        if hit is not None:
            first = faces, hit
            break
    verdict = almost_r_embedding_check(f, r, maximal_only=maximal_only)
    assert verdict.passed == (first is None)
    assert verdict.tuples_checked == checked
    if first is not None:
        w = verdict.witness
        assert (w.faces, w.point, w.barycentric) == \
            (first[0], first[1].point, first[1].barycentric)
    return verdict


# ---------------------------------------------------------------------------
# PLMap basics
# ---------------------------------------------------------------------------

class TestPLMap:
    def test_eval_vertex(self):
        f = unit_triangle_map()
        assert f.eval((1,), (1,)) == (F(1), F(0))

    def test_eval_midpoint(self):
        f = unit_triangle_map()
        assert f.eval((0, 1), (F(1, 2), F(1, 2))) == (F(1, 2), F(0))

    def test_eval_centroid(self):
        f = unit_triangle_map()
        w = (F(1, 3), F(1, 3), F(1, 3))
        assert f.eval((0, 1, 2), w) == (F(1, 3), F(1, 3))

    def test_eval_validation(self):
        f = unit_triangle_map()
        with pytest.raises(ValueError):
            f.eval((0, 1), (F(1, 2), F(1, 4)))  # does not sum to 1
        with pytest.raises(ValueError):
            f.eval((0, 1), (F(3, 2), F(-1, 2)))  # negative weight
        with pytest.raises(ValueError):
            f.eval((0, 3), (F(1, 2), F(1, 2)))  # not a face

    def test_rejects_float_coordinates(self):
        K = simplex_skeleton(0, 0)
        with pytest.raises(TypeError):
            PLMap(K, 1, ((0.5,),))

    def test_json_round_trip(self):
        f = square_map()
        obj = f.to_json()
        assert obj["coords"]["0"] == ["0", "0"]
        assert PLMap.from_json(f.complex, obj) == f

    @pytest.mark.parametrize("coords, message", [
        ({"0": ["0"], "1": ["1"], "2": ["2"], "9": ["3"]}, "'9' is not a decimal vertex number"),
        ({"0": ["0"], "1": ["1"], "2": ["2"], "-1": ["3"]}, "'-1' is not a decimal vertex number"),
        ({"0": ["0"], "1": ["1"], "2": ["2"], "+3": ["3"]}, "'\\+3' is not a decimal vertex"),
        ({"0": ["0"], "1": ["1"], "01": ["2"], "2": ["3"]}, "'01' repeats vertex 1"),
        ({"0": ["0"], "1": ["1"], "2": ["2"]}, r"no point for vertices \[3\]"),
    ])
    def test_from_json_rejects_bad_vertex_keys(self, coords, message):
        K = simplex_skeleton(3, 1)
        with pytest.raises(ValueError, match=message):
            PLMap.from_json(K, {"d": 1, "coords": coords})

    @pytest.mark.parametrize("obj, message", [
        ({"d": 1, "coords": {"0": [0.5], "1": ["1"]}}, "must be a list of rational strings"),
        ({"d": 1, "coords": {"0": [1], "1": ["1"]}}, "must be a list of rational strings"),
        ({"d": 2, "coords": {"0": "00", "1": ["1", "1"]}}, "must be a list of rational strings"),
        ({"d": 1, "coords": [["0"], ["1"]]}, "coords must be an object"),
        ({"d": True, "coords": {"0": ["0"], "1": ["1"]}}, "non-negative integer, got True"),
        ({"d": "1", "coords": {"0": ["0"], "1": ["1"]}}, "non-negative integer, got '1'"),
        ({"d": 1, "coords": {"0": ["0"], "1": ["2/0"]}}, "zero denominator"),
    ])
    def test_from_json_rejects_malformed_values(self, obj, message):
        with pytest.raises(ValueError, match=message):
            PLMap.from_json(simplex_skeleton(1, 1), obj)

    def test_from_json_needs_every_vertex_in_r0(self):
        K = simplex_skeleton(3, 1)
        with pytest.raises(ValueError, match=r"no point for vertices \[1, 3\]"):
            PLMap.from_json(K, {"d": 0, "coords": {"0": [], "2": []}})
        f = PLMap.from_json(K, {"d": 0, "coords": {"0": [], "01": [], "2": [], "3": []}})
        assert f.coords == ((),) * 4


class TestConstantMap:
    def test_point(self):
        f = constant_map(0)
        assert f.d == 0 and f.coords == ((),)

    def test_vacuous_almost_6_embedding(self):
        # 5 vertices cannot host 6 disjoint nonempty faces
        f = constant_map(4)
        assert almost_r_embedding_check(f, 6).passed is True

    def test_edge_to_point_fails_r2(self):
        f = constant_map(1)
        verdict = almost_r_embedding_check(f, 2)
        assert verdict.passed is False
        assert verdict.witness.faces == ((0,), (1,))


class TestJoinMaps:
    def test_point_join_point(self):
        f = constant_map(0, d=0)
        j = join_maps(f, f)
        assert j.d == 1
        assert j.coords == ((F(0),), (F(1),))

    def test_identity_segment_join_point(self):
        K = simplex_skeleton(1, 1)
        seg = PLMap(K, 1, ((F(0),), (F(1),)))
        assert almost_r_embedding_check(seg, 2).passed
        j = join_maps(seg, constant_map(0))
        assert j.complex == simplex_skeleton(2, 2) and j.d == 2
        assert almost_r_embedding_check(j, 2).passed

    def test_join_of_almost_2_embeddings(self):
        f = unit_triangle_map()
        g = unit_triangle_map()
        assert almost_r_embedding_check(f, 2).passed
        j = join_maps(f, g)
        assert j.complex == simplex_skeleton(5, 5) and j.d == 5
        assert almost_r_embedding_check(j, 2).passed


# ---------------------------------------------------------------------------
# Exact intersection decisions
# ---------------------------------------------------------------------------

class TestSimplicesIntersect:
    def test_crossing_segments(self):
        hit = simplices_intersect(
            [[(F(0), F(0)), (F(1), F(1))], [(F(1), F(0)), (F(0), F(1))]], 2
        )
        assert hit.point == (F(1, 2), F(1, 2))

    def test_separated_triangles(self):
        tri = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        far = [(x + 10, y) for x, y in tri]
        assert simplices_intersect([tri, far], 2) is None

    def test_three_segments_through_origin(self):
        sets = [
            [(F(1), F(0)), (F(-1), F(0))],
            [(F(1), F(2)), (F(-1), F(-2))],
            [(F(-1), F(2)), (F(1), F(-2))],
        ]
        hit = simplices_intersect(sets, 2)
        assert hit.point == (F(0), F(0))
        for w in hit.barycentric:
            assert sum(w) == 1 and all(x >= 0 for x in w)

    def test_zero_dimensional_target(self):
        hit = simplices_intersect([[()], [(), ()]], 0)
        assert hit.point == ()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simplices_intersect([[(F(0),)], [(F(0), F(0))]], 1)
        with pytest.raises(ValueError):
            simplices_intersect([[(F(0),)]], 1)

    def test_int_coordinates_match_fractions(self):
        ints = [[(0, 0), (4, 4)], [(4, 0), (0, 4)], [(0, 2), (4, 2)]]
        fracs = [[tuple(F(x, 4) for x in p) for p in ps] for ps in ints]
        by_int = simplices_intersect(ints, 2)
        by_frac = simplices_intersect(fracs, 2)
        assert by_int.point == (F(2), F(2))
        assert by_frac.point == (F(1, 2), F(1, 2))
        assert by_int.barycentric == by_frac.barycentric

    def test_phase_one_matches_artificial_column_tableau(self):
        """Same verdict and the same basic solution x = numerators / det on random systems."""
        rng = random.Random(19)
        feasible = 0
        for _ in range(3000):
            A, b = random_lp(rng)
            solution = plmaps._phase_one(A, b)
            x = None if solution is None else [F(v, solution[1]) for v in solution[0]]
            assert x == phase_one_with_artificial_columns(A, b), (A, b)
            feasible += x is not None
        assert 1000 < feasible < 2800  # both verdicts are exercised

    def test_pair_decision_matches_the_lp_on_random_pairs(self):
        """_hulls_meet against the two-hull LP, on spans small enough for
        coincident, collinear and coplanar points to be common."""
        rng = random.Random(21)
        kinds = Counter()
        for _ in range(20_000):
            d, span = rng.randint(1, 5), rng.choice((1, 2, 3, 50, 16_384))
            P, Q = ([tuple(rng.randint(-span, span) for _ in range(d))
                     for _ in range(rng.randint(1, 3))] for _ in range(2))
            meet = simplices_intersect([P, Q], d) is not None
            assert plmaps._hulls_meet(P, Q) == meet, (P, Q)
            w = plmaps._affine_dependence(P + Q)
            kinds[2 if w is None else int(any(w)), meet] += 1
        # every branch, with both verdicts where both can occur
        assert min(kinds[dim, meet] for dim in (0, 1, 2) for meet in (False, True)
                   if (dim, meet) != (0, True)) > 1000, kinds
        assert kinds[0, True] == 0  # affinely independent points: the hulls are disjoint

    @pytest.mark.parametrize("P, Q, kernel_dim, meet", [
        ([(0, 0)], [(1, 0), (0, 1)], 0, False),
        ([(0, 0), (2, 2)], [(2, 0), (0, 2)], 1, True),  # the diagonals cross
        ([(0, 0), (1, 0)], [(0, 1), (3, 2)], 1, False),  # the segments miss
        ([(0, 0), (4, 0), (0, 4)], [(1, 1), (5, 5), (9, 1)], 2, True),  # 6 points in the plane
        ([(1, 1), (1, 1)], [(1, 1)], 2, True),  # coincident
        ([(0, 0), (2, 0)], [(3, 0), (5, 0)], 2, False),  # collinear
    ], ids=["independent", "radon-meet", "radon-miss", "plane-meet", "coincident", "collinear"])
    def test_pair_decision_by_kernel_rank(self, monkeypatch, P, Q, kernel_dim, meet):
        """Affinely independent points have disjoint hulls, the sign pattern of
        a dependence line decides, and a larger kernel goes to the LP."""
        lps = []
        monkeypatch.setattr(plmaps, "simplices_intersect",
                            lambda sets, d: lps.append(sets) or simplices_intersect(sets, d))
        w = plmaps._affine_dependence(P + Q)
        assert min(lifted_kernel_dim(P + Q), 2) == kernel_dim  # 2 stands for 2 or more
        if kernel_dim < 2:
            assert any(w) == kernel_dim
            assert [sum(wi * (*p, 1)[ell] for wi, p in zip(w, P + Q)) for ell in range(3)] == [0] * 3
        else:
            assert w is None
        assert plmaps._hulls_meet(P, Q) is meet
        assert lps == ([[P, Q]] if kernel_dim == 2 else [])

    def test_touching_hulls(self):
        # shared endpoint counts as intersection
        hit = simplices_intersect(
            [[(F(0), F(0)), (F(1), F(0))], [(F(1), F(0)), (F(2), F(5))]], 2
        )
        assert hit.point == (F(1), F(0))


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

class TestChecker:
    def test_radon_square(self):
        verdict = almost_r_embedding_check(square_map(), 2)
        assert verdict.passed is False
        assert verdict.witness.faces == ((0, 3), (1, 2))
        assert verdict.witness.point == (F(1, 2), F(1, 2))
        verdict.witness.verify(square_map())

    def test_unit_triangle_passes(self):
        assert almost_r_embedding_check(unit_triangle_map(), 2).passed

    def test_witness_soundness_recheck(self):
        verdict = almost_r_embedding_check(square_map(), 2)
        w = verdict.witness
        # independent recomputation of both affine combinations
        for face, weights in zip(w.faces, w.barycentric):
            pt = [F(0), F(0)]
            for wi, v in zip(weights, face):
                pt[0] += wi * square_map().coords[v][0]
                pt[1] += wi * square_map().coords[v][1]
            assert tuple(pt) == w.point

    def test_k5_crossing_matches_segment_oracle(self):
        K5 = simplex_skeleton(4, 1)
        for seed in range(8):
            f = random_rational_map(K5, 2, seed)
            verdict = almost_r_embedding_check(f, 2)
            assert verdict.passed is False
            faces = verdict.witness.faces
            assert all(len(face) == 2 for face in faces)
            e1, e2 = faces
            pts = f.coords
            assert segments_cross(pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
            # and the oracle agrees some disjoint pair crosses
            edges = [face for face in K5.faces() if len(face) == 2]
            crossing = [
                (a, b)
                for a, b in itertools.combinations(edges, 2)
                if not set(a) & set(b)
                and segments_cross(pts[a[0]], pts[a[1]], pts[b[0]], pts[b[1]])
            ]
            assert (e1, e2) in crossing or (e2, e1) in crossing

    def test_radon_oracle_sample(self):
        K = simplex_skeleton(3, 3)
        for seed in range(12):
            f = random_rational_map(K, 2, seed)
            verdict = almost_r_embedding_check(f, 2)
            assert verdict.passed is False
            verdict.witness.verify(f)

    def test_tverberg_r3_sample(self):
        K = simplex_skeleton(6, 6)
        for seed in (0, 1):
            f = random_rational_map(K, 2, seed)
            verdict = almost_r_embedding_check(f, 3)
            assert verdict.passed is False
            verdict.witness.verify(f)

    def test_tuple_monotonicity(self):
        # v3 inside the big triangle; supersets of the witness still fail
        K = simplex_skeleton(4, 4)
        pts = (
            (F(0), F(0)), (F(4), F(0)), (F(0), F(4)), (F(1), F(1)), (F(2), F(9)),
        )
        f = PLMap(K, 2, pts)
        base = [[pts[3]], [pts[0], pts[1], pts[2]]]
        assert simplices_intersect(base, 2) is not None
        bigger = [[pts[3], pts[4]], [pts[0], pts[1], pts[2]]]
        assert simplices_intersect(bigger, 2) is not None
        verdict = almost_r_embedding_check(f, 2)
        assert verdict.passed is False

    def test_affine_invariance(self):
        f = square_map()
        # x -> A x + b with A = [[2, 1], [1, 1]], b = (3, 5)
        def T(p):
            return (2 * p[0] + p[1] + 3, p[0] + p[1] + 5)

        g = PLMap(f.complex, 2, tuple(T(p) for p in f.coords))
        vf = almost_r_embedding_check(f, 2)
        vg = almost_r_embedding_check(g, 2)
        assert vf.passed == vg.passed is False
        assert vf.witness.faces == vg.witness.faces
        assert vg.witness.point == T(vf.witness.point)

    def test_maximal_only_mode_agrees(self):
        for seed in range(4):
            f = random_rational_map(simplex_skeleton(3, 3), 2, seed)
            full = almost_r_embedding_check(f, 2)
            pruned = almost_r_embedding_check(f, 2, maximal_only=True)
            assert full.passed == pruned.passed
            if not pruned.passed:
                pruned.witness.verify(f)
        g = unit_triangle_map()
        assert almost_r_embedding_check(g, 2, maximal_only=True).passed

    def test_fail_deep_in_the_order(self):
        """The count runs up to and including the first witness."""
        g = random_rational_map(simplex_skeleton(6, 1), 2, 1)
        for maximal_only, count in ((False, 128), (True, 2)):
            verdict = almost_r_embedding_check(g, 2, maximal_only=maximal_only)
            assert verdict.passed is False
            assert verdict.tuples_checked == count

    @pytest.mark.parametrize("r, d", [(2, 2), (2, 3), (3, 2), (3, 1)])
    def test_maximal_only_on_non_pure_complex_matches_oracle(self, r, d):
        K = NON_PURE
        assert {len(face) for face in K.maximal_faces} == {2, 3, 4}
        for seed in range(4):
            f = random_rational_map(K, d, seed)
            maximal = list(scanned_tuples(K, r, maximal_only=True))
            hits = [i for i, faces in enumerate(maximal)
                    if simplices_intersect(images(f, faces), d)]
            verdict = almost_r_embedding_check(f, r, maximal_only=True)
            assert verdict.passed == (not hits) == almost_r_embedding_check(f, r).passed
            if hits:
                assert verdict.witness.faces == maximal[hits[0]]
                assert verdict.tuples_checked == hits[0] + 1
            else:
                assert verdict.tuples_checked == len(maximal)

    def test_mixed_denominators(self):
        """Faces and counts as recorded before the map was scaled to integers once."""
        rng = random.Random(0)
        K = simplex_skeleton(7, 2)
        f = PLMap(K, 3, tuple(tuple(F(rng.randint(-30, 30), rng.choice((2, 3, 5, 7)))
                                    for _ in range(3)) for _ in range(8)))
        assert {2, 3, 5, 7} <= {x.denominator for p in f.coords for x in p}
        for maximal_only, faces, count in ((False, ((0, 1), (2, 3, 4)), 492),
                                           (True, ((0, 1, 2), (3, 4, 5)), 1)):
            verdict = almost_r_embedding_check(f, 2, maximal_only=maximal_only)
            assert verdict.passed is False
            assert verdict.witness.faces == faces
            assert verdict.tuples_checked == count
            w = verdict.witness
            for face, weights in zip(w.faces, w.barycentric):
                assert sum(weights) == 1 and min(weights) >= 0
                assert tuple(sum(wi * f.coords[v][ell] for wi, v in zip(weights, face))
                             for ell in range(3)) == w.point

    @pytest.mark.parametrize("maximal_only", [False, True])
    @pytest.mark.parametrize("r, K, d", [
        (2, simplex_skeleton(5, 2), 3), (2, simplex_skeleton(6, 1), 3), (2, NON_PURE, 2),
        (3, simplex_skeleton(7, 1), 2), (3, simplex_skeleton(6, 2), 2), (3, NON_PURE, 1),
        (4, NON_PURE, 2), (4, simplex_skeleton(7, 1), 1),
    ])
    def test_random_maps_match_brute_force(self, r, K, d, maximal_only):
        """Every scanned tuple through the r-fold LP: same verdict, count and witness."""
        for seed in range(2):
            # integer images, so the checker's integer rows are the coordinates themselves
            f = random_rational_map(K, d, seed, span=20, denominator=1)
            assert_matches_brute_force(f, r, maximal_only)

    @pytest.mark.parametrize("maximal_only", [False, True])
    @pytest.mark.parametrize("r, K, d", [
        (2, simplex_skeleton(5, 2), 3), (2, NON_PURE, 3), (3, simplex_skeleton(6, 1), 2),
        (3, NON_PURE, 2), (4, NON_PURE, 2), (4, simplex_skeleton(7, 1), 1),
    ])
    def test_degenerate_maps_match_brute_force(self, r, K, d, maximal_only):
        """Collinear or coincident images whose boxes touch at lo = hi."""
        verdicts = [assert_matches_brute_force(degenerate_map(K, d, den, den), r, maximal_only)
                    for den in (1, 3, 7)]
        if K is NON_PURE and maximal_only:  # FAIL ranks past the first maximal tuple
            assert any(not v.passed and v.tuples_checked > 1 for v in verdicts)

    @pytest.mark.parametrize("r, K, d", [
        (2, simplex_skeleton(5, 2), 3), (2, simplex_skeleton(6, 1), 3),
        (3, simplex_skeleton(7, 1), 2), (3, simplex_skeleton(6, 2), 2),
    ])
    def test_each_face_pair_solved_once(self, monkeypatch, r, K, d):
        """Each face pair is decided once, and reaches the LP only when the kernel
        of its lifted points has dimension 2 or more; the r-fold LP runs only
        where every pair meets."""
        f = random_rational_map(K, d, 1, span=20, denominator=1)
        decided, calls = [], []
        hulls_meet = plmaps._hulls_meet

        def deciding(P, Q):
            decided.append((tuple(map(tuple, P)), tuple(map(tuple, Q))))
            return hulls_meet(P, Q)

        def counting(point_sets, dim):
            calls.append(tuple(tuple(map(tuple, ps)) for ps in point_sets))
            return simplices_intersect(point_sets, dim)

        def boxes_meet(point_sets):
            boxes = [[(min(c), max(c)) for c in zip(*pts)] for pts in point_sets]
            return all(max(lo for lo, _ in axis) <= min(hi for _, hi in axis)
                       for axis in zip(*boxes))

        monkeypatch.setattr(plmaps, "_hulls_meet", deciding)
        monkeypatch.setattr(plmaps, "simplices_intersect", counting)
        verdict = almost_r_embedding_check(f, r)
        scanned = list(itertools.islice(scanned_tuples(K, r, False), verdict.tuples_checked))
        assert len(set(decided)) == len(decided) and len(set(calls)) == len(calls)
        assert all(boxes_meet(pair) for pair in decided)
        pair_lps = [pair for pair in decided if lifted_kernel_dim(pair[0] + pair[1]) >= 2]
        if r == 2:
            # the pair is the tuple: every scanned pair whose boxes meet is decided, in
            # scan order, and only the first that meets, the witness, reaches the r-fold LP
            assert decided == [tuple(tuple(map(tuple, ps)) for ps in images(f, faces))
                               for faces in scanned if boxes_meet(images(f, faces))]
            assert calls == pair_lps + ([] if verdict.passed else decided[-1:])
        else:
            assert [call for call in calls if len(call) == 2] == pair_lps
            pairwise = [faces for faces in scanned
                        if all(simplices_intersect(images(f, pair), d)
                               for pair in itertools.combinations(faces, 2))]
            assert sum(len(call) == r for call in calls) == len(pairwise) > 0

    @pytest.mark.parametrize("d, maximal_only, passed, decisions, lp_calls, tuples_checked", [
        (5, False, True, 841, 0, 59_830), (5, True, True, 403, 0, 2_800),
        (3, False, False, 1_175, 269, 57_064),
    ])
    def test_look_ahead_spares_lps(self, monkeypatch, d, maximal_only, passed, decisions,
                                   lp_calls, tuples_checked):
        """The maps of the benchmark's check workload.  A prefix whose clique
        cannot be completed decides no face pair; without that look-ahead the
        scan decides 2,230 / 2,230 / 1,673 pairs.  In R^5 a pair has at most 6
        points, affinely independent here, so no pair reaches the LP; in R^3,
        147 pairs and the 122 cliques whose pairs all meet do."""
        f = random_rational_map(simplex_skeleton(9, 2), d, 1)
        decided, calls = [], []
        hulls_meet = plmaps._hulls_meet

        def deciding(P, Q):
            decided.append(1)
            return hulls_meet(P, Q)

        def counting(point_sets, dim):
            calls.append(len(point_sets))
            return simplices_intersect(point_sets, dim)

        monkeypatch.setattr(plmaps, "_hulls_meet", deciding)
        monkeypatch.setattr(plmaps, "simplices_intersect", counting)
        verdict = almost_r_embedding_check(f, 3, maximal_only=maximal_only)
        assert (verdict.passed, len(decided), len(calls), verdict.tuples_checked) == \
            (passed, decisions, lp_calls, tuples_checked)

    def test_more_faces_than_vertices_pass_without_lp(self, monkeypatch):
        f = random_rational_map(simplex_skeleton(9, 2), 3, 1)
        calls = []
        monkeypatch.setattr(plmaps, "simplices_intersect", lambda *args: calls.append(args))
        for maximal_only in (False, True):
            verdict = almost_r_embedding_check(f, 11, maximal_only=maximal_only)
            assert verdict.passed is True
            assert verdict.tuples_checked == 0
        assert calls == []

    def test_pair_work_beyond_the_cap_is_refused_before_listing(self, deadline, monkeypatch):
        """One 18-simplex lists within MAX_FACE_LISTING, but its box graph could
        test 524,287^2 face pairs: the check refuses it before listing a face."""
        K = SimplicialComplex(19, (tuple(range(19)),))
        f = PLMap(K, 2, tuple((v, v * v) for v in range(19)))
        listed = []
        listing = complexes._all_faces
        monkeypatch.setattr(complexes, "_all_faces", lambda K: listed.append(K) or listing(K))
        with deadline(1.0), pytest.raises(ValueError, match=(
                f"could test {524_287 ** 2} face pairs, beyond the cap "
                f"MAX_PAIR_WORK = {plmaps.MAX_PAIR_WORK}")):
            almost_r_embedding_check(f, 2)
        assert listed == []
        # the 2-skeleta of the 9-, 14- and 20-simplex (benchmark and README) are admitted
        bounds = [complexes._face_listing_bound(simplex_skeleton(N, 2)) for N in (9, 14, 20)]
        assert bounds == [840, 3_185, 9_310]
        assert 9_310 ** 2 <= plmaps.MAX_PAIR_WORK
        # pair work equal to the cap is admitted, one pair more is not
        g = random_rational_map(simplex_skeleton(3, 1), 2, 1)  # 6 edges, 3 subsets each
        monkeypatch.setattr(plmaps, "MAX_PAIR_WORK", 18 ** 2)
        assert almost_r_embedding_check(g, 2).tuples_checked > 0
        listings = len(listed)
        assert listings > 0
        monkeypatch.setattr(plmaps, "MAX_PAIR_WORK", 18 ** 2 - 1)
        with pytest.raises(ValueError, match=f"could test {18 ** 2} face pairs"):
            almost_r_embedding_check(g, 2)
        assert len(listed) == listings

    def test_empty_tuple_set_passes(self):
        f = constant_map(1)
        assert almost_r_embedding_check(f, 4).passed is True

    def test_witness_json(self):
        verdict = almost_r_embedding_check(square_map(), 2)
        obj = verdict.witness.to_json()
        assert obj["faces"] == [[0, 3], [1, 2]]
        assert obj["point"] == ["1/2", "1/2"]
        assert all(isinstance(s, str) for row in obj["barycentric"] for s in row)


class TestWitnessVerify:
    def test_missing_weight_vector_is_rejected(self):
        f = random_rational_map(simplex_skeleton(4, 1), 2, 0)
        w = almost_r_embedding_check(f, 2).witness
        w.verify(f)
        short = IntersectionWitness(w.faces, w.point, w.barycentric[:1])
        with pytest.raises(ValueError, match="1 weight vectors for 2 faces"):
            short.verify(f)

    def test_face_outside_the_complex_is_rejected(self):
        # the segments 01 and 34 cross at (1, 1), but 34 is no face of K
        K = SimplicialComplex.from_faces(5, [(0, 1), (2, 3), (2, 4)])
        f = PLMap(K, 2, ((F(0), F(0)), (F(2), F(2)), (F(5), F(5)), (F(0), F(2)), (F(2), F(0))))
        half = (F(1, 2), F(1, 2))
        forged = IntersectionWitness(((0, 1), (3, 4)), (F(1), F(1)), (half, half))
        with pytest.raises(ValueError, match=r"\(3, 4\) is not a face of the complex"):
            forged.verify(f)

    def test_faces_sharing_a_vertex_are_rejected(self):
        # both edges reach the image of vertex 1, which they share
        f = random_rational_map(simplex_skeleton(2, 1), 2, 0)
        shared = IntersectionWitness(((0, 1), (1, 2)), f.coords[1], ((F(0), F(1)), (F(1), F(0))))
        with pytest.raises(ValueError, match="not pairwise disjoint"):
            shared.verify(f)

    def test_empty_face_is_rejected(self):
        f = random_rational_map(simplex_skeleton(2, 1), 2, 0)
        empty = IntersectionWitness(((0,), ()), f.coords[0], ((F(1),), ()))
        with pytest.raises(ValueError, match="empty"):
            empty.verify(f)


class TestRandomMaps:
    def test_determinism(self):
        K = simplex_skeleton(4, 1)
        a = random_rational_map(K, 2, 1)
        b = random_rational_map(K, 2, 1)
        c = random_rational_map(K, 2, 2)
        assert a == b and a != c

    def test_general_position(self):
        for seed in range(6):
            f = random_rational_map(simplex_skeleton(4, 1), 2, seed)
            assert in_general_position(f)

    @pytest.mark.parametrize("coords, general", [
        (((0, 0), (1, 0), (0, 1), (1, 1)), True),
        (((0, 0), (1, 1), (F(5, 2), F(5, 2)), (1, 0)), False),  # a collinear triple
        (((1, 1), (1, 1), (0, 3), (1, 0)), False),  # coincident images
        (((F(1, 3), 0), (F(1, 3), 0), (F(1, 3), 0)), False),  # three coincide: kernel of dim 2
    ])
    def test_general_position_rejects_dependent_images(self, coords, general):
        f = PLMap(simplex_skeleton(len(coords) - 1, 1), 2, coords)
        assert in_general_position(f) is general

    def test_bounded_rationals(self):
        f = random_rational_map(simplex_skeleton(4, 1), 2, 7)
        for pt in f.coords:
            for x in pt:
                assert abs(x) <= 4 and x.denominator <= 4096

    def test_too_coarse_a_grid_fails_fast(self, deadline):
        """Twelve vertices on a line of five points are never in general position."""
        with deadline(5.0), pytest.raises(ValueError, match="MAX_MAP_DRAWS"):
            random_rational_map(simplex_skeleton(11, 1), 1, 0, span=1, denominator=2)

import bisect
import itertools
import math
import random
from collections import Counter

import pytest

from tverberg import complexes as cx
from tverberg.complexes import (
    SimplicialComplex,
    count_face_combinations,
    extension_masks,
    join_complexes,
    simplex_skeleton,
    skeleton_cells_by_dim,
    skeleton_orbits,
)


def brute_disjoint_tuples(K, r):
    """Oracle: filter the full Cartesian power of the face list."""
    faces = K.faces()
    out = []
    for combo in itertools.product(faces, repeat=r):
        used = set()
        ok = True
        for f in combo:
            if used & set(f):
                ok = False
                break
            used |= set(f)
        if ok:
            out.append(combo)
    return out


def disjoint_combinations(K, r):
    """Oracle: the r-subsets of the face list, in increasing face index, whose faces are pairwise disjoint."""
    return [t for t in itertools.combinations(K.faces(), r) if len(set().union(*t)) == sum(map(len, t))]


def brute_cells_by_dim(K, r):
    """Oracle: the brute ordered tuples counted by the sum of their face dimensions."""
    dims = Counter(sum(len(face) - 1 for face in t) for t in brute_disjoint_tuples(K, r))
    return dict(sorted(dims.items()))


def random_complex(rng, num_vertices):
    count = rng.randint(1, 6)
    faces = []
    for _ in range(count):
        size = rng.randint(1, min(4, num_vertices))
        faces.append(rng.sample(range(num_vertices), size))
    return SimplicialComplex.from_faces(num_vertices, faces)


def criterion_10_complexes():
    """The complexes acceptance criterion 10 enumerates, drawn the same way."""
    rng = random.Random(97)
    suite = [simplex_skeleton(N, k) for N in range(1, 6) for k in range(N + 1)]
    for n in (3, 4, 5, 6):
        for _ in range(5):
            count = rng.randint(1, 6)
            faces = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(count)]
            suite.append(SimplicialComplex.from_faces(n, faces))
    return suite


# A non-pure complex whose maximal faces have 2, 3 and 4 vertices
NON_PURE = SimplicialComplex.from_faces(9, [(0, 1, 2, 3), (2, 4, 5), (5, 6), (6, 7, 8),
                                            (0, 8), (1, 4), (3, 7), (4, 6)])


def is_maximal(K, faces):
    """No face of the tuple extends by a vertex the others leave free (by has_face)."""
    free = set(range(K.num_vertices)).difference(*faces)
    return not any(K.has_face(tuple(sorted(face + (v,)))) for face in faces for v in free)


class TestSimplicialComplex:
    def test_skeleton_examples(self):
        assert len(simplex_skeleton(2, 1).maximal_faces) == 3
        assert len(simplex_skeleton(4, 1).maximal_faces) == math.comb(5, 2) == 10
        assert simplex_skeleton(3, 3).maximal_faces == ((0, 1, 2, 3),)

    def test_skeleton_validation(self):
        with pytest.raises(ValueError):
            simplex_skeleton(2, 3)

    def test_faces_are_downward_closed_and_sorted(self):
        K = simplex_skeleton(3, 2)
        faces = K.faces()
        assert faces == tuple(sorted(faces, key=lambda f: (len(f), f)))
        face_set = set(faces)
        for f in faces:
            for sub in itertools.combinations(f, len(f) - 1):
                if sub:
                    assert sub in face_set

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, ((0, 1), (0, 1, 2)))
        # from_faces normalizes instead
        K = SimplicialComplex.from_faces(3, [(0, 1), (0, 1, 2), (2,)])
        assert K.maximal_faces == ((0, 1, 2),)

    def test_antichain_enforced_across_dimensions(self):
        with pytest.raises(ValueError, match="antichain"):
            SimplicialComplex(6, ((2,), (0, 1, 3), (2, 3, 4, 5)))
        assert SimplicialComplex(6, ((2,), (0, 1, 3), (3, 4, 5))).dim == 2
        assert SimplicialComplex(2, ((0, 1), (0, 1))).maximal_faces == ((0, 1), (0, 1))

    def test_from_faces_keeps_the_faces_no_other_contains(self):
        """Against the pairwise test on random generating faces of mixed sizes."""
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 9)
            faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 12))]
            sets = {frozenset(f) for f in faces}
            maximal = sorted((tuple(sorted(s)) for s in sets if not any(s < t for t in sets)),
                             key=lambda f: (len(f), f))
            assert SimplicialComplex.from_faces(n, faces).maximal_faces == tuple(maximal)

    def test_large_complex_reads_in_linear_time(self, deadline):
        """The 3-skeleton of the 30-simplex, 31,465 maximal faces (282 s when
        every face was compared with every other)."""
        obj = {"num_vertices": 31,
               "maximal_faces": [list(f) for f in itertools.combinations(range(31), 4)]}
        with deadline(2.0):
            K = SimplicialComplex.from_json(obj)
            assert len(SimplicialComplex.from_faces(31, obj["maximal_faces"] + [[0], [1, 2, 3]])
                       .maximal_faces) == 31_465
        assert K == simplex_skeleton(30, 3)

    def test_face_listing_beyond_the_cap_is_refused(self, deadline, monkeypatch):
        """One 39-simplex would list 2^40 - 1 faces; the cap refuses it at once."""
        K = SimplicialComplex(40, (tuple(range(40)),))
        with deadline(1.0), pytest.raises(ValueError, match=(
                "takes 1099511627775 subsets of its maximal faces, beyond the cap "
                f"MAX_FACE_LISTING = {cx.MAX_FACE_LISTING}")):
            K.faces()
        # the largest complex of the suite and the benchmark lists within the cap
        assert 31_465 * (2 ** 4 - 1) == 471_975 <= cx.MAX_FACE_LISTING
        assert len(simplex_skeleton(30, 3).faces()) == 31 + 465 + 4_495 + 31_465
        # a listing equal to the cap is admitted, one more subset is not (uncached calls)
        monkeypatch.setattr(cx, "MAX_FACE_LISTING", 7 + 7 + 3)
        at_cap = SimplicialComplex(6, ((4, 5), (0, 1, 2), (1, 2, 3)))
        assert len(cx._all_faces.__wrapped__(at_cap)) == 6 + 6 + 2
        with pytest.raises(ValueError, match="takes 18 subsets"):
            cx._all_faces.__wrapped__(SimplicialComplex(6, ((4,), (0, 3), (0, 1, 2), (1, 2, 3))))

    def test_has_face(self):
        K = simplex_skeleton(2, 1)
        assert K.has_face((0, 1)) and K.has_face((2,))
        assert not K.has_face((0, 1, 2))
        assert not K.has_face(())

    def test_json_round_trip(self):
        K = simplex_skeleton(3, 1)
        assert SimplicialComplex.from_json(K.to_json()) == K

    @pytest.mark.parametrize("obj", [
        {"num_vertices": 2.9, "maximal_faces": [[0, 1]]},
        {"num_vertices": 2.0, "maximal_faces": [[0, 1]]},
        {"num_vertices": True, "maximal_faces": [[0]]},
        {"num_vertices": -1, "maximal_faces": []},
        {"num_vertices": "3", "maximal_faces": [[0, 1]]},
        [[0, 1]],
        {"num_vertices": 3, "maximal_faces": {"0": [0, 1]}},
        {"num_vertices": 3, "maximal_faces": [[0, 1.5]]},
        {"num_vertices": 3, "maximal_faces": [[0, True]]},
        {"num_vertices": 3, "maximal_faces": [[0, 3]]},
        {"num_vertices": 3, "maximal_faces": [[-1, 0]]},
        {"num_vertices": 3, "maximal_faces": [[0, 1], []]},
        {"num_vertices": 3, "maximal_faces": [0, 1]},
    ])
    def test_from_json_rejects_malformed_input(self, obj):
        with pytest.raises(ValueError):
            SimplicialComplex.from_json(obj)

    def test_from_json_normalizes_valid_faces(self):
        K = SimplicialComplex.from_json({"num_vertices": 4, "maximal_faces": [[1, 0], [0, 1, 2], [3]]})
        assert K == SimplicialComplex(4, ((3,), (0, 1, 2)))
        assert SimplicialComplex.from_json({"num_vertices": 0, "maximal_faces": []}).dim == -1


class TestJoin:
    def test_simplices_join_to_simplex(self):
        for a, b in ((0, 0), (1, 2), (2, 2)):
            A = simplex_skeleton(a, a)
            B = simplex_skeleton(b, b)
            J = join_complexes(A, B)
            assert J == simplex_skeleton(a + b + 1, a + b + 1)

    def test_point_join_point_is_edge(self):
        pt = simplex_skeleton(0, 0)
        assert join_complexes(pt, pt).maximal_faces == ((0, 1),)

    def test_cone_over_k5(self):
        K5 = simplex_skeleton(4, 1)
        cone = join_complexes(K5, simplex_skeleton(0, 0))
        assert len(cone.maximal_faces) == 10
        assert all(len(f) == 3 for f in cone.maximal_faces)

    def test_associative_up_to_relabeling(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_complex(rng, 3)
            B = random_complex(rng, 3)
            C = random_complex(rng, 4)
            left = join_complexes(join_complexes(A, B), C)
            right = join_complexes(A, join_complexes(B, C))
            assert left.num_vertices == right.num_vertices
            assert sorted(map(len, left.faces())) == sorted(map(len, right.faces()))


class TestDisjointTuples:
    def test_more_faces_than_vertices_returns_at_once(self, deadline):
        with deadline(2.0):
            assert count_face_combinations(simplex_skeleton(9, 2), 11) == 0
            assert skeleton_cells_by_dim(9, 2, 11) == {}
            assert skeleton_orbits(9, 2, 11) == 0

    def test_combinations_are_sorted_representatives(self):
        """The unordered oracle keeps exactly the ordered tuples in increasing face index."""
        for K in (simplex_skeleton(3, 2), NON_PURE):
            order = {f: i for i, f in enumerate(K.faces())}
            for r in (2, 3):
                increasing = [t for t in brute_disjoint_tuples(K, r)
                              if all(order[a] < order[b] for a, b in zip(t, t[1:]))]
                assert disjoint_combinations(K, r) == increasing  # both lexicographic in face index


class TestCountFaceCombinations:
    def test_extension_masks(self):
        assert extension_masks(simplex_skeleton(2, 1)) == (0b110, 0b101, 0b011, 0, 0, 0)
        ext = dict(zip(NON_PURE.faces(), extension_masks(NON_PURE)))
        assert ext[(4,)] == 1 << 1 | 1 << 2 | 1 << 5 | 1 << 6
        assert ext[(2, 4)] == 1 << 5 and ext[(0, 8)] == 0

    @pytest.mark.parametrize("maximal_only", [False, True])
    def test_counts_and_ranks_match_enumeration(self, maximal_only):
        """The count at every prefix of every disjoint tuple, against the listed stream."""
        for K in criterion_10_complexes() + [NON_PURE]:
            order = {face: i for i, face in enumerate(K.faces())}
            for r in (2, 3):
                stream = disjoint_combinations(K, r)
                keys = [[order[face] for face in t] for t in stream
                        if not maximal_only or is_maximal(K, t)]
                assert count_face_combinations(K, r, maximal_only) == len(keys)
                for prefix in {t[:k] for t in stream for k in range(r + 1)}:
                    # keys are sorted, so this counts the tuples u with u[:k] < prefix
                    want = bisect.bisect_left(keys, [order[face] for face in prefix])
                    assert count_face_combinations(K, r, maximal_only, before=prefix) == want

    def test_too_few_vertices_count_zero(self):
        assert count_face_combinations(simplex_skeleton(9, 2), 11) == 0
        assert count_face_combinations(simplex_skeleton(9, 2), 11, maximal_only=True) == 0

    def test_rejects_bad_prefix(self):
        K = simplex_skeleton(3, 1)
        for before in ([(1,), (0,)], [(0, 1), (1, 2)], [(0, 2, 3)], [(0,), (1,), (2,)]):
            with pytest.raises(ValueError):
                count_face_combinations(K, 2, before=before)
        with pytest.raises(ValueError):
            count_face_combinations(K, 1)


class TestDeletedProduct:
    """The cells of skeleta's deleted products by dimension (``skeleton_cells_by_dim``)."""

    def test_examples(self):
        assert skeleton_cells_by_dim(1, 1, 2) == {0: 2}
        stats = skeleton_cells_by_dim(2, 1, 2)  # vertex-vertex and vertex-edge pairs
        assert stats == {0: 6, 1: 6} and list(stats) == [0, 1]

    def test_empty(self):
        assert skeleton_cells_by_dim(2, 2, 4) == {}

    def test_skeleton_dimension_formula(self):
        # dim K^{xr} = r*k whenever enough vertices exist for r disjoint k-faces
        for N in range(1, 6):
            for k in range(N + 1):
                for r in (2, 3):
                    dimension = max(skeleton_cells_by_dim(N, k, r), default=None)
                    if N + 1 >= r * (k + 1):
                        assert dimension == r * k
                    elif dimension is not None:
                        assert dimension < r * k

    def test_triangle_r3_is_vertex_triples(self):
        assert skeleton_cells_by_dim(2, 2, 3) == {0: 6}


def multinomial_cells_by_dim(N, k, r):
    """Sum of (N+1)!/((N+1-S)!·s_1!···s_r!) over every size vector, by dimension S - r."""
    out = {}
    for sizes in itertools.product(range(1, k + 2), repeat=r):
        S = sum(sizes)
        if S <= N + 1:
            count = math.factorial(N + 1) // math.factorial(N + 1 - S)
            for s in sizes:
                count //= math.factorial(s)
            out[S - r] = out.get(S - r, 0) + count
    return out


class TestSkeletonCellsByDim:
    def test_matches_enumeration(self):
        for N in range(8):
            for k in range(N + 1):
                for r in (2, 3, 4):
                    got = skeleton_cells_by_dim(N, k, r)
                    assert got == multinomial_cells_by_dim(N, k, r) and list(got) == sorted(got), (N, k, r)
                    if N <= 4 and r <= 3:
                        assert list(got.items()) == list(brute_cells_by_dim(simplex_skeleton(N, k), r).items())

    def test_matches_multinomial_sum_beyond_enumeration(self):
        for N, k, r in ((20, 3, 4), (14, 5, 3), (12, 2, 6), (30, 1, 5)):
            assert skeleton_cells_by_dim(N, k, r) == multinomial_cells_by_dim(N, k, r)

    def test_paper_scale(self):
        cells = skeleton_cells_by_dim(280, 45, 6)
        assert max(cells) == 6 * 45 and min(cells) == 0
        # top cells: six disjoint 46-sets of the 281 vertices, in order
        assert cells[270] == math.perm(281, 276) // math.factorial(46) ** 6
        assert cells[0] == math.perm(281, 6)

    def test_rejects_bad_input(self):
        for N, k, r in ((3, 4, 2), (-1, 0, 2), (3, -1, 2), (3, 1, 1)):
            with pytest.raises(ValueError):
                skeleton_cells_by_dim(N, k, r)


class TestSkeletonOrbits:
    def test_matches_enumeration(self):
        for N in range(8):
            for k in range(N + 1):
                for r in (2, 3, 4):
                    want = count_face_combinations(simplex_skeleton(N, k), r)
                    assert skeleton_orbits(N, k, r) == want, (N, k, r)
        assert skeleton_orbits(12, 2, 3) == count_face_combinations(simplex_skeleton(12, 2), 3)

    def test_free_action_identity_at_paper_scale(self):
        """S_r permutes the cells freely: r! cells per orbit, by the other recurrence."""
        for N, k, r in ((20, 3, 4), (30, 1, 5), (280, 45, 6)):
            cells = sum(skeleton_cells_by_dim(N, k, r).values())
            assert cells == math.factorial(r) * skeleton_orbits(N, k, r)

    def test_more_faces_than_vertices(self):
        assert skeleton_orbits(9, 2, 11) == 0

    def test_rejects_bad_input(self):
        for N, k, r in ((3, 4, 2), (-1, 0, 2), (3, -1, 2), (3, 1, 1)):
            with pytest.raises(ValueError):
                skeleton_orbits(N, k, r)


def fills_free_orbits(K, r):
    """Burnside: the group acts freely iff the ordered tuples number r! per orbit.

    The brute-force list and the orbit count share only ``K.faces()``.
    """
    return len(brute_disjoint_tuples(K, r)) == math.factorial(r) * count_face_combinations(K, r)


class TestFreeAction:
    def test_examples(self):
        assert fills_free_orbits(simplex_skeleton(2, 1), 2)
        assert fills_free_orbits(simplex_skeleton(4, 1), 2)
        assert fills_free_orbits(simplex_skeleton(2, 2), 3)

    def test_random_complexes(self):
        rng = random.Random(23)
        for _ in range(8):
            K = random_complex(rng, 5)
            assert fills_free_orbits(K, 2) and fills_free_orbits(K, 3)

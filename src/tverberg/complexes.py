"""Abstract simplicial complexes, joins, skeleta and deleted products.

A complex is stored by its maximal faces only (an antichain of sorted
vertex tuples on vertices 0..n-1); the full downward-closed face set is
derived on demand.  The ordered r-tuples of pairwise vertex-disjoint
nonempty faces are exactly the cells sigma_1 x ... x sigma_r of the
r-fold deleted product, with the symmetric group permuting coordinates
freely; an unordered tuple lists its faces in increasing face index.
For simplex skeleta ``skeleton_cells_by_dim`` and ``skeleton_orbits``
give the cell counts by dimension and the orbit count from two
recurrences, without listing a face.

Vertex-disjointness tests run on integer bitmasks, which double as
arbitrary-width bitsets, so the same code path covers any vertex count.
This module alone knows what a prefix of an unordered disjoint tuple
is: one walker on bitsets steps a prefix state (used vertices, extension
vertices still free, candidate faces) by a face and counts the
increasing tuples, inclusion-maximal ones if asked, that complete it.
``count_face_combinations`` counts with it without listing a tuple; the
checker of :mod:`tverberg.plmaps` walks the same states over its graph
of faces whose boxes overlap, and looks ahead with the same count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

__all__ = [
    "SimplicialComplex",
    "simplex_skeleton",
    "join_complexes",
    "extension_masks",
    "count_face_combinations",
    "skeleton_cells_by_dim",
    "skeleton_orbits",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed face collection given by its maximal faces."""

    num_vertices: int
    maximal_faces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        for f in self.maximal_faces:
            if not f or list(f) != sorted(set(f)):
                raise ValueError(f"face {f} is not a sorted duplicate-free tuple")
            if f[0] < 0 or f[-1] >= self.num_vertices:
                raise ValueError(f"face {f} has vertices outside 0..{self.num_vertices - 1}")
        masks = set(_face_masks(self.maximal_faces))
        if not masks.isdisjoint(_proper_subfaces(masks)):
            raise ValueError("maximal faces must form an antichain")

    @classmethod
    def from_faces(cls, num_vertices: int, faces: Sequence[Sequence[int]]) -> "SimplicialComplex":
        """Normalize arbitrary generating faces: dedupe, drop dominated ones."""
        unique = list({tuple(sorted(set(f))) for f in faces if len(f) > 0})
        masks = _face_masks(unique)
        dominated = _proper_subfaces(set(masks))
        maximal = [f for f, m in zip(unique, masks) if m not in dominated]
        return cls(num_vertices, tuple(sorted(maximal, key=lambda f: (len(f), f))))

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """All nonempty faces, sorted by (dimension, lexicographic)."""
        return _all_faces(self)

    def has_face(self, face: Sequence[int]) -> bool:
        s = set(face)
        return bool(s) and any(s.issubset(mf) for mf in self.maximal_faces)

    @property
    def dim(self) -> int:
        if not self.maximal_faces:
            return -1
        return max(len(f) for f in self.maximal_faces) - 1

    def to_json(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "maximal_faces": [list(f) for f in self.maximal_faces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SimplicialComplex":
        """Read a complex; a malformed vertex count or face list raises ValueError."""
        if not isinstance(obj, dict) or not {"num_vertices", "maximal_faces"} <= obj.keys():
            raise ValueError("complex must be an object with num_vertices and maximal_faces")
        n, faces = obj["num_vertices"], obj["maximal_faces"]
        if type(n) is not int or n < 0:
            raise ValueError(f"complex num_vertices must be a non-negative integer, got {n!r}")
        if not isinstance(faces, list) or not all(
            isinstance(f, list) and f and all(type(v) is int and 0 <= v < n for v in f)
            for f in faces
        ):
            raise ValueError("complex maximal_faces must be a list of non-empty lists of "
                             f"vertices in 0..{n - 1}")
        return cls.from_faces(n, faces)


# _face_listing_bound refuses a larger face listing, so _all_faces lists
# nothing beyond it; the 3-skeleton of the 30-simplex lists 471,975.
MAX_FACE_LISTING = 1_000_000


def _face_listing_bound(K: SimplicialComplex) -> int:
    """The subsets of maximal faces that listing K's faces takes, the sum of 2^|face| - 1,
    a bound on the face count (a shared face counts once per maximal face); beyond
    MAX_FACE_LISTING it raises ValueError."""
    listing = sum((1 << len(mf)) - 1 for mf in K.maximal_faces)
    if listing > MAX_FACE_LISTING:
        raise ValueError(f"listing the faces of the complex takes {listing} subsets of its "
                         f"maximal faces, beyond the cap MAX_FACE_LISTING = {MAX_FACE_LISTING}")
    return listing


@lru_cache(maxsize=None)
def _all_faces(K: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    _face_listing_bound(K)
    found: set[tuple[int, ...]] = set()
    for mf in K.maximal_faces:
        for size in range(1, len(mf) + 1):
            found.update(itertools.combinations(mf, size))
    return tuple(sorted(found, key=lambda f: (len(f), f)))


def simplex_skeleton(N: int, k: int) -> SimplicialComplex:
    """The k-skeleton of the N-simplex: all (k+1)-subsets of {0..N}."""
    if not 0 <= k <= N:
        raise ValueError(f"skeleton needs 0 <= k <= N, got (N={N}, k={k})")
    faces = tuple(itertools.combinations(range(N + 1), k + 1))
    return SimplicialComplex(N + 1, faces)


def join_complexes(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join with disjointly relabeled vertices (L shifted past K)."""
    shift = K.num_vertices
    faces = [
        a + tuple(v + shift for v in b)
        for a in K.maximal_faces
        for b in L.maximal_faces
    ]
    return SimplicialComplex.from_faces(shift + L.num_vertices, faces)


def _face_masks(faces: Sequence[tuple[int, ...]]) -> list[int]:
    masks = []
    for f in faces:
        m = 0
        for v in f:
            m |= 1 << v
        masks.append(m)
    return masks


def _proper_subfaces(masks: set[int]) -> set[int]:
    """The proper subfaces of the given faces (vertex masks) that have at least as
    many vertices as the smallest given face, so every given face that another
    one contains.  Each subface is found once and expanded at most twice, so the
    work is linear in the face count of the complex, and nil when every given
    face has the same size."""
    floor = min((m.bit_count() for m in masks), default=0)
    found: set[int] = set()
    todo = [m for m in masks if m.bit_count() > floor]
    while todo:
        m = todo.pop()
        for v in _bits(m):
            sub = m ^ (1 << v)
            if sub not in found:
                found.add(sub)
                if sub.bit_count() > floor:
                    todo.append(sub)
    return found


def extension_masks(K: SimplicialComplex) -> tuple[int, ...]:
    """Per face of ``K.faces()``, the mask of the vertices that extend it to a face of K.

    Disjoint faces form an inclusion-maximal tuple iff their extension
    masks lie inside the union of the faces.
    """
    index = {face: i for i, face in enumerate(K.faces())}
    ext = [0] * len(index)
    for face in index:
        for v in face:
            if len(face) > 1:
                ext[index[tuple(u for u in face if u != v)]] |= 1 << v
    return tuple(ext)


def count_face_combinations(K: SimplicialComplex, r: int, maximal_only: bool = False,
                            before: Optional[Sequence[tuple[int, ...]]] = None) -> int:
    """Count the unordered r-tuples of pairwise disjoint faces of K without listing them.

    A tuple lists its faces in increasing face index (of ``K.faces()``),
    and tuples are ordered lexicographically by those indices.  With
    maximal_only only inclusion-maximal tuples count.  With ``before`` (a
    prefix of such a tuple) only those before every tuple that starts with
    it count: for a whole tuple, its rank.
    """
    if r < 2:
        raise ValueError(f"count_face_combinations needs r >= 2, got {r}")
    state, take, count = _tuple_counter(K, maximal_only)
    if before is None:
        return count(state, r)
    total = 0
    for depth, face in enumerate(before):
        i = K.faces().index(tuple(face))  # ValueError if not a face
        if depth >= r or not state[2] >> i & 1:
            raise ValueError(f"{tuple(before)} does not start a tuple of {r} disjoint faces")
        total += sum(count(take(state, j), r - depth - 1) for j in _bits(state[2] & ((1 << i) - 1)))
        state = take(state, i)
    return total


@lru_cache(maxsize=8)
def _tuple_counter(K: SimplicialComplex, maximal_only: bool,
                   graph: Optional[tuple[int, ...]] = None):
    """Walker over prefixes of increasing disjoint faces: the empty prefix's
    state, and ``take`` and ``count`` on states (used vertices, extension
    vertices still free, candidate faces), with tables and a memo kept per
    complex and graph.

    A face's candidates after it are its later disjoint faces, or only its
    successors in ``graph`` (bitsets of later disjoint faces) when given.
    """
    masks = _face_masks(K.faces())
    ext = extension_masks(K) if maximal_only else (0,) * len(masks)
    meeting = [sum(1 << i for i, m in enumerate(masks) if m >> v & 1)  # faces that contain v
               for v in range(K.num_vertices)]
    if graph is None:
        graph = tuple(sum(1 << j for j, m in enumerate(masks[i + 1:], i + 1) if not m & mi)
                      for i, mi in enumerate(masks))
    closed = sum(1 << i for i, e in enumerate(ext) if not e)  # faces no vertex extends
    memo: dict = {}

    def take(state: tuple[int, int, int], i: int) -> tuple[int, int, int]:
        used, pending, cands = state
        now = used | masks[i]
        return now, (pending | ext[i]) & ~now, cands & graph[i]

    def count(state: tuple[int, int, int], need: int) -> int:
        """Increasing tuples of `need` disjoint candidates that complete the prefix
        (inclusion-maximal ones with maximal_only)."""
        used, pending, cands = state
        if need == 0:
            return int(not pending)
        if K.num_vertices - used.bit_count() < need:  # each face needs a vertex of its own
            return 0
        if need == 1:  # the last face must take every pending vertex and be inextensible
            for v in _bits(pending):
                cands &= meeting[v]
            return (cands & closed).bit_count() + sum(
                1 for i in _bits(cands & ~closed) if not ext[i] & ~used)
        if (state, need) not in memo:
            memo[state, need] = sum(count(take(state, i), need - 1) for i in _bits(cands))
        return memo[state, need]

    return (0, 0, (1 << len(masks)) - 1), take, count


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# skeleton_cells_by_dim and skeleton_orbits refuse larger (N+1)·(k+1)·r, a bound
# on their big-integer products, before any work; the paper's d = 400 instance
# (N = 2056, k = 341, r = 6) needs 4.22e6.
MAX_SKELETON_WORK = 5_000_000


def _skeleton_has_cells(N: int, k: int, r: int, caller: str) -> bool:
    """Check the arguments of a skeleton recurrence; False if r > N+1 leaves no cell."""
    if not 0 <= k <= N:
        raise ValueError(f"skeleton needs 0 <= k <= N, got (N={N}, k={k})")
    if r < 2:
        raise ValueError(f"{caller} needs r >= 2, got {r}")
    if r > N + 1:  # r disjoint nonempty faces need r vertices
        return False
    if (N + 1) * (k + 1) * r > MAX_SKELETON_WORK:
        raise ValueError(f"(N+1)(k+1)r = {(N + 1) * (k + 1) * r} is beyond the cap "
                         f"MAX_SKELETON_WORK = {MAX_SKELETON_WORK}")
    return True


def skeleton_cells_by_dim(N: int, k: int, r: int) -> dict[int, int]:
    """Cells of the r-fold deleted product of the k-skeleton of the N-simplex by
    dimension, {dimension: count} in increasing dimension, without listing a face.

    A cell is an ordered r-tuple of pairwise disjoint faces; those with
    s_1..s_r vertices number C(N+1, S)·S!/(s_1!···s_r!), S = s_1 + ... + s_r.
    Summed over s_i in 1..k+1, the multinomials give a_r(S), the ordered
    partitions of an S-set into r blocks of at most k+1 elements:
    a_j(S) = sum_s C(S, s)·a_{j-1}(S-s).  Such a cell has dimension S - r.
    The loop runs over S and fills every level j at that S from one row
    of binomials C(S, ·).
    """
    if not _skeleton_has_cells(N, k, r, "skeleton_cells_by_dim"):
        return {}
    a = [[1] + [0] * (N + 1)] + [[0] * (N + 2) for _ in range(r)]  # a[j][S]; a_0: the empty tuple
    row = [1]  # C(S, s) for s = 0..min(S, k+1)
    for S in range(1, N + 2):
        for s in range(1, len(row)):  # C(S, s) = C(S-1, s)·S/(S-s)
            row[s] = row[s] * S // (S - s)
        if S <= k + 1:
            row.append(1)
        for j in range(-(-S // (k + 1)), min(S, r) + 1):  # a_j(S) = 0 for other j
            prev = a[j - 1]
            a[j][S] = sum(row[s] * prev[S - s] for s in range(1, len(row)))
    return {S - r: math.comb(N + 1, S) * a[r][S] for S in range(N + 2) if a[r][S]}


def skeleton_orbits(N: int, k: int, r: int) -> int:
    """``count_face_combinations(simplex_skeleton(N, k), r)``, the S_r-orbits of the
    cells of ``skeleton_cells_by_dim(N, k, r)``, from a recurrence on N, k and r.

    An unordered r-tuple of disjoint faces with S vertices in all is a
    subset of S vertices and a partition of it into r blocks of at most
    k+1 elements.  Taking first the block that holds the least element,
    P_j(S) = sum_{s=1}^{min(k+1,S)} C(S-1, s-1)·P_{j-1}(S-s) counts those
    partitions, and the tuples number sum_S C(N+1, S)·P_r(S).  The loop
    runs over S and fills every level j at that S from one row of
    binomials C(S-1, ·).
    """
    if not _skeleton_has_cells(N, k, r, "skeleton_orbits"):
        return 0
    P = [[1] + [0] * (N + 1)] + [[0] * (N + 2) for _ in range(r)]  # P[j][S]; P_0: the empty partition
    row = [1]  # C(S-1, t) for t = 0..min(S-1, k)
    for S in range(1, N + 2):
        for j in range(-(-S // (k + 1)), min(S, r) + 1):  # P_j(S) = 0 for other j
            prev = P[j - 1]
            P[j][S] = sum(c * prev[S - 1 - t] for t, c in enumerate(row))
        for t in range(1, len(row)):  # on to C(S, t) = C(S-1, t)·S/(S-t)
            row[t] = row[t] * S // (S - t)
        if S <= k:
            row.append(1)
    return sum(math.comb(N + 1, S) * P[r][S] for S in range(N + 2))

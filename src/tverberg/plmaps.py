"""Simplexwise-linear maps over exact rationals and the r-fold checker.

A PLMap assigns a rational point of R^d to every vertex; faces map by
affine extension.  Whether r pairwise vertex-disjoint faces have images
with a common point is exactly the feasibility of a small linear
program (barycentric weights per face, convexity rows, and equality of
the r affine combinations), which is decided by a phase-one simplex
with Bland's rule.  The tableau is kept integral via Edmonds-style
integer pivoting, so every verdict is exact and every reported witness
carries rational barycentric coordinates that reproduce the common
point identically.

The checker decides the unordered disjoint tuples (the condition is
symmetric) in the face order of :mod:`tverberg.complexes`, so the
witness is the lexicographically first failing tuple.  r hulls share a
point only if every two do, and two hulls meet only if their integer
boxes do (pairwise overlapping boxes overlap jointly: Helly in
dimension 1).  So a check walks the r-cliques of the box graph in that
order, stepping prefixes with the tuple walker of ``complexes``; this
module keeps only the integer boxes, the pair decision and the LPs.  A
face joins a nonempty prefix only if the walker counts a completion of
the clique and its hull meets every prefix face's hull; a full clique
goes to the r-fold LP.

Each face pair is decided once, from the kernel of its lifted points
(p, 1) by integer elimination (Radon's argument): affinely independent
points have disjoint hulls, and when the affine dependences form a line,
the hulls meet iff its spanning vector, in one of its two signs, is
nonnegative and nonzero on one face and nonpositive on the other.  Only
a kernel of dimension 2 or more goes to the two-hull LP.  The tuples the
scan skips are counted, not listed (``complexes.count_face_combinations``).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .complexes import (SimplicialComplex, _bits, _face_listing_bound, _tuple_counter,
                        count_face_combinations, join_complexes)

__all__ = [
    "PLMap",
    "IntersectionPoint",
    "IntersectionWitness",
    "CheckVerdict",
    "constant_map",
    "join_maps",
    "random_rational_map",
    "simplices_intersect",
    "almost_r_embedding_check",
    "in_general_position",
]

Point = tuple[Fraction, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational data, got {type(x).__name__}: {x!r}")


@dataclass(frozen=True)
class PLMap:
    """Simplexwise-linear map of a complex into R^d with rational vertex images."""

    complex: SimplicialComplex
    d: int
    coords: tuple[Point, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("target dimension must be nonnegative")
        coords = tuple(tuple(_as_fraction(x) for x in pt) for pt in self.coords)
        if len(coords) != self.complex.num_vertices:
            raise ValueError(
                f"need one point per vertex: {self.complex.num_vertices} vertices, "
                f"{len(coords)} points"
            )
        for pt in coords:
            if len(pt) != self.d:
                raise ValueError(f"point {pt} does not lie in R^{self.d}")
        object.__setattr__(self, "coords", coords)

    def eval(self, face: Sequence[int], weights: Sequence) -> Point:
        """Affine combination sum w_j * image(v_j) over the face's vertices.

        Weights are indexed by the face in its sorted vertex order and
        must be nonnegative rationals summing to 1.
        """
        face = tuple(face)
        if not self.complex.has_face(face):
            raise ValueError(f"{face} is not a face of the complex")
        w = [_as_fraction(x) for x in weights]
        if len(w) != len(face):
            raise ValueError("one weight per face vertex required")
        if any(x < 0 for x in w) or sum(w) != 1:
            raise ValueError("weights must be nonnegative and sum to 1 exactly")
        out = [Fraction(0)] * self.d
        for wi, v in zip(w, face):
            for ell in range(self.d):
                out[ell] += wi * self.coords[v][ell]
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "coords": {str(v): [str(x) for x in pt] for v, pt in enumerate(self.coords)},
        }

    @classmethod
    def from_json(cls, complex: SimplicialComplex, obj: dict) -> "PLMap":
        """Read a map; a malformed d, coords object, vertex key or point raises ValueError."""
        if not isinstance(obj, dict) or not {"d", "coords"} <= obj.keys():
            raise ValueError("map must be an object with d and coords")
        d = obj["d"]
        if type(d) is not int or d < 0:
            raise ValueError(f"map dimension d must be a non-negative integer, got {d!r}")
        if not isinstance(obj["coords"], dict):
            raise ValueError("map coords must be an object keyed by vertex number")
        n = complex.num_vertices
        coords: dict[int, Point] = {}
        for key, vals in obj["coords"].items():
            v = int(key) if re.fullmatch("[0-9]+", key) else -1
            if not 0 <= v < n:
                raise ValueError(f"map vertex key {key!r} is not a decimal vertex number "
                                 f"in 0..{n - 1}")
            if v in coords:
                raise ValueError(f"map vertex key {key!r} repeats vertex {v}")
            if not isinstance(vals, list) or not all(isinstance(s, str) for s in vals):
                # JSON numbers would arrive as binary floats, not the rationals meant
                raise ValueError(f"map point {key!r} must be a list of rational strings, "
                                 f"got {vals!r}")
            try:
                coords[v] = tuple(Fraction(s) for s in vals)
            except ZeroDivisionError:
                raise ValueError(f"map point {key!r} has a zero denominator: {vals!r}") from None
        if len(coords) != n:
            raise ValueError(f"map has no point for vertices {sorted(set(range(n)) - set(coords))}")
        return cls(complex, d, tuple(coords[v] for v in range(n)))


def constant_map(n: int, d: int = 0) -> PLMap:
    """The full n-simplex collapsed to the origin of R^d (default R^0)."""
    if n < 0:
        raise ValueError("simplex dimension must be nonnegative")
    K = SimplicialComplex(n + 1, (tuple(range(n + 1)),))
    origin = tuple(Fraction(0) for _ in range(d))
    return PLMap(K, d, tuple(origin for _ in range(n + 1)))


def join_maps(f: PLMap, g: PLMap) -> PLMap:
    """Join of maps: first factor lands in (R^p, 0, 0), second in (0, R^q, 1).

    On the joined simplex with weights lam on the K-part and mu on the
    L-part (lam + mu = 1), the affine extension takes the value
    (lam*f(x), mu*g(y), mu), which realizes the join formula with the
    last coordinate recording mu.
    """
    K = join_complexes(f.complex, g.complex)
    d = f.d + g.d + 1
    zf = tuple(Fraction(0) for _ in range(f.d))
    zg = tuple(Fraction(0) for _ in range(g.d))
    coords = [pt + zg + (Fraction(0),) for pt in f.coords]
    coords += [zf + pt + (Fraction(1),) for pt in g.coords]
    return PLMap(K, d, tuple(coords))


def in_general_position(f: PLMap) -> bool:
    """No d+1 of the vertex images are affinely dependent.

    Dependence is inherited by supersets, so checking all (d+1)-subsets
    covers every smaller subset as well.
    """
    rows, _ = _integer_rows(f.coords)
    size = min(len(rows), f.d + 1)
    return all(
        (w := _affine_dependence([rows[i] for i in sub])) is not None and not any(w)
        for sub in itertools.combinations(range(len(rows)), size)
    )


# random_rational_map gives up after this many draws; the seeded maps of the
# tests and the benchmark self-test take at most 6.
MAX_MAP_DRAWS = 100


def random_rational_map(K: SimplicialComplex, d: int, seed: int, span: int = 4,
                        denominator: int = 4096) -> PLMap:
    """Seeded random map with bounded rational coordinates.

    Coordinates are n/denominator with |n| <= span*denominator, drawn
    from the stdlib Mersenne Twister (stable across platforms for a
    fixed seed).  For complexes on at most 12 vertices the draw is
    rejected until the images are in general position, at most
    ``MAX_MAP_DRAWS`` times; then a ValueError says the grid is too coarse.
    """
    rng = random.Random(seed)
    lim = span * denominator
    for _ in range(MAX_MAP_DRAWS):
        coords = tuple(
            tuple(Fraction(rng.randint(-lim, lim), denominator) for _ in range(d))
            for _ in range(K.num_vertices)
        )
        f = PLMap(K, d, coords)
        if K.num_vertices > 12 or in_general_position(f):
            return f
    raise ValueError(f"no draw in general position within MAX_MAP_DRAWS = {MAX_MAP_DRAWS}: "
                     f"span {span} and denominator {denominator} leave too few points")


# ---------------------------------------------------------------------------
# Exact feasibility core
# ---------------------------------------------------------------------------

def _phase_one(A: list[list[int]], b: list[int]) -> Optional[tuple[list[int], int]]:
    """Feasible x >= 0 with A x = b over the integers, or None; x as its
    integer numerators over the common denominator det, the last pivot.

    Phase-one simplex with Bland's rule (smallest eligible index enters;
    ties in the ratio test break toward the smallest basic index), so
    termination is guaranteed.  The tableau stays integral via integer
    pivoting: after a pivot on (p, q) every other row transforms as
    (T[i][j]*piv - T[i][q]*T[p][j]) / det with exact division by the
    previous pivot.  The artificial variables start basic (indices
    n..n+m-1) but get no columns: Bland's rule tries A's columns first,
    and once none can enter, the artificial sum is minimal with the
    artificials that left the basis held at 0.  A positive minimum
    proves A x = b infeasible; at 0 the basic x is feasible.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = [[-v for v in row] + [-rhs] if rhs < 0 else [*row, rhs] for row, rhs in zip(A, b)]
    T.append([-sum(T[i][j] for i in range(m)) for j in range(n + 1)])
    det = 1
    basis = list(range(n, n + m))
    while True:
        objrow = T[m]
        q = next((j for j in range(n) if objrow[j] < 0), -1)
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
    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return x, det


def _affine_dependence(points: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Integer weights w with sum w_i*(p_i, 1) = 0 spanning all such weights, or None.

    The weights are the kernel of the lifted matrix whose columns are the
    points with a 1 appended: the zero vector when the points are affinely
    independent (rank n), one integer vector when the kernel is a line
    (rank n-1), and None when it has dimension 2 or more.  Equivalently,
    w_1.. is the kernel of the differences p_i - p_0 and w_0 = -sum w_i,
    which is the matrix eliminated here.  Fraction-free (Bareiss)
    elimination keeps every entry an integer, a minor of that matrix, and
    the rows below a pivot update only the columns after it.  With a single
    free column, back-substitution from w_free = 1 scales the weights found
    so far by each pivot instead of dividing.
    """
    if not points:
        return []
    p0 = points[0]
    rows = [list(row) for row in zip(*([a - b for a, b in zip(p, p0)] for p in points[1:]))]
    n = len(points) - 1  # columns
    if n > len(rows) + 1:  # rank <= d leaves a kernel of dimension >= 2
        return None
    det = 1
    pivots: list[int] = []  # pivots[k]: the column of rows[k]'s pivot
    free = -1
    for c in range(n):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][c]), -1)
        if p < 0:
            if free >= 0:
                return None
            free = c
            continue
        rows[k], rows[p] = rows[p], rows[k]
        piv, tail = rows[k][c], rows[k][c + 1:]
        for ri in rows[k + 1:]:
            ric = ri[c]
            ri[c + 1:] = [(a * piv - ric * b) // det for a, b in zip(ri[c + 1:], tail)]
        det = piv
        pivots.append(c)
    w = [0] * n
    if free >= 0:
        w[free] = 1
        for row, c in zip(reversed(rows[:len(pivots)]), reversed(pivots)):
            rest = sum(a * x for a, x in zip(row[c + 1:], w[c + 1:]))
            w = [x * row[c] for x in w]
            w[c] = -rest
    return [-sum(w), *w]


@dataclass(frozen=True)
class IntersectionPoint:
    """A common point of r convex hulls with exact convex weights per hull."""

    point: Point
    barycentric: tuple[tuple[Fraction, ...], ...]


def _integer_rows(points: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Integer numerators of int/Fraction points over their least common denominator."""
    denom = math.lcm(*(x.denominator for p in points for x in p))
    return [[x.numerator * (denom // x.denominator) for x in p] for p in points], denom


def simplices_intersect(point_sets: Sequence[Sequence[Point]], d: int) -> Optional[IntersectionPoint]:
    """Common point of the convex hulls of r rational point sets, or None.

    Coordinates are ints, taken as they are, or exact rationals; the LP
    runs on integer rows over the sets' common denominator (1 for int
    input).  Decided by exact LP feasibility; the returned weights
    reproduce the point identically for every hull.
    """
    r = len(point_sets)
    if r < 2:
        raise ValueError(f"need at least 2 point sets, got {r}")
    sets = [[tuple(x if isinstance(x, int) else _as_fraction(x) for x in p) for p in ps]
            for ps in point_sets]
    for ps in sets:
        if not ps:
            raise ValueError("every point set must be nonempty")
        for p in ps:
            if len(p) != d:
                raise ValueError(f"point {p} does not lie in R^{d}")

    rows, denom = _integer_rows([p for ps in sets for p in ps])
    offsets = list(itertools.accumulate((len(ps) for ps in sets), initial=0))
    spans = [range(offsets[i], offsets[i + 1]) for i in range(r)]
    nvars = offsets[-1]

    A: list[list[int]] = []
    b: list[int] = []
    for span in spans:
        A.append([int(j in span) for j in range(nvars)])
        b.append(1)
    for span in spans[1:]:
        for ell in range(d):
            row = [0] * nvars
            for j in spans[0]:
                row[j] = -rows[j][ell]
            for j in span:
                row[j] = rows[j][ell]
            A.append(row)
            b.append(0)

    solution = _phase_one(A, b)
    if solution is None:
        return None
    x, det = solution  # the weights are x / det
    hulls = [[sum(x[j] * rows[j][ell] for j in span) for ell in range(d)] for span in spans]
    if any(sum(x[j] for j in span) != det for span in spans) or \
            any(other != hulls[0] for other in hulls[1:]):
        raise AssertionError("LP solution does not reproduce a common point")
    barys = tuple(tuple(Fraction(x[j], det) for j in span) for span in spans)
    point = tuple(Fraction(y, det * denom) for y in hulls[0])
    return IntersectionPoint(point=point, barycentric=barys)


def _hulls_meet(P: Sequence[Sequence[int]], Q: Sequence[Sequence[int]]) -> bool:
    """Whether the hulls of two integer point sets meet, by Radon's argument.

    A common point is an affine dependence w of P followed by Q with
    w >= 0 on P, w <= 0 on Q and w nonzero on P.  Affinely independent
    points (w = 0) have disjoint hulls; when the dependences form a line,
    the signs of its integer spanning vector, read either way round,
    decide; a larger kernel goes to the two-hull LP.
    """
    w = _affine_dependence([*P, *Q])
    if w is None:
        return simplices_intersect([P, Q], len(P[0])) is not None
    k = len(P)
    s = next((x for x in w[:k] if x), 0)  # the sign to read w in, if w is nonzero on P
    return bool(s) and all(x * s >= 0 for x in w[:k]) and all(x * s <= 0 for x in w[k:])


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionWitness:
    """Pairwise disjoint faces whose images share a point, with exact evidence."""

    faces: tuple[tuple[int, ...], ...]
    point: Point
    barycentric: tuple[tuple[Fraction, ...], ...]

    def verify(self, f: PLMap) -> None:
        """Re-check every invariant by plain rational arithmetic: nonempty pairwise
        disjoint faces, one weight vector per face, and each face of f's complex
        reaches the point."""
        used: set[int] = set()
        for face in self.faces:
            if not face:
                raise ValueError("a witness face is empty")
            if used.intersection(face):
                raise ValueError(f"witness faces {self.faces} are not pairwise disjoint")
            used.update(face)
        if len(self.barycentric) != len(self.faces):
            raise ValueError(f"{len(self.barycentric)} weight vectors for "
                             f"{len(self.faces)} faces")
        for face, w in zip(self.faces, self.barycentric):
            if f.eval(face, w) != self.point:
                raise ValueError(f"face {face} does not reach the witness point")

    def to_json(self) -> dict:
        return {
            "faces": [list(face) for face in self.faces],
            "point": [str(x) for x in self.point],
            "barycentric": [[str(x) for x in w] for w in self.barycentric],
        }


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    witness: Optional[IntersectionWitness]
    tuples_checked: int


class _Face(NamedTuple):
    """A face's integer vertex rows, integer bounding box and vertex bitmask."""

    rows: list[list[int]]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    mask: int


def _face_table(f: PLMap) -> tuple[list[_Face], int]:
    """Integer data of the faces of f's complex in face order, over the map's common denominator."""
    rows, denom = _integer_rows(f.coords)
    table = []
    for face in f.complex.faces():
        pts = [rows[v] for v in face]
        table.append(_Face(pts, tuple(map(min, zip(*pts))), tuple(map(max, zip(*pts))),
                           sum(1 << v for v in face)))
    return table, denom


def _first_hit(f: PLMap, r: int, maximal_only: bool,
               table: list[_Face]) -> Optional[tuple[tuple[int, ...], IntersectionPoint]]:
    """Face indices and common point of the first r-clique of the box graph whose hulls meet.

    The box graph joins vertex-disjoint faces whose boxes overlap (lo <= hi
    along every axis, both ways round).  The scan steps with the tuple
    walker of :mod:`tverberg.complexes` over that graph, and a face joins a
    nonempty prefix only if the walker counts a completion (inclusion-maximal
    with maximal_only) and ``_hulls_meet`` finds its hull meeting each
    prefix face's hull.  That pair decision is cached per face pair, and it
    runs the two-hull LP only when the pair's lifted points have a kernel of
    dimension 2 or more.
    """
    graph = tuple(sum(1 << j for j, b in enumerate(table[i + 1:], i + 1) if not a.mask & b.mask
                      and all(map(int.__le__, a.lo, b.hi)) and all(map(int.__le__, b.lo, a.hi)))
                  for i, a in enumerate(table))
    empty, take, count = _tuple_counter(f.complex, maximal_only, graph)
    meet = functools.cache(lambda a, b: _hulls_meet(table[a].rows, table[b].rows))

    def descend(prefix: tuple[int, ...], state: tuple[int, int, int]):
        """The first clique that completes prefix from state and whose hulls meet."""
        need = r - len(prefix) - 1  # faces still needed after the next one
        for j in _bits(state[2]):
            after = take(state, j)
            # a nonempty prefix decides face pairs next, so it first needs a completion
            # (at need = 0: the tuple must be inclusion-maximal under maximal_only)
            if (prefix and not count(after, need)) or not all(meet(p, j) for p in prefix):
                continue
            if not need:
                hit = simplices_intersect([table[p].rows for p in prefix + (j,)], f.d)
                if hit is not None:
                    return prefix + (j,), hit
            elif found := descend(prefix + (j,), after):
                return found
        return None

    return descend((), empty)


# almost_r_embedding_check refuses a complex whose box graph could test more
# face pairs, the square of complexes._face_listing_bound, before it lists a
# face; the 2-skeleton of the 20-simplex bounds at 9,310^2 = 86,676,100.
MAX_PAIR_WORK = 100_000_000


def almost_r_embedding_check(f: PLMap, r: int, maximal_only: bool = False) -> CheckVerdict:
    """Decide whether f is an almost r-embedding, exactly.

    Passes iff no r pairwise vertex-disjoint faces have intersecting
    images.  On failure the witness is the first failing unordered tuple
    (the condition is symmetric) in the order of
    ``complexes.count_face_combinations``: faces in increasing face index,
    tuples lexicographic in those indices.
    With maximal_only=True only inclusion-maximal disjoint tuples are
    tested, which is equivalent because an intersection of subfaces
    persists on superfaces.

    ``tuples_checked`` counts the tuples of that order up to the witness,
    or all of them on a PASS.  A complex whose face listing exceeds
    ``complexes.MAX_FACE_LISTING``, or whose pair work, the square of that
    listing bound, exceeds ``MAX_PAIR_WORK``, raises ValueError before any
    face is listed.
    """
    if r < 2:
        raise ValueError(f"almost_r_embedding_check needs r >= 2, got {r}")
    pairs = _face_listing_bound(f.complex) ** 2
    if pairs > MAX_PAIR_WORK:
        raise ValueError(f"the box graph of the complex could test {pairs} face pairs, "
                         f"beyond the cap MAX_PAIR_WORK = {MAX_PAIR_WORK}")
    table, denom = _face_table(f)
    found = _first_hit(f, r, maximal_only, table)
    if found is None:
        return CheckVerdict(passed=True, witness=None,
                            tuples_checked=count_face_combinations(f.complex, r, maximal_only))
    indices, hit = found
    faces = tuple(f.complex.faces()[i] for i in indices)
    witness = IntersectionWitness(faces, tuple(x / denom for x in hit.point), hit.barycentric)
    witness.verify(f)
    rank = count_face_combinations(f.complex, r, maximal_only, before=faces)
    return CheckVerdict(passed=False, witness=witness, tuples_checked=rank + 1)

"""Degree-controlled equivariant self-maps of the matrix sphere.

Points are 2 x r matrices with zero row sums and unit Frobenius norm, a
sphere of dimension 2r-3 on which the symmetric group acts by permuting
columns.  Starting from the identity, each modification step picks the
orbit of a two-valued center

    M = (k-r, ..., k-r, k, ..., k)   (k low entries, r-k high ones)

whose isotropy group is S_k x S_{r-k} (the action is not free), so the
orbit has C(r,k) points; the step normalizes M, places it as c_theta =
(cos theta * M ; sin theta * M), pushes a bump-shaped neighborhood of
the orbit through the origin and reprojects to the sphere.  Rotating the
rows commutes with permuting the columns, so every angle gives an orbit
with the same isotropy; the j-th of n steps at the same k uses theta_j =
j*pi/(2n), which keeps its balls away from every earlier step.  The base
map is therefore the identity at each new center family, and a step
moves the mapping degree by exactly +-C(r,k); a Bezout certificate for
-1 drives the total from 1 to 0.

Two mechanisms realize the two signs: the "minus" formula subtracts
2*rho(x)*f(center) directly (delta -C(r,k)), the "plus" formula first
composes with a reflection through the hyperplane orthogonal to the
center rotated by +90 degrees in the plane of its two rows, implemented
as an explicit blended homotopy rather than an abstract extension (delta
+C(r,k)).  The finite-difference harness measures every local sign
independently.

Everything numerical is float64; verification thresholds are part of the
public contract (equivariance residuals ~1e-9, homotopy zeros at the
pushed centers at parameter 1/2, a sampled search for spurious zeros).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import NumericalDegeneracyError
from .circle import (BLEND_FULL_FRACTION, BLEND_OFF_FRACTION, PLATEAU_FRACTION,
                     RADIUS_RULE, ZERO_ZONE_FRACTION, CenterSeparationError, DegreeLedger,
                     _NORM_FLOOR, _quintic, place_steps)

__all__ = [
    "NumericalDegeneracyError",
    "CenterSeparationError",
    "ModificationNode",
    "MapLayer",
    "DegreeLedger",
    "LocalDegreeReport",
    "identity_map",
    "build_from_plan",
    "verify_equivariance",
    "center_residual",
    "verify_local_degrees",
    "verify_no_spurious_zeros",
    "check_polish_work",
    "SpuriousZeroSearch",
    "random_sphere_points",
    "generators",
]

FD_STEP = 1e-5  # the finite-difference step of verify_local_degrees
# Points per random draw of the sampled checks; bounds their memory.
_SAMPLE_CHUNK = 20000
# Points that a sampled check admits; bounds its time (`eqmap verify` at r = 6 auto
# takes about 3.5 s at the cap, 2-core Xeon).
MAX_SAMPLES = 1_000_000
# Rows per homotopy evaluation of the sampled checks, and stencil points (4r - 2
# per center) per evaluation in verify_local_degrees; bounds their memory.
_EVAL_ROWS = 4096


def _frob(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...", a, a))


def generators(r: int) -> list[tuple[int, ...]]:
    """A transposition and the full cycle; they generate the group."""
    swap = tuple([1, 0] + list(range(2, r)))
    cycle = tuple(list(range(1, r)) + [0])
    return [swap] if swap == cycle else [swap, cycle]


def _act_array(sigma: Sequence[int], arr: np.ndarray) -> np.ndarray:
    """Column permutation action: column i moves to column sigma[i]."""
    out = np.empty_like(arr)
    out[..., list(sigma)] = arr
    return out


def _center_row(r: int, k: int) -> np.ndarray:
    M = np.full(r, float(k))
    M[:k] = k - r
    return M / np.linalg.norm(M)


def _low_masks(r: int, k: int) -> np.ndarray:
    """One boolean row per k-subset of the columns, lexicographic: the low columns of a center."""
    masks = np.zeros((math.comb(r, k), r), dtype=bool)
    for i, S in enumerate(itertools.combinations(range(r), k)):
        masks[i, list(S)] = True
    return masks


def _orbit_point(c: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The orbit points of c (l in its first column, h in its last) with l where low is True."""
    return np.where(low[:, None, :], c[:, :1], c[:, -1:])


def _orbit_centers(r: int, k: int, theta: float) -> np.ndarray:
    """All C(r,k) orbit points of c_theta, one per mask of _low_masks.

    c_theta has cos(theta) * row in row 0 and sin(theta) * row in row 1.
    """
    row = _center_row(r, k)
    return _orbit_point(np.stack([math.cos(theta) * row, math.sin(theta) * row]), _low_masks(r, k))


def _smoothstep(u):
    """The quintic of u clipped to [0, 1], elementwise (circle._smoothstep takes a float)."""
    return _quintic(np.clip(u, 0.0, 1.0))


def _bump(dist, radius: float):
    """1 on the plateau (dist <= radius/4), 0 from dist >= radius on."""
    t0 = PLATEAU_FRACTION * radius
    return 1.0 - _smoothstep((dist - t0) / (radius - t0))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ModificationNode:
    """One modification step: its orbit, radius and sign (bump shape: *_FRACTION)."""

    k: int
    sign: int                 # -1: the minus formula, +1: the plus one; delta = sign * C(r,k)
    radius: float
    centers: np.ndarray       # (C(r,k), 2, r): _orbit_centers at the step's placed theta


@dataclass(eq=False)
class MapLayer:
    """A self-map of the sphere: the identity followed by modification steps, first applied first."""

    r: int
    nodes: tuple[ModificationNode, ...]

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """The map at each point of X, (n, 2, r): the homotopy at t = 1, normalized."""
        return _homotopy(self, np.asarray(X, dtype=float), 1.0, normalize=True)

    # The checks take the whole map; node, depth and chain stay because
    # perfbench/tracer.py reads them for the spheremap trace's eqmaps.depth
    # and eqmaps.centers, which CI pins at (3, 41).
    @property
    def node(self) -> Optional[ModificationNode]:
        """The last step, None for the identity."""
        return self.nodes[-1] if self.nodes else None

    @property
    def depth(self) -> int:
        return len(self.nodes)

    def chain(self) -> Iterator["MapLayer"]:
        """The maps after each step, from the first applied to the last."""
        for j in range(1, len(self.nodes) + 1):
            yield MapLayer(self.r, self.nodes[:j])


def identity_map(r: int) -> MapLayer:
    if r < 2:
        raise ValueError(f"identity_map needs r >= 2, got {r}")
    return MapLayer(r, ())


def _nearest(node: ModificationNode, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance to the nearest orbit center, the gains <l - h, x_i>, and the k-th largest.

    Each center holds the column l at k places and h at the rest (the two
    columns of centers[0]), so <x, sigma c> is <h, sum_i x_i> plus the
    gains at its l places: the nearest center puts l on the k largest gains
    (rearrangement inequality), and inside a ball none ties with the k-th.
    X must have zero row sums, so the first term is 0: samples are
    recentered, stencils step along a zero-row-sum basis, _phi reflects
    along a zero-row-sum u, and each step subtracts a center.
    """
    c = node.centers[0]
    gains = (c[:, 0] - c[:, -1]) @ X
    top = np.partition(gains, -node.k, axis=1)[:, -node.k:]  # the k largest, the k-th first
    F = X.reshape(len(X), -1)
    d2 = np.einsum("ij,ij->i", F, F) + 1.0 - 2.0 * top.sum(axis=1)  # unit centers
    return np.sqrt(np.maximum(d2, 0.0)), gains, top[:, 0]


def _balls(node: ModificationNode, X: np.ndarray,
           head: Optional[np.ndarray] = None) -> Optional[tuple[np.ndarray, ...]]:
    """Rows of X in the step's balls, their bumps, nearest centers and distances; None if none.

    The closed-form distance of _nearest selects the rows (head, if
    given, receives it on the first len(head) rows), and the bump is
    taken only where it is below the radius, since it is 0 from there
    on; the bump of a selected row is taken from the distance to the
    located center itself, since the expanded form loses digits near a
    center (absolute error ~eps/d).
    """
    dmin, gains, kth = _nearest(node, X)
    if head is not None:
        head[:] = dmin[:len(head)]
    sel = (dmin < node.radius).nonzero()[0]
    sel = sel[_bump(dmin[sel], node.radius) > 0.0]
    if not len(sel):
        return None
    C = _orbit_point(node.centers[0], gains[sel] >= kth[sel, None])
    dist = _frob(X[sel] - C)
    return sel, _bump(dist, node.radius), C, dist


def _phi(node: ModificationNode, X: np.ndarray, C: np.ndarray, dist: np.ndarray,
         tau) -> np.ndarray:
    """Blended reflection in the hyperplane orthogonal to u, the center C turned by +90 degrees.

    phi = normalize(x - 2*s*<x,u>*u) with s = tau * lambda(dist); at
    s = 1 this is the exact reflection, at s = 0 the identity.  lambda
    falls from 1 at BLEND_FULL_FRACTION * R, where the bump is 1/3, to 0
    at BLEND_OFF_FRACTION * R, where it is 1/4; the blend zone lies beyond
    ZERO_ZONE_FRACTION * R, so it can never host a zero of the homotopy.
    """
    u = np.stack([-C[:, 1], C[:, 0]], axis=1)
    lam = 1.0 - _smoothstep((dist / node.radius - BLEND_FULL_FRACTION)
                            / (BLEND_OFF_FRACTION - BLEND_FULL_FRACTION))
    s = np.asarray(tau, dtype=float) * lam
    inner = np.einsum("nij,nij->n", X, u)
    y = X - 2.0 * (s * inner)[:, None, None] * u
    ny = _frob(y)
    if np.any(ny < _NORM_FLOOR):
        raise NumericalDegeneracyError("reflection blend collapsed a point")
    return y / ny[:, None, None]


def _homotopy(layer: MapLayer, X: np.ndarray, t, normalize: bool = False,
              first: Optional[Sequence[int]] = None, dmin: Optional[np.ndarray] = None
              ) -> np.ndarray:
    """h_t = f(phi(x)) - 2*t*rho(x)*c on the last step's balls, f(x) off them.

    f is the map of the earlier steps (each this formula at t = 1,
    normalized), the identity at the nearest center c; phi is the identity
    ("minus") or the reflection blended in with tau = min(3t, 1) ("plus").
    t = 0 gives f, the zeros sit at the centers at t = 1/2; normalize reprojects.
    Given first, each row takes its own prefix of the steps: the rows
    first[j]:first[j + 1] take the map after step j, whose step j carries
    t, so step i acts on the suffix of rows from first[i] on.  Last step to
    first, each step finds its balls (one _nearest) and a plus step moves
    their rows by phi; first to last, each subtracts 2*t*rho*c, normalized
    on the rows it is not the last step of.  dmin, if given, receives each
    row's distance to the nearest center of its own last step, which no
    later step has moved when that step reads it.
    """
    nodes = layer.nodes
    if first is None:
        first = [0] * len(nodes) + [len(X)]
    Y = X.copy()
    t = np.asarray(t, dtype=float)
    pushes = []
    for i in reversed(range(len(nodes))):
        lo, own = first[i], first[i + 1] - first[i]
        if lo == len(X):
            continue
        node, Z = nodes[i], Y[lo:]
        balls = _balls(node, Z, None if dmin is None else dmin[lo:lo + own])
        if balls is None:
            continue
        sel, rho, C, dist = balls
        ts = t[lo + sel] if t.ndim else np.full(len(sel), t)
        split = sel.searchsorted(own)  # sel[:split] are the rows whose last step is i
        ts[split:] = 1.0
        if node.sign > 0:
            Z[sel] = _phi(node, Z[sel], C, dist, np.minimum(3.0 * ts, 1.0))
        pushes.append((lo, sel, 0 if normalize else split, ts * rho, C))
    for lo, sel, split, push, C in reversed(pushes):
        Z = Y[lo:]
        h = Z[sel] - 2.0 * push[:, None, None] * C
        if split < len(h):  # the rows from split on are normalized
            nh = _frob(h[split:])
            if np.any(nh < _NORM_FLOOR):
                raise NumericalDegeneracyError("map value collapsed below 1e-9 during normalization")
            h[split:] /= nh[:, None, None]
        Z[sel] = h
    return Y


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_from_plan(plan) -> tuple[MapLayer, DegreeLedger]:
    """Apply one modification per plan step, realizing each requested sign.

    circle.place_steps gives each step its own rotated center family, on
    which the map built so far is the identity, so a negative sign uses
    the minus formula, a positive one the plus formula, and the delta is
    exactly sign * C(r,k); the ledger runs through plan.deltas to the
    plan target (0 for certificate plans).
    """
    nodes = tuple(ModificationNode(k=k, sign=sign, radius=radius,
                                   centers=_orbit_centers(plan.r, k, theta))
                  for k, sign, theta, radius in place_steps(plan))
    return MapLayer(plan.r, nodes), DegreeLedger.of_plan(plan)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def random_sphere_points(r: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points: Gaussian, rows recentered, Frobenius-normalized."""
    out = np.empty((count, 2, r))
    need = np.arange(count)
    while len(need):
        draw = rng.standard_normal((len(need), 2, r))
        draw -= draw.mean(axis=2, keepdims=True)
        norms = _frob(draw)
        ok = norms > 1e-6
        out[need[ok]] = draw[ok] / norms[ok][:, None, None]
        need = need[~ok]
    return out


def _sample_chunks(r: int, samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """samples uniform points, drawn _SAMPLE_CHUNK at a time; the stream equals one draw."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples:,} is beyond the cap "
                         f"eqmaps.MAX_SAMPLES = {MAX_SAMPLES:,}")
    for start in range(0, samples, _SAMPLE_CHUNK):
        yield random_sphere_points(r, min(_SAMPLE_CHUNK, samples - start), rng)


def _row_blocks(n: int) -> Iterator[slice]:
    """n rows in order, _EVAL_ROWS at a time."""
    return (slice(a, a + _EVAL_ROWS) for a in range(0, n, _EVAL_ROWS))


def _blocks(counts: Sequence[int], block: int) -> Iterator[list[tuple[int, int, int]]]:
    """Blocks of at most block rows of the steps, each a list of (step, lo, hi) pieces.

    Each step's counts[step] rows are cut at multiples of block, so how a
    step is split does not depend on the other steps; the pieces fill the
    blocks in order, and a piece that does not fit starts the next block.
    """
    current: list[tuple[int, int, int]] = []
    size = 0
    for j, count in enumerate(counts):
        for lo in range(0, count, block):
            hi = min(lo + block, count)
            if size + hi - lo > block:
                yield current
                current, size = [], 0
            current.append((j, lo, hi))
            size += hi - lo
    if current:
        yield current


def verify_equivariance(layer: MapLayer, samples: int = 10000, seed: int = 0) -> float:
    """max over samples and generator permutations of |f(sigma x) - sigma f(x)|."""
    worst = 0.0
    for X in _sample_chunks(layer.r, samples, np.random.default_rng(seed)):
        for rows in _row_blocks(len(X)):
            FX = layer.eval_batch(X[rows])
            for sigma in generators(layer.r):
                lhs = layer.eval_batch(_act_array(sigma, X[rows]))
                worst = max(worst, float(_frob(lhs - _act_array(sigma, FX)).max()))
    return worst


def _first(own: np.ndarray, steps: int) -> list[int]:
    """The first offsets of _homotopy for rows on the steps own (ascending)."""
    return own.searchsorted(np.arange(steps + 1)).tolist()


def _step_blocks(rows: Sequence[np.ndarray], size: int
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of every step, in the _blocks of at most size rows, and the step of each row."""
    for pieces in _blocks([len(R) for R in rows], size):
        yield (np.concatenate([rows[j][lo:hi] for j, lo, hi in pieces]),
               np.concatenate([np.full(hi - lo, j) for j, lo, hi in pieces]))


def center_residual(layer: MapLayer) -> list[float]:
    """max |h_1/2| over each step's centers, where the homotopy should vanish: one entry
    per step, first applied first, each on the map after that step ([] for the identity)."""
    worst = np.zeros(layer.depth)
    for C, own in _step_blocks([node.centers for node in layer.nodes], _EVAL_ROWS):
        np.maximum.at(worst, own, _frob(_homotopy(layer, C, 0.5, first=_first(own, layer.depth))))
    return worst.tolist()


def _ambient_basis(r: int) -> np.ndarray:
    """Orthonormal basis of the zero-row-sum subspace, as (2r-2, 2, r)."""
    H = np.zeros((r - 1, r))
    for j in range(1, r):
        H[j - 1, :j] = 1.0
        H[j - 1, j] = -j
        H[j - 1] /= math.sqrt(j * (j + 1))
    E = np.zeros((2 * (r - 1), 2, r))
    E[: r - 1, 0, :] = H
    E[r - 1 :, 1, :] = H
    return E


def _coords(E: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.tensordot(v, E, axes=([-2, -1], [1, 2]))


@dataclass(frozen=True)
class LocalDegreeReport:
    """Finite-difference Jacobian signs of the homotopy at its zeros.

    delta_signs is the convention-adjusted reading (one per orbit
    center): it should be constant across the orbit and equal to the
    sign of the step's ledger delta.
    """

    k: int
    variant: str
    delta_signs: tuple[int, ...]
    consistent: bool
    matches_ledger: bool


def _stencil_dets(layer: MapLayer, E: np.ndarray, centers: np.ndarray, own: np.ndarray
                  ) -> np.ndarray:
    """Bordered central-difference Jacobian determinants of (x, t) -> h_t(x) at (centers, 1/2).

    Columns step by FD_STEP along the rows of E and along t, each x-step
    reprojected onto the sphere; the top row is [c, 0], the center's own coordinates.
    A radial step reprojects onto c, so J_x c = 0, and for any oriented
    tangent basis b with det [c, b] = +1 the determinant equals that of
    the chart Jacobian [J_x b, J_t].  One batched homotopy evaluation
    covers every stencil point of every center, center i on the map after
    step own[i] (ascending).
    """
    m, n, step = len(centers), len(E), FD_STEP
    first = [(2 * n + 2) * i for i in _first(own, layer.depth)]
    C = centers[:, None]
    # rows 2j and 2j+1 step along +-E[j]; the last two along +-t
    p = np.stack([C + step * E, C - step * E], axis=2).reshape(m, -1, 2, layer.r)
    pts = np.concatenate([p / _frob(p)[..., None, None], C, C], axis=1).reshape(-1, 2, layer.r)
    ts = np.full((m, 2 * n + 2), 0.5)
    ts[:, -2:] = 0.5 + step, 0.5 - step
    H = _coords(E, _homotopy(layer, pts, ts.ravel(), first=first)).reshape(m, -1, n)
    J = np.zeros((m, n + 1, n + 1))
    J[:, 0, :n] = _coords(E, centers)
    J[:, 1:] = ((H[:, 0::2] - H[:, 1::2]) / (2.0 * step)).transpose(0, 2, 1)
    return np.linalg.det(J)


def verify_local_degrees(layer: MapLayer) -> list[LocalDegreeReport]:
    """Jacobian sign of (x, t) -> h_t(x) at every (center, 1/2), one report per step as in
    center_residual.

    The sign is read from the bordered Jacobian of _stencil_dets, which
    orients every center's tangent space by det [c, b] > 0; with that
    convention the measured delta sign is minus the Jacobian sign.
    Stencils of step FD_STEP are evaluated in blocks of at most
    _EVAL_ROWS points, which may mix steps.  In every plan build_from_plan
    admits, each stencil point lies on the plateau of its ball, where
    |det| = 2 up to rounding, so a center whose determinant is at most
    1e-8 in magnitude raises NumericalDegeneracyError.
    """
    E, centers = _ambient_basis(layer.r), [node.centers for node in layer.nodes]
    block = max(1, _EVAL_ROWS // (4 * layer.r - 2))
    det = np.concatenate([np.empty(0)] + [_stencil_dets(layer, E, C, own)
                                          for C, own in _step_blocks(centers, block)])
    reports = []
    for node, lo in zip(layer.nodes, np.cumsum([0] + [len(c) for c in centers])):
        step_det = det[lo:lo + len(node.centers)]
        flat = np.flatnonzero(~(np.abs(step_det) > 1e-8))
        if len(flat):
            raise NumericalDegeneracyError(f"Jacobian determinant at most 1e-8 in magnitude "
                                           f"at center {flat[0]} of the k={node.k} step")
        delta_signs = tuple(-1 if d > 0 else 1 for d in step_det)
        consistent = len(set(delta_signs)) == 1
        reports.append(LocalDegreeReport(k=node.k, variant="minus" if node.sign < 0 else "plus",
                                         delta_signs=delta_signs, consistent=consistent,
                                         matches_ledger=consistent and delta_signs[0] == node.sign))
    return reports


@dataclass(frozen=True)
class SpuriousZeroSearch:
    """Outcome of the spurious-zero search on one modification step.

    minimum is the smallest |h_t(x)| found away from the designed zeros;
    k, distance_in_R (to the nearest center, in units of the step's
    radius) and t say where it lies (None for the identity map);
    evaluations counts the homotopy points evaluated, samples plus
    simplex points, and in_zero_zone those of them within 5R/8 of a
    center, the only place a zero of h_t can lie.
    """

    minimum: float
    k: Optional[int]
    distance_in_R: Optional[float]
    t: Optional[float]
    evaluations: int
    in_zero_zone: int


# Nelder-Mead coefficients (reflection, expansion, contraction, shrink)
# and initial-simplex steps, as in scipy.optimize's non-adaptive method.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
# A start stops when its simplex spans at most _NM_XATOL in every coordinate
# and at most _NM_FATOL in value (scipy's xatol and fatol).
_NM_XATOL, _NM_FATOL = 1e-9, 1e-12
# A second trial point is a * xbar - b * worst: (a, b) of the expansion,
# the outside contraction and the inside one; each product is exact.
_NM_TRIAL = np.array([[1 + _NM_RHO * _NM_CHI, _NM_RHO * _NM_CHI],
                      [1 + _NM_PSI * _NM_RHO, _NM_PSI * _NM_RHO],
                      [1 - _NM_PSI, -_NM_PSI]])
REFINE_COUNT, REFINE_ITERS = 100, 120  # Nelder-Mead starts and iterations per step of the search
# Simplex floats ((2r + 2) x (2r + 1) per start) per Nelder-Mead block of the
# spurious search; bounds its memory.  Every r <= 24 runs a step's 100 starts in one block.
_SIMPLEX_FLOATS = 2 ** 18
# Steps x REFINE_COUNT x REFINE_ITERS x simplex floats that the spurious search
# admits: one step up to r = 101, or the 7 steps of r = 15 auto six times over.
MAX_POLISH_WORK = 500_000_000


def check_polish_work(r: int, steps: int) -> None:
    """Refuse a spurious search whose Nelder-Mead work bound exceeds MAX_POLISH_WORK."""
    work = steps * REFINE_COUNT * REFINE_ITERS * (2 * r + 2) * (2 * r + 1)
    if work > MAX_POLISH_WORK:
        raise ValueError(f"the spurious-zero search would polish up to {work:,} simplex floats "
                         f"at r={r} ({steps} steps x {REFINE_COUNT} starts x {REFINE_ITERS} "
                         f"iterations x {2 * r + 2} x {2 * r + 1}), beyond the cap "
                         f"eqmaps.MAX_POLISH_WORK = {MAX_POLISH_WORK:,}")


def _nelder_mead_lockstep(objective, Z0: np.ndarray, maxiter: int) -> np.ndarray:
    """Nelder-Mead from every row of Z0 at once; each start's best value.

    Step for step this is scipy.optimize.minimize(method="Nelder-Mead")
    with maxiter, xatol = _NM_XATOL and fatol = _NM_FATOL applied to
    each start on its own: the same initial simplex, the same branches and
    arithmetic, the same numpy argsort of each simplex and the same
    per-start stopping rule.
    objective maps an (m, N) array of points and the (m,) rows of Z0
    they start from to their m values; every iteration calls it at most
    three times, for the reflections, the second trial points and the
    shrinks of the starts still running.  The simplices are held vertex
    first, sim[v, b] the v-th vertex of start b, so the centroid sums
    whole vertex slices, in scipy's order; a start that stops leaves the
    arrays, and the xatol test runs only on starts that pass fatol.
    """
    B, N = Z0.shape
    sim = np.repeat(Z0[:, None, :], N + 1, axis=1)
    diag = np.arange(N)
    sim[:, diag + 1, diag] = np.where(Z0 != 0, (1 + _NM_NONZDELT) * Z0, _NM_ZDELT)
    live = np.arange(B)
    fsim = objective(sim.reshape(-1, N), np.repeat(live, N + 1)).reshape(B, N + 1).T
    sim = sim.transpose(1, 0, 2)
    # scipy sorts the initial simplex twice; numpy's default argsort is
    # not stable on every machine, so the second sort can move ties.
    for _ in range(2):
        sim, fsim = _sort_simplices(sim, fsim)

    best = np.empty(B)
    for _ in range(1, maxiter):
        done = np.abs(fsim[:1] - fsim[1:]).max(axis=0) <= _NM_FATOL
        flat = done.nonzero()[0]
        if len(flat):
            near = flat[np.abs(sim[-1, flat] - sim[0, flat]).max(axis=1) <= _NM_XATOL]
            done[flat] = False
            done[near] = np.abs(sim[1:, near] - sim[:1, near]).max(axis=(0, 2)) <= _NM_XATOL
            if done.any():
                best[live[done]] = fsim[0, done]
                running = ~done
                live, sim, fsim = live[running], sim[:, running], fsim[:, running]
                if not len(live):
                    return best
        xbar = np.add.reduce(sim[:-1], 0) / N
        worst = sim[-1]
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * worst
        fxr = objective(xr, live)

        expand = fxr < fsim[0]
        accept = ~expand & (fxr < fsim[-2])
        outside = ~expand & ~accept & (fxr < fsim[-1])
        inside = ~(expand | accept | outside)
        coef = _NM_TRIAL[outside + 2 * inside]
        trial = coef[:, :1] * xbar - coef[:, 1:] * worst
        ftrial = np.full(len(live), np.inf)
        moved = (~accept).nonzero()[0]
        if len(moved):
            ftrial[moved] = objective(trial[moved], live[moved])

        take_trial = ((expand & (ftrial < fxr)) | (outside & (ftrial <= fxr))
                      | (inside & (ftrial < fsim[-1])))
        shrink = ((outside | inside) & ~take_trial).nonzero()[0]
        if len(shrink):
            low = sim[:1, shrink]
            shrunk = low + _NM_SIGMA * (sim[1:, shrink] - low)
        # the reflection or the trial point replaces the worst vertex; a shrink replaces it again
        sim[-1] = np.where(take_trial[:, None], trial, xr)
        fsim[-1] = np.where(take_trial, ftrial, fxr)
        if len(shrink):
            sim[1:, shrink] = shrunk
            fsim[1:, shrink] = objective(shrunk.transpose(1, 0, 2).reshape(-1, N),
                                         np.repeat(live[shrink], N)).reshape(-1, N).T
        sim, fsim = _sort_simplices(sim, fsim)
    best[live] = fsim[0]
    return best


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each start's vertices (sim[v, b], valued fsim[v, b]) in numpy's argsort order."""
    V, B, N = sim.shape
    flat = (np.argsort(fsim.T, axis=1).T * B + np.arange(B)).ravel()
    return sim.reshape(-1, N).take(flat, axis=0).reshape(V, B, N), fsim.take(flat).reshape(V, B)


def verify_no_spurious_zeros(layer: MapLayer, samples: int = 100000, seed: int = 0
                             ) -> list[SpuriousZeroSearch]:
    """Smallest |h_t(x)| found away from the designed zeros of each step, and where.

    One search per step of layer, first applied first, each on the map
    after that step (the identity map gets one search of its own).
    Random points over the sphere times t in [0, 1], drawn once for all
    steps, excluding tubes of radius R/10 around each pushed center for
    t in [0.4, 0.6]; each step's REFINE_COUNT best samples are polished by
    a derivative-free Nelder-Mead search of REFINE_ITERS iterations over
    (x, t), with x re-centered and normalized onto the sphere and t
    clipped to [0, 1].  All starts of all steps advance in lockstep, in
    blocks of as many starts as keep their simplices within
    _SIMPLEX_FLOATS floats (each step's starts cut at multiples of that
    block size, see _blocks), one batched homotopy evaluation, in
    _EVAL_ROWS rows at a time, per simplex move of a block, in which
    each row runs its own step's map; each start takes
    the steps of scipy.optimize.minimize(method="Nelder-Mead",
    xatol=1e-9, fatol=1e-12) (batched evaluation can move a value in its
    last bits only), and a step's points are recorded in the order of a
    search of that step alone.  A minimum covers every point of its step
    evaluated outside the exclusion tubes.  Sampled evidence only, but a
    reported minimum above 1e-3 leaves no room for an unnoticed sign slip
    in the degree ledger.  A layer whose polish bound exceeds
    MAX_POLISH_WORK is refused before any sample is drawn.
    """
    nodes, r, m = layer.nodes, layer.r, len(layer.nodes)
    check_polish_work(r, m)
    rng = np.random.default_rng(seed)
    if not m:
        minimum, evaluations = np.inf, 0
        for X in _sample_chunks(r, samples, rng):
            rng.uniform(0.0, 1.0, len(X))  # the t of each sample, as for a step
            minimum, evaluations = min(minimum, float(_frob(X).min())), evaluations + len(X)
        return [SpuriousZeroSearch(minimum, None, None, None, evaluations, 0)]

    radius = np.array([node.radius for node in nodes])
    zone, tube = ZERO_ZONE_FRACTION * radius, radius / 10.0
    best = [np.inf] * m
    where: list[tuple[Optional[float], Optional[float]]] = [(None, None)] * m
    evaluations = np.zeros(m, dtype=int)
    in_zero_zone = np.zeros(m, dtype=int)

    def evaluate(X: np.ndarray, T: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|h_T(X)|, row i on the map after step own[i] (ascending), in blocks of _EVAL_ROWS
        rows and recorded once for the call; and the rows outside the tubes."""
        vals, dmin = np.empty(len(X)), np.empty(len(X))
        for rows in _row_blocks(len(X)):
            first = _first(own[rows], m)
            vals[rows] = _frob(_homotopy(layer, X[rows], T[rows], first=first, dmin=dmin[rows]))
        evaluations[:] += np.bincount(own, minlength=m)
        in_zero_zone[:] += np.bincount(own[dmin <= zone[own]], minlength=m)
        keep = ~((dmin < tube[own]) & (np.abs(T - 0.5) <= 0.1))
        masked = np.where(keep, vals, np.inf)
        first = _first(own, m)
        for j in range(m):
            if first[j] < first[j + 1]:  # where goes to the first row of the step's minimum
                i = first[j] + int(np.argmin(masked[first[j]:first[j + 1]]))
                if masked[i] < best[j]:
                    best[j], where[j] = float(masked[i]), (float(dmin[i] / radius[j]), float(T[i]))
        return vals, keep

    lows: list[list[np.ndarray]] = [[] for _ in nodes]
    pools: list[list[np.ndarray]] = [[] for _ in nodes]
    for X in _sample_chunks(r, samples, rng):
        T = rng.uniform(0.0, 1.0, len(X))
        for j in range(m):
            vals, keep = evaluate(X, T, np.full(len(X), j))
            kept = np.flatnonzero(keep)[np.argsort(vals[keep])[:REFINE_COUNT]]
            lows[j].append(vals[kept])
            pools[j].append(np.column_stack([X[kept].reshape(len(kept), 2 * r), T[kept]]))
    # each step's REFINE_COUNT best rows over all chunks, ties in the order the chunks gave them
    starts = [np.concatenate(pool)[np.argsort(np.concatenate(low), kind="stable")[:REFINE_COUNT]]
              for low, pool in zip(lows, pools)]

    def objective(Z: np.ndarray, own: np.ndarray) -> np.ndarray:
        """|h_t(x)| at the points Z = (x, t), recorded, row i on step own[i]; 10 if x collapses."""
        X = Z[:, :-1].reshape(len(Z), 2, r)
        X = X - X.mean(axis=2, keepdims=True)
        nx = _frob(X)
        vals = np.full(len(Z), 10.0)
        ok = ~(nx < 1e-9)
        X = X[ok] / nx[ok, None, None]
        vals[ok] = evaluate(X, np.clip(Z[ok, -1], 0.0, 1.0), own[ok])[0]
        return vals

    block = max(1, _SIMPLEX_FLOATS // ((2 * r + 2) * (2 * r + 1)))
    for Z0, steps in _step_blocks(starts, block):
        _nelder_mead_lockstep(lambda Z, rows: objective(Z, steps[rows]), Z0, REFINE_ITERS)

    return [SpuriousZeroSearch(minimum=best[j], k=node.k, distance_in_R=where[j][0],
                               t=where[j][1], evaluations=int(evaluations[j]),
                               in_zero_zone=int(in_zero_zone[j]))
            for j, node in enumerate(nodes)]


def layer_plan_json(layer: MapLayer) -> dict:
    """Reconstructible description: r, the signed steps, and the radius rule."""
    return {"r": layer.r, "steps": [{"k": nd.k, "sign": nd.sign} for nd in layer.nodes],
            "radius_rule": RADIUS_RULE}

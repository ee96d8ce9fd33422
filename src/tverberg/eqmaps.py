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
j*pi/(2n), and circle.place_steps sizes the radii so that no two steps'
balls meet.  The base map is therefore the identity on each new step's
balls, each point is moved by one step at most, and a step moves the
mapping degree by exactly +-C(r,k); a Bezout certificate for -1 drives
the total from 1 to 0.

Two mechanisms realize the two signs: the "minus" formula subtracts
2*rho(x)*f(center) directly (delta -C(r,k)), the "plus" formula first
composes with a reflection through the hyperplane orthogonal to the
center rotated by +90 degrees in the plane of its two rows, implemented
as an explicit blended homotopy rather than an abstract extension (delta
+C(r,k)); its blend lambda = smoothstep(12*rho - 3) of the bump is 1
where rho >= 1/3 and 0 where rho <= 1/4, so the reflection is exact
wherever a zero can lie (rho >= 1/2) once t >= 1/3.  The
finite-difference harness measures every local sign independently.

Everything numerical is float64; verification thresholds are part of the
public contract (equivariance residuals ~1e-9, homotopy zeros at the
pushed centers at parameter 1/2, a search for spurious zeros on points
sampled in a ball of each step).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import NumericalDegeneracyError
from .circle import (PLATEAU_FRACTION, RADIUS_RULE, ZERO_ZONE_FRACTION, CenterSeparationError,
                     DegreeLedger, _NORM_FLOOR, _quintic, place_steps)

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
    "check_verify_work",
    "SpuriousZeroSearch",
    "random_sphere_points",
    "generators",
]

FD_STEP = 1e-5  # the finite-difference step of verify_local_degrees
# Points that a sampled check admits; bounds its time (`eqmap verify` at r = 6 auto
# takes 4.8-5.9 s at the cap, shared 2-core Xeon).
MAX_SAMPLES = 1_000_000
# Rows per random draw and per homotopy evaluation of the sampled checks and
# center_residual, and stencil points (4r - 2 per center) per evaluation in
# verify_local_degrees; bounds their memory.
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
           dmin: Optional[np.ndarray] = None) -> Optional[tuple[np.ndarray, ...]]:
    """Rows of X in the step's balls, their bumps and nearest centers; None if none.

    The closed-form distance of _nearest selects the rows (dmin, if
    given, receives it), and the bump is taken only where it is below
    the radius, since it is 0 from there on; the bump of a selected row
    is taken from the distance to the located center itself, since the
    expanded form loses digits near a center (absolute error ~eps/d).
    """
    near, gains, kth = _nearest(node, X)
    if dmin is not None:
        dmin[:] = near
    sel = (near < node.radius).nonzero()[0]
    sel = sel[_bump(near[sel], node.radius) > 0.0]
    if not len(sel):
        return None
    C = _orbit_point(node.centers[0], gains[sel] >= kth[sel, None])
    return sel, _bump(_frob(X[sel] - C), node.radius), C


def _phi(X: np.ndarray, C: np.ndarray, s) -> np.ndarray:
    """Blended reflection in the hyperplane orthogonal to u, the center C turned by +90 degrees.

    phi = normalize(x - 2*s*<x,u>*u); at s = 1 this is the exact
    reflection, at s = 0 the identity.  _homotopy blends it in with s =
    min(3t, 1) * lambda, lambda = smoothstep(12*rho - 3) of the bump rho:
    lambda = 1 where rho >= 1/3 and 0 where rho <= 1/4, so the reflection
    is exact where a zero can lie (rho >= 1/2) once t >= 1/3.
    """
    u = np.stack([-C[:, 1], C[:, 0]], axis=1)
    inner = np.einsum("nij,nij->n", X, u)
    y = X - 2.0 * (s * inner)[:, None, None] * u
    ny = _frob(y)
    if np.any(ny < _NORM_FLOOR):
        raise NumericalDegeneracyError("reflection blend collapsed a point")
    return y / ny[:, None, None]


def _homotopy(layer: MapLayer, X: np.ndarray, t, normalize: bool = False,
              dmin: Optional[np.ndarray] = None) -> np.ndarray:
    """h_t = f(phi(x)) - 2*t*rho(x)*c on the last step's balls, f(x) off them.

    f is the map of the earlier steps (each this formula at t = 1,
    normalized), the identity at the nearest center c; phi is the identity
    ("minus") or the reflection blended in with s = min(3t, 1) * lambda ("plus").
    t = 0 gives f, the zeros sit at the centers at t = 1/2; normalize reprojects.
    No two steps' balls meet (circle.place_steps), and phi keeps a point
    in its ball, so f is the identity on phi of the last step's balls and
    every row is moved by the one step whose balls hold it: each step
    reads its balls from X itself.  dmin, if given, receives each row's
    distance to the nearest center of the last step.
    """
    Y, last = X.copy(), len(layer.nodes) - 1
    t = np.broadcast_to(np.asarray(t, dtype=float), len(X))
    for i, node in enumerate(layer.nodes):
        balls = _balls(node, X, dmin if i == last else None)
        if balls is None:
            continue
        sel, rho, C = balls
        ts = t[sel] if i == last else np.ones(len(sel))
        Z = X[sel]
        if node.sign > 0:
            Z = _phi(Z, C, np.minimum(3.0 * ts, 1.0) * _smoothstep(12.0 * rho - 3.0))
        h = Z - 2.0 * (ts * rho)[:, None, None] * C
        if normalize or i < last:
            nh = _frob(h)
            if np.any(nh < _NORM_FLOOR):
                raise NumericalDegeneracyError("map value collapsed below 1e-9 during normalization")
            h /= nh[:, None, None]
        Y[sel] = h
    return Y


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_from_plan(plan) -> tuple[MapLayer, DegreeLedger]:
    """Apply one modification per plan step, realizing each requested sign.

    circle.place_steps gives each step its own rotated center family, whose
    balls meet no other step's, so the map built so far is the identity
    there; a negative sign uses the minus formula, a positive one the plus
    formula, and the delta is exactly sign * C(r,k); the ledger runs
    through plan.deltas to the plan target (0 for certificate plans).
    """
    nodes = tuple(ModificationNode(k=k, sign=sign, radius=radius,
                                   centers=_orbit_centers(plan.r, k, theta))
                  for k, sign, theta, radius in place_steps(plan))
    return MapLayer(plan.r, nodes), DegreeLedger.of_plan(plan)


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

def random_sphere_points(r: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points: Gaussian, rows recentered, Frobenius-normalized in place; the
    points of norm at most 1e-6 are drawn again, after the whole draw, as one draw."""
    X = rng.standard_normal((count, 2, r))
    X -= X.mean(axis=2, keepdims=True)
    norms = _frob(X)
    low = np.flatnonzero(norms <= 1e-6)
    if len(low):
        X[low], norms[low] = random_sphere_points(r, len(low), rng), 1.0
    X /= norms[:, None, None]
    return X


def _check_samples(samples: int) -> None:
    """Refuse a sample count below 1 or beyond MAX_SAMPLES."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples = {samples:,} is beyond the cap "
                         f"eqmaps.MAX_SAMPLES = {MAX_SAMPLES:,}")


def _sample_chunks(r: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """samples uniform points of seed, drawn _EVAL_ROWS at a time; the stream equals one draw."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    for lo in range(0, samples, _EVAL_ROWS):
        yield random_sphere_points(r, min(_EVAL_ROWS, samples - lo), rng)


def verify_equivariance(layer: MapLayer, samples: int = 10000, seed: int = 0) -> float:
    """max over samples and generator permutations of |f(sigma x) - sigma f(x)|."""
    worst = 0.0
    for X in _sample_chunks(layer.r, samples, seed):
        FX = layer.eval_batch(X)
        for sigma in generators(layer.r):
            lhs = layer.eval_batch(_act_array(sigma, X))
            worst = max(worst, float(_frob(lhs - _act_array(sigma, FX)).max()))
    return worst


def center_residual(layer: MapLayer) -> list[float]:
    """max |h_1/2| over each step's centers, where the homotopy should vanish: one entry
    per step, first applied first, each on the map after that step ([] for the identity).

    A step's centers lie in its own balls, where the map after it is the
    step alone, so each step's centers go through MapLayer(r, (node,)),
    _EVAL_ROWS at a time.
    """
    worst = []
    for node in layer.nodes:
        alone = MapLayer(layer.r, (node,))
        worst.append(max(float(_frob(_homotopy(alone, node.centers[lo:lo + _EVAL_ROWS], 0.5)).max())
                         for lo in range(0, len(node.centers), _EVAL_ROWS)))
    return worst


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


def _stencil_dets(layer: MapLayer, E: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Bordered central-difference Jacobian determinants of (x, t) -> h_t(x) at (centers, 1/2).

    Columns step by FD_STEP along the rows of E and along t, each x-step
    reprojected onto the sphere; the top row is [c, 0], the center's own coordinates.
    A radial step reprojects onto c, so J_x c = 0, and for any oriented
    tangent basis b with det [c, b] = +1 the determinant equals that of
    the chart Jacobian [J_x b, J_t].  One batched homotopy evaluation
    covers every stencil point of every center.
    """
    m, n, step = len(centers), len(E), FD_STEP
    C = centers[:, None]
    # rows 2j and 2j+1 step along +-E[j]; the last two along +-t
    p = np.stack([C + step * E, C - step * E], axis=2).reshape(m, -1, 2, layer.r)
    pts = np.concatenate([p / _frob(p)[..., None, None], C, C], axis=1).reshape(-1, 2, layer.r)
    ts = np.full((m, 2 * n + 2), 0.5)
    ts[:, -2:] = 0.5 + step, 0.5 - step
    H = _coords(E, _homotopy(layer, pts, ts.ravel())).reshape(m, -1, n)
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
    Stencils of step FD_STEP are evaluated step by step on the step
    alone, as in center_residual, in blocks of at most _EVAL_ROWS points.
    In every plan build_from_plan admits, each stencil point lies on the
    plateau of its ball, where |det| = 2 up to rounding, so a center
    whose determinant is at most 1e-8 in magnitude raises
    NumericalDegeneracyError.
    """
    E = _ambient_basis(layer.r)
    block = max(1, _EVAL_ROWS // (4 * layer.r - 2))
    reports = []
    for node in layer.nodes:
        alone = MapLayer(layer.r, (node,))
        step_det = np.concatenate([_stencil_dets(alone, E, node.centers[lo:lo + block])
                                   for lo in range(0, len(node.centers), block)])
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
    in_zero_zone counts the evaluated points within 5R/8 of a center,
    the only place a zero of h_t can lie.
    """

    minimum: float
    k: Optional[int]
    distance_in_R: Optional[float]
    t: Optional[float]
    in_zero_zone: int


# Work that `eqmap build` and `eqmap verify` admit: row-steps of the equivariance
# check (its samples, each through every step, once plus once per generator) and,
# for verify, of the spurious search (each step's samples through that step), at 2
# units each, plus stencil work (C(r,k) * r^3 a step), at 1.  A row-step costs
# about 0.2 us at r = 2 and a stencil unit about 0.003 us.  It admits one verified
# step up to r = 131, and on 500 steps at r = 2 a verify of 99,997 samples or a
# build of 150,000 (33 s and 15 s; shared 2-core Xeon).
MAX_VERIFY_WORK = 300_000_000


def check_verify_work(r: int, ks: Sequence[int], samples: int, stencils_and_search: bool
                      ) -> None:
    """Refuse an `eqmap build` (stencils_and_search False) or `verify` (True) of
    the steps ks whose work exceeds MAX_VERIFY_WORK."""
    _check_samples(samples)
    generator_count = 1 if r == 2 else 2  # len(generators(r)), without listing them
    equivariance = 2 * samples * len(ks) * (1 + generator_count)
    search = 2 * samples * len(ks) if stencils_and_search else 0
    stencils = sum(math.comb(r, k) for k in ks) * r ** 3 if stencils_and_search else 0
    work = equivariance + search + stencils
    if work > MAX_VERIFY_WORK:
        mode, parts = "build", f"{equivariance:,} for the equivariance row-steps"
        if stencils_and_search:
            mode = "verify"
            parts += f", {search:,} for the search row-steps and {stencils:,} for the stencils"
        raise ValueError(f"eqmap {mode} at r={r} would do {work:,} units of work ({parts}), "
                         f"beyond the cap eqmaps.MAX_VERIFY_WORK = {MAX_VERIFY_WORK:,}")


def _ball_sampler(node: ModificationNode, E: np.ndarray, seed: np.random.SeedSequence):
    """Draws of n points in the ball of node.centers[0], and a t for each.

    The exponential map at the center c, in the coordinates of E: a
    Gaussian direction with its c component removed, at chord distance
    d = R*sqrt(U), whose angle has cosine 1 - d^2/2 and sine
    d*sqrt(1 - d^2/4), and t uniform on [0, 1].  Directions and (U, t)
    come from two streams of seed, so draws of any sizes concatenate to
    one draw.
    """
    directions, radii = (np.random.default_rng(s) for s in seed.spawn(2))
    c = _coords(E, node.centers[0])

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        G = directions.standard_normal((n, len(E)))
        G -= np.einsum("nb,b->n", G, c)[:, None] * c
        U, T = radii.random((n, 2)).T
        d2 = node.radius ** 2 * U
        sine = np.sqrt(d2 * (1.0 - d2 / 4.0) / np.einsum("nb,nb->n", G, G))
        return np.einsum("nb,bij->nij", (1.0 - d2 / 2.0)[:, None] * c + sine[:, None] * G, E), T
    return draw


def verify_no_spurious_zeros(layer: MapLayer, samples: int = 100000, seed: int = 0
                             ) -> list[SpuriousZeroSearch]:
    """Smallest |h_t(x)| found away from the designed zeros of each step, and where.

    One search per step of layer, first applied first, each on the map
    after that step.  Step j's samples points lie in the ball of its
    first center (_ball_sampler, from the j-th child of seed); off its
    balls h_t is the normalized map below, |h_t| = 1 up to rounding, and
    by equivariance every ball of the orbit holds the same values.  On
    its balls the map after step j is the step alone, so the points go
    through MapLayer(r, (node,)), _EVAL_ROWS at a time, excluding tubes
    of radius R/10 around each pushed center for t in [0.4, 0.6]; where
    goes to the first point of the minimum in draw order, which no block
    size changes.  The identity map gets one search of uniform points.
    Sampled evidence only, but a reported minimum above 1e-3 leaves no
    room for an unnoticed sign slip in the degree ledger.
    """
    nodes, r = layer.nodes, layer.r
    _check_samples(samples)
    if not nodes:
        minimum = min(float(_frob(X).min()) for X in _sample_chunks(r, samples, seed))
        return [SpuriousZeroSearch(minimum, None, None, None, 0)]

    E, searches = _ambient_basis(r), []
    for node, child in zip(nodes, np.random.SeedSequence(seed).spawn(len(nodes))):
        draw, alone = _ball_sampler(node, E, child), MapLayer(r, (node,))
        zone, tube = ZERO_ZONE_FRACTION * node.radius, node.radius / 10.0
        minimum, where, in_zero_zone = np.inf, (None, None), 0
        for lo in range(0, samples, _EVAL_ROWS):
            X, T = draw(min(_EVAL_ROWS, samples - lo))
            dmin = np.empty(len(X))
            vals = _frob(_homotopy(alone, X, T, dmin=dmin))
            in_zero_zone += int(np.count_nonzero(dmin <= zone))
            vals[(dmin < tube) & (np.abs(T - 0.5) <= 0.1)] = np.inf
            i = int(np.argmin(vals))
            if vals[i] < minimum:  # where: (distance_in_R, t)
                minimum, where = float(vals[i]), (float(dmin[i] / node.radius), float(T[i]))
        searches.append(SpuriousZeroSearch(minimum, node.k, *where, in_zero_zone))
    return searches


def layer_plan_json(layer: MapLayer) -> dict:
    """Reconstructible description: r, the signed steps, and the radius rule."""
    return {"r": layer.r, "steps": [{"k": nd.k, "sign": nd.sign} for nd in layer.nodes],
            "radius_rule": RADIUS_RULE}

"""What a plan fixes before any point is evaluated, and the r = 2 map on the circle.

``eqmaps`` evaluates degree-controlled equivariant self-maps of the sphere
of 2 x r matrices in numpy.  This module holds, without numpy, what such a
map's steps share and what ``eqmaps`` imports: the bump's shape (its
plateau and its zero zone) and the reflection blend of a plus step,
lambda = 1 where the bump rho >= 1/3 and 0 where rho <= 1/4; the radius
rule, the closed-form distance between two center orbits and the
separation check built on it, the plan caps, and the degree ledger.
``place_steps`` is the one placement of a plan's steps: each step's
orbit k, sign, angle and radius, which both ``eqmaps.build_from_plan``
and ``build_circle_map`` build from.
No two steps' balls meet, so each point of the sphere is moved by one
step at most.

At r = 2 the sphere is a circle.  A point X = [[a, -a], [b, -b]] is the
complex number z = sqrt(2)(a + ib); the Frobenius distance and inner
product become |z - w| and Re(z conj(w)).  Every step is a k = 1 step,
and its orbit is the antipodal pair +-e^{i theta}.  ``CircleMap`` is the
map of a plan there: ``CircleMap.image`` applies, in Python complex
arithmetic, the one step whose ball can hold a point, as
``eqmaps._homotopy`` does at t = 1, and ``winding_number`` reads its exact
degree, so ``eqmap winding`` runs without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import NumericalDegeneracyError

__all__ = [
    "WindingNonconvergenceError",
    "CenterSeparationError",
    "DegreeLedger",
    "CircleMap",
    "min_orbit_distance",
    "safe_radius",
    "step_radius",
    "orbit_distance",
    "place_steps",
    "build_circle_map",
    "winding_number",
]

_NORM_FLOOR = 1e-9
PLATEAU_FRACTION = 0.25  # bump is identically 1 within this fraction of the radius
# The radius of a step at k, as written to plan JSON; n counts the plan's
# steps at k, the sine binds only for n > 1 (see step_radius), and k' runs
# over the plan's other orbit sizes (see place_steps).
RADIUS_RULE = "min(min_orbit_dist/3, sin(pi/(4n)), orbit_dist(k, k')/2)"
MAX_PLAN_STEPS = 500  # the builders refuse longer plans before building anything
# place_steps refuses larger orbits before placing anything; C(15,6) is the largest
# orbit of any r <= 15 certificate plan.  It bounds no memory, since no check lists
# an orbit, but keeps the builders to the orbits the tests cover; raising it for
# r = 18/20 is a later step, to be measured.
MAX_ORBIT = 5005
MAX_WINDING_SAMPLES = 2 ** 20  # winding_number gives up beyond this many angle samples


class WindingNonconvergenceError(NumericalDegeneracyError):
    """Adaptive circle sampling exceeded its budget."""


class CenterSeparationError(RuntimeError):
    """The balls of two steps meet; degree tracking unsound."""


# ---------------------------------------------------------------------------
# The bump's shape
# ---------------------------------------------------------------------------

def _quintic(u):
    """6u^5 - 15u^4 + 10u^3, of a float or an array: the smoothstep on [0, 1]."""
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _smoothstep(u: float) -> float:
    """The quintic of u clipped to [0, 1]: C^2, flat to second order at both ends."""
    return _quintic(min(max(u, 0.0), 1.0))


# Homotopy zeros can lie only where the bump rho is at least 1/2, within this fraction of
# the radius (5/8: the smoothstep is symmetric), and there the reflection blend
# smoothstep(12*rho - 3) is full: it is 1 where rho >= 1/3 and 0 where rho <= 1/4.
ZERO_ZONE_FRACTION = PLATEAU_FRACTION + 0.5 * (1.0 - PLATEAU_FRACTION)


# ---------------------------------------------------------------------------
# Radii, orbit distances and the ledger
# ---------------------------------------------------------------------------

def min_orbit_distance(r: int, k: int) -> float:
    """Chordal distance from the center to its nearest orbit mate.

    Swapping one low entry with one high entry changes two coordinates
    by r/|M| each, and any permutation moves at least that much, so the
    minimum is sqrt(2*r/(k*(r-k))); the test suite confirms this against
    brute-force orbit enumeration.
    """
    if not (r >= 2 and 1 <= k <= r - 1):
        raise ValueError(f"min_orbit_distance needs 1 <= k <= r-1, got (r={r}, k={k})")
    return math.sqrt(2.0 * r / (k * (r - k)))


def safe_radius(r: int, k: int) -> float:
    """One third of the minimal orbit distance: balls stay well separated."""
    return min_orbit_distance(r, k) / 3.0


def step_radius(r: int, k: int, n: int) -> float:
    """The same-k radius of each of a plan's n steps at k; place_steps may shrink it.

    Adjacent families at k are a chord 2*sin(pi/(4n)) apart (the angles
    stay in [0, pi/2)), so capping the radius at sin(pi/(4n)) keeps two
    such balls from meeting; R <= min_orbit_dist/3 keeps the balls of
    one orbit disjoint.  For n = 1 the cap is sin(pi/4) > 2/3 >=
    min_orbit_dist/3, so R is safe_radius(r, k).
    """
    return min(safe_radius(r, k), math.sin(math.pi / (4 * n)))


def orbit_distance(r: int, k: int, theta: float, k2: int, theta2: float) -> float:
    """Distance between the orbits of c_theta at k and c_theta2 at k2, in closed form.

    With M_k the unnormalized center row, <c, sigma c2> is cos(theta -
    theta2) <M_k, sigma M_k2> / (|M_k| |M_k2|), |M_k|^2 = k(r-k)r.  For
    |theta - theta2| < pi/2 (the builders' angles lie in [0, pi/2)) the
    cosine is positive, and the rearrangement inequality puts the sorted
    rows together: I = r*min(k,k2)*(r - max(k,k2)).  So dist^2 = 2 -
    2*cos(theta - theta2)*rho with rho = I / (|M_k| |M_k2|), computed as
    2(1 - rho) + 4*rho*sin^2((theta - theta2)/2), which keeps its digits
    for near orbits; equal k give rho = 1, and at r = 2 the distance is
    2*sin(|theta - theta2|/2).
    """
    lo, hi = min(k, k2), max(k, k2)
    rho = math.sqrt(lo * (r - hi) / (hi * (r - lo)))
    return math.sqrt(2.0 * (1.0 - rho) + 4.0 * rho * math.sin(0.5 * (theta - theta2)) ** 2)


def _check_separation(r: int, placed: Sequence[tuple[int, int, float, float]], k: int,
                      theta: float, radius: float) -> None:
    """The balls of the new step, (k, theta, radius), must meet no ball of the placed steps.

    placed holds the (k, sign, theta, radius) of the steps before it, and
    orbit_distance measures two orbits apart.  Two open caps on the
    sphere are disjoint iff their arcs 2*asin(R/2) add up to no more than
    the arc 2*asin(D/2) between their centers; unlike the chordal
    D >= R1 + R2, which it follows from, this keeps its slack for
    same-k steps that the sine cap of step_radius makes touch.
    """
    arc = math.asin(radius / 2.0)
    for j, (k0, _, theta0, radius0) in enumerate(placed):
        dist = orbit_distance(r, k0, theta0, k, theta)
        if math.asin(radius0 / 2.0) + arc > math.asin(dist / 2.0):
            raise CenterSeparationError(
                f"the balls of step {len(placed)} (k={k}, radius {radius:.6f}) meet those of "
                f"step {j} (k={k0}, radius {radius0:.6f}) at orbit distance {dist:.6f}"
            )


def place_steps(plan) -> list[tuple[int, int, float, float]]:
    """Each step's (k, sign, theta, radius), first applied first.

    The j-th of a plan's n steps at k sits at theta_j = j*pi/(2n).  Its
    radius is step_radius(r, k, n), bounded by half the distance
    orbit_distance(r, k, 0, k', 0) to every other k' of the plan, the
    least distance of the two orbits at any pair of angles.  So no two
    steps' balls meet, which _check_separation confirms pair by pair,
    and the map below each step is the identity wherever that step
    acts.  A plan of more than MAX_PLAN_STEPS steps, or with an orbit of
    more than MAX_ORBIT centers, is refused before any step is placed; the
    orbit size is built up factor by factor and stops once past the cap,
    so a huge C(r,k) is never computed.
    """
    if len(plan.steps) > MAX_PLAN_STEPS:
        raise ValueError(f"plan has {len(plan.steps)} steps, beyond the builder's cap "
                         f"MAX_PLAN_STEPS = {MAX_PLAN_STEPS}")
    for k, _ in plan.steps:
        size, m = 1, min(k, plan.r - k)
        for i in range(1, m + 1):  # size = C(r-m+i, i), which grows to C(r,k)
            size = size * (plan.r - m + i) // i
            if size > MAX_ORBIT:
                raise ValueError(f"plan step k={k} has C({plan.r},{k}), more than {MAX_ORBIT:,} "
                                 f"centers, beyond the builder's cap MAX_ORBIT = {MAX_ORBIT}")
    per_k, seen = Counter(k for k, _ in plan.steps), Counter()
    radii = {k: min([step_radius(plan.r, k, n)] + [orbit_distance(plan.r, k, 0.0, k2, 0.0) / 2.0
                                                   for k2 in per_k if k2 != k])
             for k, n in per_k.items()}
    placed: list[tuple[int, int, float, float]] = []
    for k, sign in plan.steps:
        j, n = seen[k], per_k[k]  # the j-th of the plan's n steps at k
        seen[k] += 1
        theta = j * math.pi / (2 * n)
        _check_separation(plan.r, placed, k, theta, radii[k])
        placed.append((k, sign, theta, radii[k]))
    return placed


@dataclass(frozen=True)
class DegreeLedger:
    """Signed degree bookkeeping: steps (k, sign, delta), running from 1."""

    steps: tuple[tuple[int, int, int], ...]

    @classmethod
    def of_plan(cls, plan) -> "DegreeLedger":
        """The ledger of a plan: each step's delta is sign * C(r,k)."""
        return cls(tuple((k, s, d) for (k, s), d in zip(plan.steps, plan.deltas)))

    @property
    def running(self) -> tuple[int, ...]:
        vals = [1]
        for _, _, delta in self.steps:
            vals.append(vals[-1] + delta)
        return tuple(vals)

    @property
    def final(self) -> int:
        return self.running[-1]

    def to_json(self) -> dict:
        return {
            "steps": [{"k": k, "sign": s, "delta": d} for k, s, d in self.steps],
            "running": list(self.running),
        }


# ---------------------------------------------------------------------------
# The r = 2 map on the circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleMap:
    """The r = 2 map of a plan on the unit circle, z = sqrt(2)(a + ib).

    Step j of n has the sign signs[j] and the orbit +-centers[j],
    centers[j] = e^{i theta_j} with theta_j = j*pi/(2n) (eqmaps places
    c_theta at -e^{i theta_j}, the same orbit); all share one radius.
    image is eqmaps._homotopy at t = 1.  The identity has no steps, and
    its radius 1.0 only sizes the first grid of winding_number.
    """

    signs: tuple[int, ...]
    radius: float
    centers: tuple[complex, ...]

    def image(self, z: complex) -> complex:
        """The map at the unit point z, as eqmaps._homotopy gives it at t = 1.

        Modulo pi, z's angle lies x spacings of pi/(2n) from 0, and step j
        sits at j spacings.  build_circle_map asserts 2*asin(R/2) < pi/(4n):
        each ball's arc reaches less than half a spacing from its step, so
        no two balls meet and only step round(x) mod 2n can hold z (none
        if that is n or more).  Nor does a plus step's blend move z out of
        its ball: with v = ic, z = a*c + b*v and a = <z, c> > 7/9 (R <= 2/3),
        the blend y = a*c + (1 - 2*lam)*b*v has a <= |y| <= 1, so y/|y| is
        no farther from c than z.  So no other step acts on z, and the map is
        the blend, one subtraction of 2*rho*c and one normalization.
        """
        n = len(self.signs)
        i = round(math.atan2(z.imag, z.real) % math.pi * (2 * n) / math.pi) % max(2 * n, 1)
        if i >= n:  # no steps, or z is nearest [pi/2, pi) mod pi, where no step sits
            return z
        u = self.centers[i]
        c = u if z.real * u.real + z.imag * u.imag >= 0.0 else -u
        t0 = PLATEAU_FRACTION * self.radius
        rho = 1.0 - _smoothstep((abs(z - c) - t0) / (self.radius - t0))
        if rho <= 0.0:
            return z
        if self.signs[i] > 0:
            v = 1j * c  # the center turned by +90 degrees: reflect in the line orthogonal to it
            lam = _smoothstep(12.0 * rho - 3.0)  # 1 where rho >= 1/3, 0 where rho <= 1/4
            y = z - 2.0 * lam * (z.real * v.real + z.imag * v.imag) * v
            z = y / abs(y)
        h = z - 2.0 * rho * c
        nh = abs(h)
        if nh < _NORM_FLOOR:
            raise NumericalDegeneracyError("map value collapsed below 1e-9 during normalization")
        return h / nh


def build_circle_map(plan) -> tuple[CircleMap, DegreeLedger]:
    """The map of an r = 2 plan on the circle, and its degree ledger.

    The steps are those of eqmaps.build_from_plan, placed by place_steps:
    the j-th of n sits at theta_j = j*pi/(2n), all with one radius.
    """
    if plan.r != 2:
        raise ValueError("winding numbers are defined here only for r = 2")
    placed = place_steps(plan)
    n = len(placed)
    radius = placed[0][3] if n else 1.0
    # CircleMap.image's search for the one step that can hold a point rests on this: one
    # radius, step j at j*pi/(2n) mod pi, and each ball's arc reaching 2*asin(R/2) from its
    # step, less than half a spacing
    assert not n or 2.0 * math.asin(radius / 2.0) < math.pi / (4 * n)
    centers = tuple(complex(math.cos(theta), math.sin(theta)) for _, _, theta, _ in placed)
    return CircleMap(tuple(s for _, s, _, _ in placed), radius, centers), DegreeLedger.of_plan(plan)


def winding_number(cmap: CircleMap) -> int:
    """Exact circle degree via adaptive angle sampling.

    The first grid puts at least 8 samples across each ball (spacing
    <= R/4, at least 1,024 points, a power of two); then every arc whose
    image angle moves by pi/4 or more is halved until none does, and the
    wrapped increments telescope to 2*pi times the winding number.
    """
    def angle(theta: float) -> float:
        w = cmap.image(complex(math.cos(theta), math.sin(theta)))
        return math.atan2(w.imag, w.real)

    n = max(1024, 1 << math.ceil(math.log2(8.0 * math.pi / cmap.radius)))
    theta = [i * (2.0 * math.pi / n) for i in range(n)]
    alpha = [None] * n  # None: not yet evaluated
    while None in alpha:
        if len(theta) > MAX_WINDING_SAMPLES:
            raise WindingNonconvergenceError(f"no convergence within {MAX_WINDING_SAMPLES} samples")
        alpha = [angle(t) if a is None else a for t, a in zip(theta, alpha)]
        d = [(b - a + math.pi) % (2.0 * math.pi) - math.pi
             for a, b in zip(alpha, alpha[1:] + alpha[:1])]
        halve = [abs(step) >= math.pi / 4.0 for step in d]
        ends = theta[1:] + [2.0 * math.pi]
        theta = [x for t, e, h in zip(theta, ends, halve) for x in ((t, 0.5 * (t + e)) if h else (t,))]
        alpha = [x for a, h in zip(alpha, halve) for x in ((a, None) if h else (a,))]
    total = math.fsum(d)
    w = round(total / (2.0 * math.pi))
    if abs(total / (2.0 * math.pi) - w) > 1e-6:
        raise WindingNonconvergenceError("angle increments do not telescope")
    return int(w)

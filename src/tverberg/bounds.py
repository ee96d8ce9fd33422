"""Dimension and parameter formulas for almost r-embedding existence.

Every function is exact integer arithmetic (ceilings via (a+b-1)//b);
the single rational-valued estimate is returned as an exact Fraction
and explicitly flagged approximate.  The decomposition helper also
re-derives its own consistency conditions and raises if they ever fail,
which the test suite sweeps exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "InternalConsistencyError",
    "FrickEstimate",
    "Theorem1Decomposition",
    "CorollaryAResult",
    "tverberg_N",
    "classic_N",
    "bfz_join_power",
    "frick_F_estimate",
    "vkf_dim",
    "general_position_dim",
    "constraint_N",
    "mw_codimension_ok",
    "theorem1_decomposition",
    "corollary_a_check",
    "corollary_b_check",
]


class InternalConsistencyError(RuntimeError):
    """A derived inequality or cross-check failed; must never happen."""


def _ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError(f"ceiling division needs positive divisor, got {b}")
    return -((-a) // b)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def tverberg_N(r: int, d: int) -> int:
    """N = (d+1)r - r*ceil((d+2)/(r+1)) - 2."""
    _check(r >= 2 and d >= 1, f"tverberg_N needs r >= 2, d >= 1, got ({r}, {d})")
    return (d + 1) * r - r * _ceil_div(d + 2, r + 1) - 2


def classic_N(r: int, d: int) -> int:
    """The classical counterexample dimension (d+1)(r-1)."""
    _check(r >= 2 and d >= 1, f"classic_N needs r >= 2, d >= 1, got ({r}, {d})")
    return (d + 1) * (r - 1)


def bfz_join_power(a: int, d: int, k: int) -> tuple[int, int]:
    """k-fold join power source/target dimensions (k(a+1)-1, k(d+1)-1)."""
    _check(a >= 0 and d >= 0 and k >= 1, f"bad join power arguments ({a}, {d}, {k})")
    return (k * (a + 1) - 1, k * (d + 1) - 1)


@dataclass(frozen=True)
class FrickEstimate:
    """Exact value of the displayed expression; only ever an approximation."""

    value: Fraction
    flag = "approximate"  # a class constant, not a field: no estimate is exact

    def __float__(self) -> float:
        return float(self.value)


def frick_F_estimate(r: int, d: int) -> FrickEstimate:
    """(d+1)r - (r + 1/2)/(r+1) * (d+1), exactly, flagged approximate.

    The literature pins this quantity only up to "close to", so the
    exact rational of the displayed expression is all we expose.
    """
    _check(r >= 2 and d >= 1, f"frick_F_estimate needs r >= 2, d >= 1, got ({r}, {d})")
    value = Fraction((d + 1) * r) - Fraction(2 * r + 1, 2 * (r + 1)) * (d + 1)
    return FrickEstimate(value)


def vkf_dim(k: int, r: int) -> int:
    """k + ceil((k+3)/r): target dimension for k-complexes, r not a prime power."""
    _check(k >= 0 and r >= 2, f"vkf_dim needs k >= 0, r >= 2, got ({k}, {r})")
    return k + _ceil_div(k + 3, r)


def general_position_dim(k: int, r: int) -> int:
    """k + ceil((k+1)/(r-1)): what general position alone achieves."""
    _check(k >= 0 and r >= 2, f"general_position_dim needs k >= 0, r >= 2, got ({k}, {r})")
    return k + _ceil_div(k + 1, r - 1)


def constraint_N(k: int, r: int) -> int:
    """N = (k+2)r - 2, the simplex dimension the constraint method consumes."""
    _check(k >= 0 and r >= 2, f"constraint_N needs k >= 0, r >= 2, got ({k}, {r})")
    return (k + 2) * r - 2


def mw_codimension_ok(r: int, d: int, k: int) -> bool:
    """Truth of rd >= (r+1)k + 3, the codimension-3 style hypothesis."""
    _check(r >= 0 and d >= 0 and k >= 0, f"bad arguments ({r}, {d}, {k})")
    return r * d >= (r + 1) * k + 3


@dataclass(frozen=True)
class Theorem1Decomposition:
    """Skeleton dimension k with its verified consistency data.

    vkf_target = vkf_dim(k, r) <= d - 1, and N = constraint_N(k, r)
    equals tverberg_N(r, d); both are re-checked on construction.
    """

    k: int
    vkf_target: int
    N: int


def theorem1_decomposition(r: int, d: int) -> Theorem1Decomposition:
    """k := d - 1 - ceil((d+2)/(r+1)) plus both consistency checks."""
    _check(r >= 2 and d >= 3, f"decomposition needs r >= 2, d >= 3, got ({r}, {d})")
    k = d - 1 - _ceil_div(d + 2, r + 1)
    target = vkf_dim(k, r)
    if d - 1 < target:
        raise InternalConsistencyError(
            f"(r={r}, d={d}): d-1 = {d - 1} < vkf_dim({k}, {r}) = {target}"
        )
    N = constraint_N(k, r)
    Nt = tverberg_N(r, d)
    if N != Nt:
        raise InternalConsistencyError(
            f"(r={r}, d={d}): constraint_N({k}, {r}) = {N} != tverberg_N = {Nt}"
        )
    return Theorem1Decomposition(k=k, vkf_target=target, N=N)


@dataclass(frozen=True)
class CorollaryAResult:
    d: int
    target_dim: int
    N: int


def corollary_a_check(r: int, q: int) -> CorollaryAResult:
    """d = (r+1)q - 1 with the drop-one-dimension conclusion verified.

    Requires q >= r + 2; the verified inequality
    ((r+1)q - 1)r - rq - 2 >= (r+1)q(r-1) is algebraically equivalent
    to that precondition, so failing it here would be a bug.
    """
    _check(r >= 2, f"corollary_a_check needs r >= 2, got {r}")
    if q < r + 2:
        raise ValueError(f"corollary_a_check needs q >= r + 2 = {r + 2}, got q={q}")
    d = (r + 1) * q - 1
    N = (d + 1) * (r - 1)
    lhs = ((r + 1) * q - 1) * r - r * q - 2
    if lhs < N:
        raise InternalConsistencyError(
            f"(r={r}, q={q}): proof inequality fails, {lhs} < {N}"
        )
    return CorollaryAResult(d=d, target_dim=d - 1, N=N)


def corollary_b_check(r: int, d: int, s: int) -> bool:
    """True iff d >= (s+2)r^2 and (d+1)(r-1) <= tverberg_N(r, d-s)."""
    _check(r >= 2 and d >= 1 and s >= 0, f"bad arguments ({r}, {d}, {s})")
    if d < (s + 2) * r * r:
        return False
    return classic_N(r, d) <= tverberg_N(r, d - s)

"""Integer certificates behind the degree bookkeeping.

Everything here is exact arbitrary-precision arithmetic: prime-power
detection, the gcd of C(r,1), ..., C(r,r-1), and Bezout-style
certificates writing -1 as an integer combination of those binomials.
Such a certificate exists exactly when r is not a prime power (the gcd
is 1 then), and it linearizes into an ordered plan of signed steps
whose running total starts at 1 and ends at the target 0.

Certificates come from one integral LLL reduction of the binomials, so
sum |a_k|, the plan length, is short (3 at r = 6, at most 98 for r <= 100)
but not always shortest (8 at r = 20, where 7 would do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "CertificateImpossibleError",
    "BezoutCertificate",
    "ModificationPlan",
    "is_prime_power",
    "binomial_gcd",
    "bezout_certificate",
    "certificate_to_plan",
]

# certificate_to_plan refuses certificates whose plan would be longer.
MAX_CERT_STEPS = 100000
# bezout_certificate refuses larger r before reducing: the exact LLL time
# grows steeply (1.3 s at r = 297, 3.3 s at r = 400, 2-core Xeon).
MAX_CERT_R = 300
# is_prime_power refuses larger r: trial division runs to sqrt(r), 0.14 s
# at the cap.
MAX_PRIME_POWER_R = 10 ** 12


class CertificateImpossibleError(ValueError):
    """Raised when no certificate exists: the binomial gcd exceeds 1."""

    def __init__(self, r: int, obstruction_gcd: int):
        self.r = r
        self.obstruction_gcd = obstruction_gcd
        super().__init__(
            f"no certificate for r={r}: gcd of C({r},1..{r - 1}) is "
            f"{obstruction_gcd}, so -1 is not an integer combination"
        )


def is_prime_power(r: int) -> Optional[tuple[int, int]]:
    """Return (p, m) with r = p**m and p prime, or None.

    Plain trial factorization, so r above MAX_PRIME_POWER_R is refused.
    """
    if r < 2:
        raise ValueError(f"prime-power test needs r >= 2, got {r}")
    if r > MAX_PRIME_POWER_R:
        raise ValueError(f"prime-power test refuses r={r}, beyond the cap "
                         f"MAX_PRIME_POWER_R = {MAX_PRIME_POWER_R}")
    d = 2
    while d * d <= r:
        if r % d == 0:
            m, n = 0, r
            while n % d == 0:
                n //= d
                m += 1
            return (d, m) if n == 1 else None
        d += 1
    return (r, 1)


def binomial_gcd(r: int) -> int:
    """gcd of C(r,k) for k = 1..r-1 (1 for r not a prime power, else p).

    Brute force over half the row; bezout_certificate reads the same fact
    from is_prime_power.
    """
    if r < 2:
        raise ValueError(f"binomial_gcd needs r >= 2, got {r}")
    g = 0
    # C(r,k) = C(r,r-k), so half the row determines the gcd
    for k in range(1, r // 2 + 1):
        g = math.gcd(g, math.comb(r, k))
        if g == 1:
            return 1
    return g


@dataclass(frozen=True)
class BezoutCertificate:
    """Integer weights a_1..a_{r-1} intended to satisfy sum a_k*C(r,k) = -1.

    Structural validity (length, integrality) is enforced here; the
    checksum itself is checked by :meth:`verify`, so demonstration
    objects with other checksums can still be turned into plans.
    """

    r: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"certificate needs r >= 2, got {self.r}")
        coeffs = tuple(int(a) for a in self.coeffs)
        if len(coeffs) != self.r - 1:
            raise ValueError(
                f"certificate for r={self.r} needs {self.r - 1} coefficients, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def checksum(self) -> int:
        return sum(a * math.comb(self.r, k) for k, a in enumerate(self.coeffs, 1))

    def verify(self) -> None:
        if self.checksum != -1:
            raise ValueError(f"certificate checksum is {self.checksum}, not -1")

    def to_json(self) -> dict:
        return {"r": self.r, "coeffs": [str(a) for a in self.coeffs]}


@dataclass(frozen=True)
class ModificationPlan:
    """Ordered signed steps (k, +-1); the running degree starts at 1.

    The target is 1 + sum sign*C(r,k); certificate plans target 0.
    """

    r: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"plan needs r >= 2, got {self.r}")
        steps = tuple((int(k), int(s)) for k, s in self.steps)
        for k, s in steps:
            if not 1 <= k <= self.r - 1:
                raise ValueError(f"plan step k={k} outside [1, {self.r - 1}]")
            if s not in (-1, 1):
                raise ValueError(f"plan step sign must be +-1, got {s}")
        object.__setattr__(self, "steps", steps)

    @property
    def deltas(self) -> tuple[int, ...]:
        return tuple(s * math.comb(self.r, k) for k, s in self.steps)

    @property
    def target(self) -> int:
        return 1 + sum(self.deltas)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "steps": [{"k": k, "sign": s} for k, s in self.steps],
            "target": self.target,
        }


def certificate_to_plan(cert: BezoutCertificate) -> ModificationPlan:
    """Linearize a certificate: |a_k| steps of sign(a_k) for each k.

    The target comes out as 1 + checksum, i.e. 0 for valid certificates
    and whatever the arithmetic says for demonstration coefficient sets.
    Certificates with sum |a_k| beyond MAX_CERT_STEPS are rejected.
    """
    total = sum(abs(a) for a in cert.coeffs)
    if total > MAX_CERT_STEPS:
        raise ValueError(
            f"certificate needs {total} steps, beyond the cap MAX_CERT_STEPS = "
            f"{MAX_CERT_STEPS}; it is still valid as a checksum"
        )
    steps = [(k, 1 if a > 0 else -1) for k, a in enumerate(cert.coeffs, 1) for _ in range(abs(a))]
    return ModificationPlan(cert.r, steps)


def _lll_reduce(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduce independent integer rows with delta = 3/4, in exact integers.

    Cohen, "A Course in Computational Algebraic Number Theory", Alg. 2.6.7:
    D[i] is the i-th Gram determinant and lam[k][j] = D[j+1] * mu_kj, both
    built incrementally, so every division below is exact.
    """
    b = [list(row) for row in rows]
    n = len(b)
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > D[l + 1]:
            q = (2 * lam[k][l] + D[l + 1]) // (2 * D[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * D[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]
    D[1] = sum(x * x for x in b[0])
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
                if j < k:
                    lam[k][j] = u
                else:
                    D[k + 1] = u
        reduce(k, k - 1)
        if 4 * D[k + 1] * D[k - 1] < 3 * D[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            la = lam[k][k - 1]
            B = (D[k - 1] * D[k + 1] + la * la) // D[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (D[k + 1] * lam[i][k - 1] - la * t) // D[k]
                lam[i][k - 1] = (B * t + la * lam[i][k]) // D[k + 1]
            D[k] = B
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


def bezout_certificate(r: int) -> BezoutCertificate:
    """A short certificate with checksum -1, or CertificateImpossibleError.

    Extended gcd by lattice reduction (Havas-Majewski-Matthews 1998): with
    m = r // 2 and W far above every short combination, the rows
    [e_i | W * C(r,i)], i = 1..m, reduce to m - 1 rows ending in 0 and one
    ending in +-W, whose first m entries combine the binomials to +-1.
    C(r,k) = C(r,r-k), so k > m gets weight 0.  Short is not always
    shortest: r = 20 gets sum |a_k| = 8, where 7 suffices.  A prime power
    p**m has binomial gcd p; r above MAX_CERT_R is refused.
    """
    pp = is_prime_power(r)  # raises ValueError for r < 2 or r > MAX_PRIME_POWER_R
    if pp:
        raise CertificateImpossibleError(r, pp[0])
    if r > MAX_CERT_R:
        raise ValueError(f"certificate for r={r} refused: lattice reduction beyond the cap "
                         f"MAX_CERT_R = {MAX_CERT_R}")
    m = r // 2
    W = 2 ** (2 * m + 8)
    rows = [[int(i == j) for j in range(m)] + [W * math.comb(r, i + 1)] for i in range(m)]
    for row in _lll_reduce(rows):
        if abs(row[-1]) == W:
            sign = -1 if row[-1] > 0 else 1
            cert = BezoutCertificate(r, tuple(sign * a for a in row[:-1]) + (0,) * (r - 1 - m))
            cert.verify()
            return cert
    raise AssertionError(f"lattice reduction for r={r} left no row ending in +-W")

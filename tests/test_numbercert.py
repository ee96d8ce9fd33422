import math

import numpy as np
import pytest

from tverberg.numbercert import (
    MAX_CERT_R,
    MAX_PRIME_POWER_R,
    BezoutCertificate,
    CertificateImpossibleError,
    ModificationPlan,
    bezout_certificate,
    binomial_gcd,
    certificate_to_plan,
    is_prime_power,
)


def pascal_row(n: int) -> list[int]:
    """Independent oracle: build C(n, .) by row additions only."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def shortest_certificate_length(r: int) -> int:
    """Oracle: fewest steps +-C(r,k) summing to -1, by BFS over partial sums.

    Partial sums stay within 2 * max C(r,k) without loss: any solution can be
    reordered to add a negative term when the sum is >= 0 and a positive one
    otherwise.
    """
    values = sorted({math.comb(r, k) for k in range(1, r)})
    moves = np.array(values + [-v for v in values])
    cap = 2 * values[-1]
    seen = np.zeros(2 * cap + 1, dtype=bool)
    seen[cap] = True
    frontier, depth = np.array([0]), 0
    while not seen[cap - 1]:
        reached = (frontier[:, None] + moves[None, :]).ravel()
        reached = reached[np.abs(reached) <= cap]
        frontier = np.unique(reached[~seen[reached + cap]])
        seen[frontier + cap] = True
        depth += 1
    return depth


def gcd_list(values) -> int:
    g = 0
    for v in values:
        a, b = g, v
        while b:
            a, b = b, a % b
        g = a
    return g


class TestIsPrimePower:
    def test_examples(self):
        assert is_prime_power(4) == (2, 2)
        assert is_prime_power(6) is None
        assert is_prime_power(12) is None

    def test_primes_and_powers(self):
        assert is_prime_power(2) == (2, 1)
        assert is_prime_power(17) == (17, 1)
        assert is_prime_power(27) == (3, 3)
        assert is_prime_power(1024) == (2, 10)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            is_prime_power(1)

    def test_refuses_beyond_the_cap_fast(self, deadline):
        with deadline(5):
            # the largest prime below the cap: trial division to 10**6
            assert is_prime_power(MAX_PRIME_POWER_R - 11) == (MAX_PRIME_POWER_R - 11, 1)
            assert is_prime_power(MAX_PRIME_POWER_R) is None
            with pytest.raises(ValueError, match="MAX_PRIME_POWER_R = 1000000000000"):
                is_prime_power(2 ** 61 - 1)  # a Mersenne prime

    def test_against_factorization_oracle(self):
        for r in range(2, 400):
            primes = set()
            n, d = r, 2
            while d * d <= n:
                while n % d == 0:
                    primes.add(d)
                    n //= d
                d += 1
            if n > 1:
                primes.add(n)
            expected = len(primes) == 1
            got = is_prime_power(r)
            assert (got is not None) == expected
            if got:
                p, m = got
                assert p ** m == r


class TestBinomialGcd:
    def test_examples(self):
        assert binomial_gcd(6) == 1
        assert binomial_gcd(4) == gcd_list([4, 6, 4]) == 2
        assert binomial_gcd(9) == gcd_list([9, 36, 84, 126, 126, 84, 36, 9]) == 3

    def test_brute_force_oracle(self):
        for r in range(2, 40):
            assert binomial_gcd(r) == gcd_list(pascal_row(r)[1:-1])

    def test_prime_power_equivalence(self):
        # gcd 1 iff not a prime power; gcd at a prime power p^m is p
        for r in range(2, 501):
            pp = is_prime_power(r)
            g = binomial_gcd(r)
            if pp is None:
                assert g == 1
            else:
                assert g == pp[0]


class TestBezoutCertificate:
    def test_r6_short_certificate(self):
        cert = bezout_certificate(6)
        assert cert.checksum == -1
        # -6 - 15 + 20 = -1, three steps, the fewest possible
        assert cert.coeffs == (-1, -1, 1, 0, 0)

    def test_prime_power_obstruction(self):
        with pytest.raises(CertificateImpossibleError) as err:
            bezout_certificate(4)
        assert err.value.obstruction_gcd == 2
        with pytest.raises(CertificateImpossibleError) as err:
            bezout_certificate(8)
        assert err.value.obstruction_gcd == 2
        with pytest.raises(CertificateImpossibleError) as err:
            bezout_certificate(9)
        assert err.value.obstruction_gcd == 3

    @pytest.mark.parametrize("r, p", [(10007, 10007), (1000000007, 1000000007), (3 ** 25, 3)])
    def test_large_prime_power_obstruction_is_fast(self, r, p, deadline):
        with deadline(5), pytest.raises(CertificateImpossibleError) as err:
            bezout_certificate(r)
        assert err.value.obstruction_gcd == p

    @pytest.mark.parametrize("r", [MAX_CERT_R + 1, 1002, 10 ** 12])
    def test_refuses_beyond_the_cap_before_reducing(self, r, deadline):
        with deadline(5), pytest.raises(ValueError, match=f"MAX_CERT_R = {MAX_CERT_R}"):
            bezout_certificate(r)

    def test_r12(self):
        cert = bezout_certificate(12)
        assert cert.r == 12
        assert cert.checksum == -1

    def test_all_non_prime_powers_to_100(self):
        for r in range(2, 101):
            if is_prime_power(r) is None:
                cert = bezout_certificate(r)
                assert cert.checksum == -1
                assert sum(abs(a) for a in cert.coeffs) <= 98
                assert 1 + sum(certificate_to_plan(cert).deltas) == 0

    @pytest.mark.parametrize("r", [6, 10, 12, 14, 15])
    def test_shortest_where_the_oracle_reaches(self, r):
        cert = bezout_certificate(r)
        assert sum(abs(a) for a in cert.coeffs) == shortest_certificate_length(r)

    def test_oracle_sees_a_shorter_certificate_at_r20(self):
        # the reduction is short, not always shortest
        assert shortest_certificate_length(20) == 7
        assert sum(abs(a) for a in bezout_certificate(20).coeffs) == 8

    @pytest.mark.parametrize("r, bound", [(22, 17), (24, 8), (30, 9)])
    def test_short_at_larger_r(self, r, bound):
        assert sum(abs(a) for a in bezout_certificate(r).coeffs) <= bound

    def test_weights_only_on_the_first_half(self):
        for r in (10, 12, 22, 30):
            assert not any(bezout_certificate(r).coeffs[r // 2:])

    def test_deterministic(self):
        assert bezout_certificate(30).coeffs == bezout_certificate(30).coeffs

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            BezoutCertificate(6, (1, 2))  # wrong length
        with pytest.raises(ValueError):
            bezout_certificate(1)

    def test_json_coefficients_are_strings(self):
        cert = bezout_certificate(12)
        obj = cert.to_json()
        assert obj["r"] == 12 and tuple(int(s) for s in obj["coeffs"]) == cert.coeffs
        assert all(isinstance(s, str) for s in obj["coeffs"])


class TestModificationPlan:
    def test_certificate_plan_r6(self):
        plan = certificate_to_plan(bezout_certificate(6))
        assert plan.steps == ((1, -1), (2, -1), (3, 1))
        assert plan.target == 0
        assert 1 + sum(plan.deltas) == 0

    def test_demo_plan_not_a_certificate(self):
        # r=2 with coefficient -1: one minus step, target 1 - 2 = -1
        plan = certificate_to_plan(BezoutCertificate(2, (-1,)))
        assert plan.steps == ((1, -1),)
        assert plan.target == -1

    def test_zero_coefficients_give_identity_plan(self):
        plan = certificate_to_plan(BezoutCertificate(2, (0,)))
        assert plan.steps == ()
        assert plan.target == 1

    def test_round_trip_reproduces_checksum(self):
        for r in (6, 10, 12, 30):
            cert = bezout_certificate(r)
            assert cert.checksum == -1
            plan = certificate_to_plan(cert)
            assert sum(plan.deltas) == cert.checksum == -1

    def test_huge_certificates_refuse_to_linearize(self):
        # the r = 6 certificate plus 60,000 times the kernel vector (1, 0, 0, 0, -1)
        cert = BezoutCertificate(6, (59999, -1, 1, 0, -60000))
        assert cert.checksum == -1
        assert sum(abs(a) for a in cert.coeffs) == 120001
        with pytest.raises(ValueError, match="120001 steps"):
            certificate_to_plan(cert)

    def test_target_consistency_enforced(self):
        # the target is derived from the steps and cannot be declared
        assert ModificationPlan(2, ((1, -1),)).target == -1
        assert ModificationPlan(6, [(1, -1), (2, -1), (3, 1)]).target == 0
        with pytest.raises(TypeError):
            ModificationPlan(2, ((1, -1),), target=0)
        with pytest.raises(ValueError):
            ModificationPlan(6, ((7, 1),))  # k out of range
        with pytest.raises(ValueError):
            ModificationPlan(6, ((1, 2),))  # bad sign

    def test_json_lists_steps_and_target(self):
        plan = certificate_to_plan(bezout_certificate(6))
        assert plan.to_json() == {"r": 6, "target": 0, "steps": [
            {"k": 1, "sign": -1}, {"k": 2, "sign": -1}, {"k": 3, "sign": 1}]}

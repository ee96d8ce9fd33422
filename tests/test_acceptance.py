"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
budgets are asserted as hard wall-clock bounds.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from tverberg import bounds as bd
from tverberg import circle as ci
from tverberg import complexes as cx
from tverberg import eqmaps as eq
from tverberg import numbercert as nc
from tverberg import plmaps as pl
from tverberg.cli import main as cli_main


def report(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:2d}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.2f}s >= {budget}s"


def orient(p, q, r):
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (val > 0) - (val < 0)


def segments_cross(p, q, r, s):
    d1, d2 = orient(r, s, p), orient(r, s, q)
    d3, d4 = orient(p, q, r), orient(p, q, s)
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


def test_criterion_1_bounds_reproduction(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bounds", "--r", "6", "--d", "54"])
    out_54 = json.loads(capsys.readouterr().out)["outputs"]
    code2 = cli_main(["bounds", "--r", "6", "--d", "55"])
    out_55 = json.loads(capsys.readouterr().out)["outputs"]
    ca = bd.corollary_a_check(6, 8)
    ok = (
        code == 0 and code2 == 0
        and out_54["tverberg_N"] == 280
        and out_54["classic_N"] == 275
        and out_55["classic_N"] == 280
        and (ca.d, ca.target_dim, ca.N) == (55, 54, 280)
    )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, "bound table reproduces the r=6 landmark values", ok, elapsed, 1.0)


def test_criterion_2_decomposition_sweep():
    t0 = time.perf_counter()
    ok = True
    for r in range(2, 51):
        for d in range(3, 1001):
            dec = bd.theorem1_decomposition(r, d)  # raises on inconsistency
            if dec.N != bd.tverberg_N(r, d):
                ok = False
    report(2, "decomposition consistent for 2<=r<=50, 3<=d<=1000",
           ok, time.perf_counter() - t0, 10.0)


def test_criterion_3_gcd_certificates():
    t0 = time.perf_counter()
    ok = True
    for r in range(2, 501):
        if (nc.binomial_gcd(r) == 1) != (nc.is_prime_power(r) is None):
            ok = False
    for r in range(2, 101):
        if nc.is_prime_power(r) is None:
            if nc.bezout_certificate(r).checksum != -1:
                ok = False
    report(3, "gcd=1 iff not a prime power; certificates checksum -1",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_4_radon_oracle():
    t0 = time.perf_counter()
    K = cx.simplex_skeleton(3, 3)
    ok = True
    for seed in range(100):
        f = pl.random_rational_map(K, 2, seed)
        verdict = pl.almost_r_embedding_check(f, 2)
        if verdict.passed:
            ok = False
            break
        verdict.witness.verify(f)
    report(4, "100 random planar 4-point maps all fail r=2 with verified witness",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_5_tverberg_r3_oracle():
    t0 = time.perf_counter()
    K = cx.simplex_skeleton(6, 6)
    ok = True
    for seed in range(25):
        f = pl.random_rational_map(K, 2, seed)
        verdict = pl.almost_r_embedding_check(f, 3)
        if verdict.passed:
            ok = False
            break
        verdict.witness.verify(f)
    report(5, "25 random planar 7-point maps all fail r=3",
           ok, time.perf_counter() - t0, 120.0)


def test_criterion_6_k5_oracle():
    t0 = time.perf_counter()
    K5 = cx.simplex_skeleton(4, 1)
    edges = [f for f in K5.faces() if len(f) == 2]
    ok = True
    for seed in range(50):
        f = pl.random_rational_map(K5, 2, seed)
        verdict = pl.almost_r_embedding_check(f, 2)
        pts = f.coords
        oracle_pairs = {
            frozenset((a, b))
            for a, b in itertools.combinations(edges, 2)
            if not set(a) & set(b)
            and segments_cross(pts[a[0]], pts[a[1]], pts[b[0]], pts[b[1]])
        }
        if verdict.passed or not oracle_pairs:
            ok = False
            break
        faces = verdict.witness.faces
        if frozenset(faces) not in oracle_pairs:
            ok = False
            break
    report(6, "50 straight-line K5 drawings: checker and segment oracle agree",
           ok, time.perf_counter() - t0, 10.0)


def test_criterion_7_join_preservation():
    t0 = time.perf_counter()
    K = cx.simplex_skeleton(2, 2)
    f = pl.random_rational_map(K, 2, 101)
    g = pl.random_rational_map(K, 2, 202)
    ok = (
        pl.almost_r_embedding_check(f, 2).passed
        and pl.almost_r_embedding_check(g, 2).passed
    )
    j = pl.join_maps(f, g)
    ok = ok and j.d == 5 and j.complex == cx.simplex_skeleton(5, 5)
    ok = ok and pl.almost_r_embedding_check(j, 2).passed
    report(7, "join of verified almost-2-embeddings passes on the 5-simplex",
           ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_circle_degrees():
    t0 = time.perf_counter()
    ok = ci.winding_number(ci.build_circle_map(nc.ModificationPlan(2, ()))[0]) == 1
    for steps, expected in (
        (((1, -1),), -1),
        (((1, 1),), 3),
        (((1, -1), (1, -1)), -3),
    ):
        plan = nc.ModificationPlan(2, steps)
        circle_map, ledger = ci.build_circle_map(plan)
        w = ci.winding_number(circle_map)
        ok = ok and w == expected == ledger.final
    report(8, "circle windings 1, -1, 3, -3 match the +-C(2,1) ledger",
           ok, time.perf_counter() - t0, 5.0)


def test_criterion_9_degree_zero_r6():
    t0 = time.perf_counter()
    plan = nc.certificate_to_plan(nc.bezout_certificate(6))
    layer, ledger = eq.build_from_plan(plan)
    ok = ledger.running == (1, -5, -20, 0) and ledger.final == 0

    residual = eq.verify_equivariance(layer, samples=10000, seed=42)
    ok = ok and residual < 1e-9

    total_centers = 0
    for step in layer.chain():
        node = step.node
        vals = eq._homotopy(step, node.centers, np.full(len(node.centers), 0.5))
        ok = ok and float(eq._frob(vals).max()) < 1e-9
        total_centers += len(node.centers)
    ok = ok and total_centers == 41

    sign_count = 0
    for step in layer.chain():
        rep = eq.verify_local_degrees(step)
        sign_count += len(rep.delta_signs)
        ok = ok and rep.consistent and rep.matches_ledger
    ok = ok and sign_count == 41
    for k in (1, 2, 3):
        minus, plus = (eq.verify_local_degrees(eq.build_from_plan(
            nc.ModificationPlan(6, ((k, sign),)))[0]) for sign in (-1, 1))
        ok = ok and minus.delta_signs[0] == -plus.delta_signs[0]

    searches = eq.verify_no_spurious_zeros(layer, samples=100000, seed=42)
    ok = ok and len(searches) == 3 and all(search.minimum > 1e-3 for search in searches)
    report(9, "r=6 degree-zero map: ledger 0, equivariant, clean zero structure",
           ok, time.perf_counter() - t0, 600.0)


def test_criterion_10_deleted_product_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(97)
    suite = [cx.simplex_skeleton(N, k) for N in range(1, 6) for k in range(N + 1)]
    for n in (3, 4, 5, 6):
        for _ in range(5):
            count = rng.randint(1, 6)
            faces = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(count)]
            suite.append(cx.SimplicialComplex.from_faces(n, faces))
    ok = True
    for K in suite:
        if K.num_vertices > 6:
            continue
        for r in (2, 3):
            brute = []
            for combo in itertools.product(K.faces(), repeat=r):
                used = set()
                good = True
                for face in combo:
                    if used & set(face):
                        good = False
                        break
                    used |= set(face)
                if good:
                    brute.append(combo)
            # Burnside: free iff the ordered tuples fill orbits of r! each
            if len(brute) != math.factorial(r) * cx.count_face_combinations(K, r):
                ok = False
            # the walker ranks every unordered tuple at its place in increasing face index
            unordered = [t for t in itertools.combinations(K.faces(), r)
                         if len(set().union(*t)) == sum(map(len, t))]
            if any(cx.count_face_combinations(K, r, before=t) != i for i, t in enumerate(unordered)):
                ok = False
    report(10, "disjoint-tuple walker's count and ranks equal brute force; action free",
           ok, time.perf_counter() - t0, 30.0)


def test_criterion_11_asymptotic_comparison():
    t0 = time.perf_counter()
    n = bd.tverberg_N(6, 699)
    est = bd.frick_F_estimate(6, 699).value
    classic = bd.classic_N(6, 699)
    ok = n == 3592 and est == 3550 and classic == 3500 and n > est > classic
    report(11, "at (r,d)=(6,699): 3592 > 3550 > 3500", ok,
           time.perf_counter() - t0, 1.0)

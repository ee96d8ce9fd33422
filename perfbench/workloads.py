"""Seeded inputs, operations and correctness oracles of the four workloads.

Nothing here imports the program: inputs are drawn with the standard
library, and every oracle recomputes what it checks in plain integer or
``Fraction`` arithmetic, so a change to the program can change neither
the inputs nor the verdict on its outputs.

An operation is one ``tverberg`` command.  Its judge receives the exit
code, the parsed JSON report and the reports of the operations before it
in the same pass, and returns the list of problems it found; an empty
list means the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 1

# The recipe of tverberg.plmaps.random_rational_map: n/DENOMINATOR with
# |n| <= SPAN*DENOMINATOR, redrawn until the images are in general position.
DENOMINATOR = 4096
SPAN = 4
# Seeds other than the default move every numerator of the default
# instance by at most JITTER.  Fresh draws change the number of tuples
# that reach the LP by up to 2x (2.6-5.0 s for the full scan over eleven
# seeds), which no run short enough for the benchmark's time budget can
# average out; a small move gives distinct exact inputs with the same
# amount of work.
JITTER = 8

Judge = Callable[[int, dict, dict], list]

# Operation labels.  Each check operation must reach its verdict on every
# seed: True is PASS, False is FAIL.
CHECK_VERDICTS = {"check_pass": True, "check_maximal": True, "check_fail": False}
LABELS = (*CHECK_VERDICTS, "eqmap_verify", "eqmap_winding", "delprod")


@dataclass(frozen=True)
class Op:
    """One CLI call: its label, the arguments after ``tverberg``, its judge."""

    label: str
    args: tuple
    judge: Judge


@dataclass(frozen=True)
class Plan:
    """The operations of one pass and the digests of their inputs."""

    ops: tuple
    inputs: dict


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _write_json(path: Path, payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    path.write_bytes(blob)
    return sha256_bytes(blob)


def _expect_exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def ordered_tuple_count(n_vertices: int, sizes) -> int:
    """Ordered tuples of disjoint faces with the given vertex counts.

    (N+1)! / ((N+1 - sum s)! * prod s_i!) with N+1 = n_vertices.
    """
    used = sum(sizes)
    if used > n_vertices:
        return 0
    out = math.factorial(n_vertices) // math.factorial(n_vertices - used)
    for s in sizes:
        out //= math.factorial(s)
    return out


def _size_vectors(k: int, r: int):
    return itertools.product(range(1, k + 2), repeat=r)


def cells_by_dim(N: int, k: int, r: int) -> dict:
    """Cells of the r-fold deleted product of the k-skeleton of the N-simplex."""
    out: dict = {}
    for sizes in _size_vectors(k, r):
        count = ordered_tuple_count(N + 1, sizes)
        if count:
            dim = sum(s - 1 for s in sizes)
            out[dim] = out.get(dim, 0) + count
    return out


def unordered_tuple_count(N: int, k: int, r: int, maximal_only: bool) -> int:
    """Unordered disjoint r-tuples of faces of the k-skeleton of the N-simplex.

    A tuple is inclusion-maximal when no face can take a free vertex:
    every face is already a (k+1)-set, or no vertex is left free.
    """
    total = 0
    for sizes in _size_vectors(k, r):
        if maximal_only and not (sum(sizes) == N + 1 or all(s == k + 1 for s in sizes)):
            continue
        total += ordered_tuple_count(N + 1, sizes)
    return total // math.factorial(r)


# ---------------------------------------------------------------------------
# Seeded maps
# ---------------------------------------------------------------------------

def _rank(rows: list) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_general_position(coords: list, d: int) -> bool:
    """No d+1 of the points are affinely dependent."""
    size = min(len(coords), d + 1)
    for sub in itertools.combinations(coords, size):
        base = sub[0]
        rows = [[p[i] - base[i] for i in range(d)] for p in sub[1:]]
        if rows and _rank(rows) < len(rows):
            return False
    return True


def draw_numerators(n_vertices: int, d: int, seed: int) -> list:
    """random_rational_map's draw, as numerators over DENOMINATOR."""
    rng = random.Random(seed)
    lim = SPAN * DENOMINATOR
    while True:
        nums = [[rng.randint(-lim, lim) for _ in range(d)] for _ in range(n_vertices)]
        if n_vertices > 12 or in_general_position(_as_points(nums), d):
            return nums


def jitter_numerators(base: list, d: int, seed: int) -> list:
    rng = random.Random(seed)
    lim = SPAN * DENOMINATOR
    while True:
        nums = [[max(-lim, min(lim, n + rng.randint(-JITTER, JITTER))) for n in pt] for pt in base]
        if len(nums) > 12 or in_general_position(_as_points(nums), d):
            return nums


def _as_points(nums: list) -> list:
    return [tuple(Fraction(n, DENOMINATOR) for n in pt) for pt in nums]


def map_numerators(n_vertices: int, d: int, seed: int) -> list:
    base = draw_numerators(n_vertices, d, DEFAULT_SEED)
    if seed == DEFAULT_SEED:
        return base
    return jitter_numerators(base, d, seed)


def map_json(nums: list, d: int) -> dict:
    return {
        "d": d,
        "coords": {
            str(v): [str(Fraction(n, DENOMINATOR)) for n in pt] for v, pt in enumerate(nums)
        },
    }


def skeleton_json(N: int, k: int) -> dict:
    return {
        "num_vertices": N + 1,
        "maximal_faces": [list(f) for f in itertools.combinations(range(N + 1), k + 1)],
    }


# ---------------------------------------------------------------------------
# Workload: check
# ---------------------------------------------------------------------------

def witness_problems(witness: dict, points: list, k: int, r: int) -> list:
    """Re-verify a checker witness against our own copy of the map."""
    try:
        faces = [tuple(int(v) for v in f) for f in witness["faces"]]
        point = tuple(Fraction(x) for x in witness["point"])
        weights = [[Fraction(x) for x in w] for w in witness["barycentric"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed witness: {exc!r}"]
    if len(faces) != r:
        return [f"witness has {len(faces)} faces, expected {r}"]
    if len(point) != len(points[0]):
        return [f"witness point {point} does not lie in R^{len(points[0])}"]
    problems = []
    used: set = set()
    for face in faces:
        if not face or list(face) != sorted(set(face)) or len(face) > k + 1:
            problems.append(f"{face} is not a face of the {k}-skeleton")
        elif face[0] < 0 or face[-1] >= len(points):
            problems.append(f"{face} has vertices outside the complex")
        elif used & set(face):
            problems.append(f"faces {faces} are not pairwise disjoint")
        used |= set(face)
    if problems:
        return problems
    if len(weights) != len(faces):
        return ["one weight vector per face required"]
    for face, w in zip(faces, weights):
        if len(w) != len(face) or any(x < 0 for x in w) or sum(w) != 1:
            problems.append(f"weights {w} on {face} are not barycentric")
            continue
        image = tuple(sum(wi * points[v][i] for wi, v in zip(w, face)) for i in range(len(point)))
        if image != point:
            problems.append(f"face {face} does not reach the witness point")
    return problems


def _check_judge(points: list, N: int, k: int, r: int, maximal_only: bool,
                 want: bool, expected: Optional[dict]) -> Judge:
    def judge(code: int, report: dict, earlier: dict) -> list:
        out = report.get("outputs", {})
        passed = out.get("passed")
        if not isinstance(passed, bool):
            return ["report has no boolean verdict"]
        problems = _expect_exit(code, 0 if passed else 1)
        if passed != want:
            problems.append(f"verdict {'PASS' if passed else 'FAIL'}, the workload requires "
                            f"{'PASS' if want else 'FAIL'}")
        witness = out.get("witness")
        checked = out.get("tuples_checked")
        if passed:
            if witness is not None:
                problems.append("PASS verdict carries a witness")
            total = unordered_tuple_count(N, k, r, maximal_only)
            if checked != total:
                problems.append(f"PASS after {checked} tuples, the closed form gives {total}")
        elif witness is None:
            problems.append("FAIL verdict without a witness")
        else:
            problems += witness_problems(witness, points, k, r)
        if expected is not None:
            got = {key: out.get(key) for key in expected}
            if got != expected:
                problems.append(f"default-seed outputs {got} differ from the recorded {expected}")
        return problems
    return judge


CHECK_FULL = {"N": 9, "k": 2, "r": 3, "d_pass": 5, "d_fail": 3}
CHECK_SMOKE = {"N": 4, "k": 1, "r": 2, "d_pass": 3, "d_fail": 2}


def check_plan(seed: int, workdir: Path, smoke: bool, expected: dict) -> Plan:
    """Three checker calls: full scan, maximal-only on the same map, failing map.

    On every seed the first two must PASS and the third must FAIL, so the
    full and maximal-only verdicts agree; on the default seed the outputs
    must equal the recorded ones.
    """
    p = CHECK_SMOKE if smoke else CHECK_FULL
    N, k, r = p["N"], p["k"], p["r"]
    complex_path = workdir / "complex.json"
    inputs = {"complex.json": _write_json(complex_path, skeleton_json(N, k))}
    recorded = expected.get("check", {}) if seed == DEFAULT_SEED and not smoke else {}
    nums = {}
    for d in (p["d_pass"], p["d_fail"]):
        nums[d] = map_numerators(N + 1, d, seed)
        inputs[f"map_d{d}.json"] = _write_json(workdir / f"map_d{d}.json", map_json(nums[d], d))
    ops = []
    for label, extra in zip(CHECK_VERDICTS, ((), ("--maximal-only",), ())):
        want = CHECK_VERDICTS[label]
        d = p["d_pass"] if want else p["d_fail"]
        args = ("check", "--complex", str(complex_path), "--map", str(workdir / f"map_d{d}.json"),
                "--r", str(r)) + extra
        judge = _check_judge(_as_points(nums[d]), N, k, r, bool(extra), want, recorded.get(label))
        ops.append(Op(label, args, judge))
    return Plan(tuple(ops), inputs)


# ---------------------------------------------------------------------------
# Workload: spheremap
# ---------------------------------------------------------------------------

def ledger_running(r: int, steps) -> list:
    running = [1]
    for k, sign in steps:
        running.append(running[-1] + sign * math.comb(r, k))
    return running


def _ledger_problems(ledger: dict, r: int, steps) -> list:
    want = ledger_running(r, steps)
    got = ledger.get("running") if isinstance(ledger, dict) else None
    return [] if got == want else [f"ledger running {got}, expected {want}"]


def _spheremap_judge(r: int, steps) -> Judge:
    def judge(code: int, report: dict, earlier: dict) -> list:
        out = report.get("outputs", {})
        problems = _expect_exit(code, 0)
        if report.get("flags", {}).get("pass") is not True:
            problems.append("flags.pass is not true")
        problems += _ledger_problems(out.get("ledger"), r, steps)
        got_steps = [(s.get("k"), s.get("sign")) for s in out.get("map", {}).get("steps", [])]
        if got_steps != list(steps):
            problems.append(f"plan steps {got_steps}, expected {list(steps)}")
        local = out.get("local_degrees", [])
        if len(local) != len(steps):
            problems.append(f"{len(local)} local-degree reports for {len(steps)} steps")
        for (k, sign), rep in zip(steps, local):
            if rep.get("k") != k or set(rep.get("delta_signs", [])) != {sign}:
                problems.append(f"local degrees {rep} do not show sign {sign} at k={k}")
        return problems
    return judge


# `eqmap verify --plan auto` at r = 6 realizes the certificate
# -C(6,1) - C(6,2) + C(6,3) = -1 as these steps.
SPHEREMAP_FULL = {"r": 6, "plan": "auto", "steps": ((1, -1), (2, -1), (3, 1)), "samples": 10000}
SPHEREMAP_SMOKE = {"r": 2, "plan": "1:-", "steps": ((1, -1),), "samples": 50}


def spheremap_plan(seed: int, workdir: Path, smoke: bool, expected: dict) -> Plan:
    """One `eqmap verify`, with the CLI sample seed pinned to the default.

    The spurious-zero search runs a fixed number of Nelder-Mead starts
    whose cost depends on the sample seed (12.9-16.2 s over five seeds),
    so the workload seed is not passed on.
    """
    p = SPHEREMAP_SMOKE if smoke else SPHEREMAP_FULL
    args = ("eqmap", "verify", "--r", str(p["r"]), "--plan", p["plan"],
            "--samples", str(p["samples"]), "--seed", str(DEFAULT_SEED))
    inputs = {"argv": sha256_bytes(" ".join(args).encode())}
    return Plan((Op("eqmap_verify", args, _spheremap_judge(p["r"], p["steps"])),), inputs)


# ---------------------------------------------------------------------------
# Workload: winding
# ---------------------------------------------------------------------------

def _winding_judge(steps) -> Judge:
    def judge(code: int, report: dict, earlier: dict) -> list:
        out = report.get("outputs", {})
        problems = _expect_exit(code, 0)
        want = 1 + sum(2 * sign for _, sign in steps)  # odd: 1 plus signs * C(2,1)
        got = out.get("winding")
        if got != want:
            problems.append(f"winding {got}, expected {want}")
        if out.get("agrees_with_ledger") is not True:
            problems.append("winding disagrees with the ledger")
        problems += _ledger_problems(out.get("ledger"), 2, steps)
        return problems
    return judge


def winding_plan(seed: int, workdir: Path, smoke: bool, expected: dict) -> Plan:
    """Every sign pattern of four k=1 steps at r=2, in a seeded order."""
    length = 1 if smoke else 4
    patterns = list(itertools.product((-1, 1), repeat=length))
    random.Random(seed).shuffle(patterns)
    ops = []
    for signs in patterns:
        steps = tuple((1, s) for s in signs)
        text = ",".join(f"1:{'+' if s > 0 else '-'}" for s in signs)
        ops.append(Op("eqmap_winding", ("eqmap", "winding", "--r", "2", "--plan", text),
                      _winding_judge(steps)))
    order = " ".join(" ".join(op.args) for op in ops)
    return Plan(tuple(ops), {"argv": sha256_bytes(order.encode())})


# ---------------------------------------------------------------------------
# Workload: delprod
# ---------------------------------------------------------------------------

def _delprod_judge(N: int, k: int, r: int) -> Judge:
    want = {str(dim): n for dim, n in sorted(cells_by_dim(N, k, r).items())}

    def judge(code: int, report: dict, earlier: dict) -> list:
        out = report.get("outputs", {})
        problems = _expect_exit(code, 0)
        if out.get("cells_by_dim") != want:
            problems.append(f"cells_by_dim {out.get('cells_by_dim')}, closed form {want}")
        if out.get("dimension") != max(int(d) for d in want):
            problems.append(f"dimension {out.get('dimension')} is not the top cell dimension")
        if out.get("free_action") is not True:
            problems.append("free_action is not true")
        return problems
    return judge


DELPROD_FULL = (9, 2, 3)
DELPROD_SMOKE = (4, 1, 2)


def delprod_plan(seed: int, workdir: Path, smoke: bool, expected: dict) -> Plan:
    """`delprod --N 9 --k 2 --r 3`: 358,980 ordered tuples, fixed input."""
    N, k, r = DELPROD_SMOKE if smoke else DELPROD_FULL
    args = ("delprod", "--N", str(N), "--k", str(k), "--r", str(r))
    return Plan((Op("delprod", args, _delprod_judge(N, k, r)),),
                {"argv": sha256_bytes(" ".join(args).encode())})


# ---------------------------------------------------------------------------
# Set-up probe
# ---------------------------------------------------------------------------

SETUP_R, SETUP_D = 6, 54
SETUP_ARGS = ("bounds", "--r", str(SETUP_R), "--d", str(SETUP_D))


def setup_judge(code: int, report: dict, earlier: dict) -> list:
    """tverberg_N = (d+1)r - r*ceil((d+2)/(r+1)) - 2 and classic_N = (d+1)(r-1)."""
    r, d = SETUP_R, SETUP_D
    out = report.get("outputs", {})
    problems = _expect_exit(code, 0)
    want_n = (d + 1) * r - r * -(-(d + 2) // (r + 1)) - 2
    if out.get("tverberg_N") != want_n or out.get("classic_N") != (d + 1) * (r - 1):
        problems.append(f"bounds report N={out.get('tverberg_N')}, classic={out.get('classic_N')}")
    return problems


PLANS = {
    "check": check_plan,
    "spheremap": spheremap_plan,
    "winding": winding_plan,
    "delprod": delprod_plan,
}

"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the seeded draw is random_rational_map's recipe, that
the closed forms give the counts quoted in README.md, that a corrupted
output is counted as a failed operation, and that a smoke run prints
every metric that BENCHMARK.json declares, with its unit.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import run
import workloads as wl

FAILURES: list = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        FAILURES.append(message)
        print(f"FAIL {message}")


def test_recipe() -> None:
    sys.path.insert(0, str(run.SRC))
    from tverberg.complexes import simplex_skeleton
    from tverberg.plmaps import random_rational_map

    K = simplex_skeleton(9, 2)
    for seed in (1, 2, 3):
        for d in (3, 5):
            theirs = random_rational_map(K, d, seed).to_json()
            ours = wl.map_json(wl.draw_numerators(10, d, seed), d)
            expect(theirs == ours, f"draw for seed {seed}, d={d} differs from random_rational_map")
    base = wl.draw_numerators(10, 5, wl.DEFAULT_SEED)
    moved = wl.map_numerators(10, 5, 2)
    expect(moved != base and all(abs(a - b) <= wl.JITTER for p, q in zip(base, moved)
                                 for a, b in zip(p, q)), "seed 2 is not a small move of seed 1")


def test_closed_forms() -> None:
    expect(wl.unordered_tuple_count(9, 2, 3, False) == 59830, "full tuple count")
    expect(wl.unordered_tuple_count(9, 2, 3, True) == 2800, "maximal tuple count")
    expect(sum(wl.cells_by_dim(9, 2, 3).values()) == 358980, "deleted product cell count")
    expect(wl.ledger_running(6, ((1, -1), (2, -1), (3, 1))) == [1, -5, -20, 0], "r=6 ledger")


def _perturb_weight(report: dict) -> None:
    weights = report["outputs"]["witness"]["barycentric"][0]
    weights[0] = str(Fraction(weights[0]) + Fraction(1, 1000))


def _off_by_one_cell(report: dict) -> None:
    cells = report["outputs"]["cells_by_dim"]
    key = next(iter(cells))
    cells[key] += 1


def _shift_winding(report: dict) -> None:
    report["outputs"]["winding"] += 2


def _break_ledger(report: dict) -> None:
    report["outputs"]["ledger"]["running"][-1] += 1


def _flip_verdict(report: dict) -> None:
    report["outputs"]["passed"] = not report["outputs"]["passed"]


def _false_pass(report: dict) -> None:
    """A consistent PASS, with the full tuple count, where FAIL is required."""
    p = wl.CHECK_SMOKE
    report["outputs"].update(passed=True, witness=None, tuples_checked=wl.unordered_tuple_count(
        p["N"], p["k"], p["r"], False))


def _miscount_tuples(report: dict) -> None:
    report["outputs"]["tuples_checked"] -= 1


def _wrong_bound(report: dict) -> None:
    report["outputs"]["tverberg_N"] += 1


# (workload, operation label, corruption)
CORRUPTIONS = (
    ("check", "check_fail", _perturb_weight),
    ("check", "check_pass", _miscount_tuples),
    ("check", "check_maximal", _flip_verdict),
    ("delprod", "delprod", _off_by_one_cell),
    ("winding", "eqmap_winding", _shift_winding),
    ("spheremap", "eqmap_verify", _break_ledger),
    (None, "setup", _wrong_bound),
)


def test_corrupted_outputs(workdir: Path) -> None:
    """Each corruption turns a passing operation into a failed one."""
    runner = run.Runner(workdir, time.monotonic() + 120.0)
    plans = {name: make(wl.DEFAULT_SEED, workdir, True, {}) for name, make in wl.PLANS.items()}
    plans[None] = wl.Plan((wl.Op("setup", wl.SETUP_ARGS, wl.setup_judge),), {})
    for name, label, corrupt in CORRUPTIONS:
        earlier: dict = {}
        for op in plans[name].ops:
            if op.label == label:
                clean = runner.run(op, earlier)
                expect(not clean.problems, f"{label} fails before corruption: {clean.problems}")

                def corrupted_judge(code, report, before, judge=op.judge):
                    report = copy.deepcopy(report)
                    corrupt(report)
                    return judge(code, report, before)

                bad = runner.run(wl.Op(label, op.args, corrupted_judge), earlier)
                expect(bool(bad.problems), f"{corrupt.__name__} on {label} was not caught")
                break
            earlier[op.label] = runner.run(op, earlier).report
    check_pass = next(op for op in plans["check"].ops if op.label == "check_pass")
    report = runner.run(check_pass, {}).report
    expect(bool(check_pass.judge(1, report, {})), "a PASS report with exit code 1 was not caught")
    check_fail = next(op for op in plans["check"].ops if op.label == "check_fail")
    report = runner.run(check_fail, {}).report
    _false_pass(report)
    expect(bool(check_fail.judge(0, report, {})), "a PASS where FAIL is required was not caught")


def test_smoke(root: Path) -> None:
    """A tiny run of every workload prints every declared metric with its unit."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
             "--seconds", "0", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=600)
        expect(proc.returncode == 0, f"smoke run (trace {trace}) exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"smoke run (trace {trace}) is not correct: {proc.stdout[-2000:]}")
        for name in wl.PLANS:
            for metric in declared[key]:
                got = result.get("metrics", {}).get(f"{name}.{metric['name']}", {})
                expect(got.get("unit") == metric["unit"],
                       f"{name} {key} metric {metric['name']} missing or has unit {got.get('unit')}")
        if trace == 0:
            printed = "\n".join(lines[:-1])
            for metric in (*declared[key], {"name": "error_rate"}):
                expect(metric["name"] in printed, f"table does not print {metric['name']}")


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        test_recipe()
        test_closed_forms()
        test_corrupted_outputs(workdir)
        test_smoke(run.ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end with JSON reports and reproducible seeds.

Each subcommand returns its inputs, outputs and verdict, and main emits
one RunReport JSON object on stdout: the argument list as given, a
digest of the inputs, the outputs, timings, and pass/fail flags.  Exit
codes: 0 all requested checks pass, 1 a verdict failed, 2 invalid
input, 3 numerical degeneracy.  Exact rational values are serialized as
strings, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from typing import Optional

from . import NumericalDegeneracyError
from . import bounds as bd
from . import circle as ci
from . import complexes as cx
from . import eqmaps as eq
from . import numbercert as nc
from . import plmaps as pl

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _read_json(path: str) -> tuple[object, str]:
    """The parsed UTF-8 JSON of a file and the SHA-256 of its bytes."""
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        obj = json.loads(blob.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return obj, hashlib.sha256(blob).hexdigest()


def _emit(report: dict, sink=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if sink is not None:  # the open --json file; the report replaces its contents
        sink.truncate(0)
        sink.write(text + "\n")


def _failure(error) -> dict:
    return {"error": str(error), "flags": {"pass": False}}


# ---------------------------------------------------------------------------
# Subcommands: each returns its inputs (for the digest), outputs and verdict
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> tuple[dict, dict, bool]:
    r, d = args.r, args.d
    outputs: dict = {"r": r, "d": d}
    warnings: list[str] = []
    pp = nc.is_prime_power(r)
    outputs["prime_power"] = list(pp) if pp else None
    if pp:
        warnings.append(
            f"r={r} is a prime power ({pp[0]}^{pp[1]}); the existence theorems "
            "for almost r-embeddings do not apply"
        )
    outputs["tverberg_N"] = bd.tverberg_N(r, d)
    outputs["classic_N"] = bd.classic_N(r, d)
    frick = bd.frick_F_estimate(r, d)
    outputs["frick_F_estimate"] = {
        "value": str(frick.value),
        "value_float": float(frick.value),
        "flag": frick.flag,
    }
    if d >= 3:
        dec = bd.theorem1_decomposition(r, d)
        outputs["theorem1_decomposition"] = dataclasses.asdict(dec)
        outputs["general_position_dim"] = bd.general_position_dim(dec.k, r)
    if args.k is not None:
        outputs["vkf_dim"] = bd.vkf_dim(args.k, r)
        outputs["constraint_N"] = bd.constraint_N(args.k, r)
        outputs["mw_codimension_ok"] = bd.mw_codimension_ok(r, d, args.k)
    if args.q is not None:
        outputs["corollary_a"] = dataclasses.asdict(bd.corollary_a_check(r, args.q))
    if args.s is not None:
        outputs["corollary_b"] = bd.corollary_b_check(r, d, args.s)
    outputs["warnings"] = warnings
    inputs = {"cmd": "bounds", "r": r, "d": d, "k": args.k, "s": args.s, "q": args.q}
    return inputs, outputs, True


def cmd_cert(args) -> tuple[dict, dict, bool]:
    cert = nc.bezout_certificate(args.r)
    plan = nc.certificate_to_plan(cert)
    outputs = {
        "certificate": cert.to_json(),
        "checksum": str(cert.checksum),
        "plan": plan.to_json(),
        "binomial_gcd": nc.binomial_gcd(args.r),
    }
    return {"cmd": "cert", "r": args.r}, outputs, True


def cmd_check(args) -> tuple[dict, dict, bool]:
    complex_obj, complex_sha = _read_json(args.complex)
    K = cx.SimplicialComplex.from_json(complex_obj)
    map_obj, map_sha = _read_json(args.map)
    f = pl.PLMap.from_json(K, map_obj)
    verdict = pl.almost_r_embedding_check(f, args.r, maximal_only=args.maximal_only)
    outputs = {
        "r": args.r,
        "passed": verdict.passed,
        "tuples_checked": verdict.tuples_checked,
        "witness": verdict.witness.to_json() if verdict.witness else None,
    }
    inputs = {"cmd": "check", "r": args.r, "complex": complex_sha, "map": map_sha,
              "maximal_only": args.maximal_only}
    return inputs, outputs, verdict.passed


def _parse_plan(r: int, text: str) -> nc.ModificationPlan:
    if text == "auto":
        return nc.certificate_to_plan(nc.bezout_certificate(r))
    steps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        k_str, _, sign_str = part.partition(":")
        try:
            steps.append((int(k_str), {"+": 1, "-": -1}[sign_str]))
        except (ValueError, KeyError):
            raise ValueError(f"bad plan step {part!r}; expected 'k:+' or 'k:-'") from None
    return nc.ModificationPlan(r, steps)


def cmd_eqmap(args) -> tuple[dict, dict, bool]:
    plan = _parse_plan(args.r, args.plan)
    inputs = {"cmd": "eqmap", "mode": args.mode, "r": args.r,
              "plan": plan.to_json(), "samples": args.samples, "seed": args.seed}
    if args.mode == "winding":  # the circle map, in plain complex arithmetic
        circle_map, ledger = ci.build_circle_map(plan)
        w = ci.winding_number(circle_map)
        agrees = w == ledger.final
        outputs = {"winding": w, "ledger": ledger.to_json(), "agrees_with_ledger": agrees}
        return inputs, outputs, agrees

    import numpy  # before eq: a missing numpy fails here, not half-way through the lazy eqmaps
    if args.seed < 0:  # numpy refuses it only when it first draws, after the build
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    eq.check_verify_work(plan.r, [k for k, _ in plan.steps], args.samples,
                         stencils_and_search=args.mode == "verify")
    layer, ledger = eq.build_from_plan(plan)
    outputs = {
        "map": eq.layer_plan_json(layer),
        "ledger": ledger.to_json(),
        "final_degree": ledger.final,
    }
    residual = eq.verify_equivariance(layer, samples=args.samples, seed=args.seed)
    outputs["equivariance_max_residual"] = residual
    zero_residual = max(eq.center_residual(layer), default=0.0)
    outputs["homotopy_zero_residual"] = zero_residual
    passed = residual < 1e-9 and zero_residual < 1e-9
    if args.mode == "verify":
        reports = eq.verify_local_degrees(layer)
        outputs["local_degrees"] = [dataclasses.asdict(rep) for rep in reports]
        # an empty plan leaves the identity map, which is searched itself
        searches = eq.verify_no_spurious_zeros(layer, samples=args.samples, seed=args.seed)
        worst = min(searches, key=lambda search: search.minimum)
        outputs["spurious_zero_min"] = worst.minimum
        outputs["spurious_zero_where"] = {
            "k": worst.k, "distance_in_R": worst.distance_in_R, "t": worst.t,
        }
        outputs["spurious_zero_evaluations"] = args.samples * len(searches)
        outputs["spurious_zero_steps"] = [
            {"k": s.k, "evaluations": args.samples, "in_zero_zone": s.in_zero_zone}
            for s in searches
        ]
        passed = passed and worst.minimum > 1e-3 and all(
            rep.consistent and rep.matches_ledger for rep in reports
        )
    return inputs, outputs, passed


def cmd_delprod(args) -> tuple[dict, dict, bool]:
    cells = cx.skeleton_cells_by_dim(args.N, args.k, args.r)
    orbits = cx.skeleton_orbits(args.N, args.k, args.r)
    # Burnside: the cells fill `orbits` S_r-orbits of r! cells each iff no
    # permutation but the identity fixes a cell; the two recurrences share no code.
    # With no orbit r! is not needed, and r may be too large to take it.
    total = sum(cells.values())
    free = total == 0 if orbits == 0 else total == math.factorial(args.r) * orbits
    outputs = {
        "N": args.N,
        "k": args.k,
        "r": args.r,
        "cells_by_dim": {str(dim): count for dim, count in cells.items()},
        "dimension": max(cells, default=None),
        "orbits": orbits,
        "free_action": free,
    }
    return {"cmd": "delprod", "N": args.N, "k": args.k, "r": args.r}, outputs, free


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverberg",
        description="Bounds, certificates, deleted products, the exact almost "
                    "r-embedding checker, and equivariant sphere maps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="json_path", help="also write the report to this file")

    p = sub.add_parser("bounds", parents=[common], help="emit the bound table for (r, d [, k, s, q])")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cert", parents=[common], help="Bezout certificate and modification plan")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_cert)

    p = sub.add_parser("check", parents=[common], help="run the exact almost r-embedding checker")
    p.add_argument("--complex", required=True, help="complex JSON file")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--maximal-only", action="store_true", dest="maximal_only",
                   help="test only inclusion-maximal disjoint tuples")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eqmap", parents=[common], help="build/verify sphere maps, circle windings")
    p.add_argument("mode", choices=["build", "verify", "winding"])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--plan", default="auto",
                   help="'auto' (certificate) or steps like '1:-,2:-,3:+'")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eqmap)

    p = sub.add_parser("delprod", parents=[common],
                       help="deleted product cell counts for a skeleton")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_delprod)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    # An unwritable --json path is an input error before any work; append mode
    # leaves an existing file (it may be an input) as it was until the report.
    try:
        sink = (open(args.json_path, "a", encoding="utf-8") if args.json_path
                else contextlib.nullcontext())
    except OSError as exc:
        _emit(_failure(f"--json: {exc}"))
        return EXIT_INPUT
    with sink as handle:
        t0 = time.perf_counter()
        try:
            inputs, outputs, passed = args.func(args)
        except (ValueError, OSError, KeyError) as exc:
            report, code = _failure(exc), EXIT_INPUT
        except NumericalDegeneracyError as exc:
            report, code = _failure(exc), EXIT_NUMERIC
        else:
            report = {
                "command": argv,  # argv[0] is the subcommand: the top level has no options
                "inputs_digest": _digest(inputs),
                "seed": getattr(args, "seed", None),  # only eqmap takes --seed
                "outputs": outputs,
                "timings": {"total_s": round(time.perf_counter() - t0, 6)},
                "flags": {"pass": bool(passed)},
            }
            code = EXIT_OK if passed else EXIT_VERDICT
        _emit(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end with JSON reports and reproducible seeds.

Every subcommand emits one RunReport JSON object on stdout: command
echo, a digest of the inputs, the outputs, timings, and pass/fail
flags.  Exit codes: 0 all requested checks pass, 1 a verdict failed,
2 invalid input, 3 numerical degeneracy.  Exact rational values are
serialized as strings, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from typing import Optional

from . import bounds as bd
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


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _report(args, inputs: dict, outputs: dict, passed: bool, t0: float,
            seed: Optional[int] = None) -> dict:
    return {
        "command": list(args.command_echo),
        "inputs_digest": _digest(inputs),
        "seed": seed,
        "outputs": outputs,
        "timings": {"total_s": round(time.perf_counter() - t0, 6)},
        "flags": {"pass": bool(passed)},
    }


def _emit(report: dict, sink=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if sink is not None:  # the open --json file; the report replaces its contents
        sink.truncate(0)
        sink.write(text + "\n")


def _failure(error) -> dict:
    return {"error": str(error), "flags": {"pass": False}}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
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
        outputs["theorem1_decomposition"] = {
            "k": dec.k,
            "vkf_target": dec.vkf_target,
            "N": dec.N,
        }
        outputs["general_position_dim"] = bd.general_position_dim(dec.k, r)
    if args.k is not None:
        outputs["vkf_dim"] = bd.vkf_dim(args.k, r)
        outputs["constraint_N"] = bd.constraint_N(args.k, r)
        outputs["mw_codimension_ok"] = bd.mw_codimension_ok(r, d, args.k)
    if args.q is not None:
        ca = bd.corollary_a_check(r, args.q)
        outputs["corollary_a"] = {
            "d": ca.d,
            "target_dim": ca.target_dim,
            "N": ca.N,
        }
    if args.s is not None:
        outputs["corollary_b"] = bd.corollary_b_check(r, d, args.s)
    outputs["warnings"] = warnings
    inputs = {"cmd": "bounds", "r": r, "d": d, "k": args.k, "s": args.s, "q": args.q}
    return _report(args, inputs, outputs, True, t0), EXIT_OK


def cmd_cert(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    cert = nc.bezout_certificate(args.r)
    plan = nc.certificate_to_plan(cert)
    outputs = {
        "certificate": cert.to_json(),
        "checksum": str(cert.checksum),
        "plan": plan.to_json(),
        "binomial_gcd": nc.binomial_gcd(args.r),
    }
    inputs = {"cmd": "cert", "r": args.r}
    return _report(args, inputs, outputs, True, t0), EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    with open(args.complex, "r", encoding="utf-8") as handle:
        K = cx.SimplicialComplex.from_json(json.load(handle))
    with open(args.map, "r", encoding="utf-8") as handle:
        f = pl.PLMap.from_json(K, json.load(handle))
    verdict = pl.almost_r_embedding_check(f, args.r, maximal_only=args.maximal_only)
    outputs = {
        "r": args.r,
        "passed": verdict.passed,
        "tuples_checked": verdict.tuples_checked,
        "witness": verdict.witness.to_json() if verdict.witness else None,
    }
    inputs = {
        "cmd": "check",
        "r": args.r,
        "complex": _file_digest(args.complex),
        "map": _file_digest(args.map),
        "maximal_only": args.maximal_only,
    }
    code = EXIT_OK if verdict.passed else EXIT_VERDICT
    return _report(args, inputs, outputs, verdict.passed, t0), code


def _parse_plan(r: int, text: str) -> nc.ModificationPlan:
    if text == "auto":
        return nc.certificate_to_plan(nc.bezout_certificate(r))
    steps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        k_str, _, sign_str = part.partition(":")
        if sign_str not in ("+", "-"):
            raise ValueError(f"bad plan step {part!r}; expected 'k:+' or 'k:-'")
        steps.append((int(k_str), 1 if sign_str == "+" else -1))
    return nc.ModificationPlan(r, steps)


def cmd_eqmap(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    plan = _parse_plan(args.r, args.plan)
    inputs = {"cmd": "eqmap", "mode": args.mode, "r": args.r,
              "plan": plan.to_json(), "samples": args.samples, "seed": args.seed}
    layer, ledger = eq.build_from_plan(plan)

    if args.mode == "winding":
        w = eq.winding_number_r2(layer)
        outputs = {
            "winding": w,
            "ledger": ledger.to_json(),
            "agrees_with_ledger": w == ledger.final,
        }
        passed = w == ledger.final
        return _report(args, inputs, outputs, passed, t0, args.seed), (
            EXIT_OK if passed else EXIT_VERDICT
        )

    outputs = {
        "map": eq.layer_plan_json(layer),
        "ledger": ledger.to_json(),
        "final_degree": ledger.final,
    }
    residual = eq.verify_equivariance(layer, samples=args.samples, seed=args.seed)
    outputs["equivariance_max_residual"] = residual
    zero_residual = 0.0
    for step_layer in layer.chain():
        node = step_layer.node
        vals = eq._homotopy(step_layer, node.centers, 0.5)
        zero_residual = max(zero_residual, float(eq._frob(vals).max()))
    outputs["homotopy_zero_residual"] = zero_residual
    passed = residual < 1e-9 and zero_residual < 1e-9
    if args.mode == "verify":
        reports = [eq.verify_local_degrees(step) for step in layer.chain()]
        outputs["local_degrees"] = [
            {
                "k": rep.k,
                "variant": rep.variant,
                "delta_signs": list(rep.delta_signs),
                "consistent": rep.consistent,
                "matches_ledger": rep.matches_ledger,
            }
            for rep in reports
        ]
        # an empty plan leaves the identity map, which is searched itself
        searches = [eq.verify_no_spurious_zeros(step, samples=args.samples, seed=args.seed)
                    for step in list(layer.chain()) or [layer]]
        worst = min(searches, key=lambda search: search.minimum)
        outputs["spurious_zero_min"] = worst.minimum
        outputs["spurious_zero_where"] = {
            "k": worst.k, "distance_in_R": worst.distance_in_R, "t": worst.t,
        }
        outputs["spurious_zero_evaluations"] = sum(s.evaluations for s in searches)
        outputs["spurious_zero_steps"] = [
            {"k": s.k, "evaluations": s.evaluations, "in_zero_zone": s.in_zero_zone}
            for s in searches
        ]
        passed = passed and worst.minimum > 1e-3 and all(
            rep.consistent and rep.matches_ledger for rep in reports
        )
    return _report(args, inputs, outputs, passed, t0, args.seed), (
        EXIT_OK if passed else EXIT_VERDICT
    )


def cmd_delprod(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    cells = cx.skeleton_cells_by_dim(args.N, args.k, args.r)
    orbits = cx.skeleton_orbits(args.N, args.k, args.r)
    # Burnside: the cells fill `orbits` S_r-orbits of r! cells each iff no
    # permutation but the identity fixes a cell; the two recurrences share no code
    free = sum(cells.values()) == math.factorial(args.r) * orbits
    outputs = {
        "N": args.N,
        "k": args.k,
        "r": args.r,
        "cells_by_dim": {str(dim): count for dim, count in cells.items()},
        "dimension": max(cells, default=None),
        "orbits": orbits,
        "free_action": free,
    }
    inputs = {"cmd": "delprod", "N": args.N, "k": args.k, "r": args.r}
    code = EXIT_OK if free else EXIT_VERDICT
    return _report(args, inputs, outputs, free, t0), code


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

    p = sub.add_parser("bounds", help="emit the bound table for (r, d [, k, s, q])")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cert", help="Bezout certificate and modification plan")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_cert)

    p = sub.add_parser("check", help="run the exact almost r-embedding checker")
    p.add_argument("--complex", required=True, help="complex JSON file")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--maximal-only", action="store_true", dest="maximal_only",
                   help="test only inclusion-maximal disjoint tuples")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eqmap", help="build/verify sphere maps, circle windings")
    p.add_argument("mode", choices=["build", "verify", "winding"])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--plan", default="auto",
                   help="'auto' (certificate) or steps like '1:-,2:-,3:+'")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_eqmap)

    p = sub.add_parser("delprod", help="deleted product cell counts for a skeleton")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_delprod)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.command_echo = [args.subcommand] + [a for a in argv if a != args.subcommand]
    json_path = getattr(args, "json_path", None)
    # An unwritable --json path is an input error before any work; append mode
    # leaves an existing file (it may be an input) as it was until the report.
    try:
        sink = open(json_path, "a", encoding="utf-8") if json_path else contextlib.nullcontext()
    except OSError as exc:
        _emit(_failure(f"--json: {exc}"))
        return EXIT_INPUT
    with sink as handle:
        try:
            report, code = args.func(args)
        except (ValueError, OSError, KeyError) as exc:
            report, code = _failure(exc), EXIT_INPUT
        except eq.NumericalDegeneracyError as exc:
            report, code = _failure(exc), EXIT_NUMERIC
        _emit(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

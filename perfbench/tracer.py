"""Traced run of one ``tverberg`` command, and the per-layer metrics of its spans.

Run as a script, it imports ``tverberg.cli`` in a fresh interpreter,
wraps the public functions and methods named in TARGETS at every module
attribute that holds them, runs ``tverberg.cli.main(argv)`` in-process,
and writes the recorded spans as JSON when the command ends:

    python3 perfbench/tracer.py SPANS.json -- check --complex c.json ...

A span is ``[name, parent, start, end, busy, items, attrs]``.  ``busy``
is the time inside the call; for a generator it is the time spent in
its ``next()`` calls and ``items`` counts what it yielded.  Private
names are never wrapped, so a refactor behind a public function does not
change what is measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time


def _plan_attrs(plan) -> dict:
    return {"steps": len(plan.steps)}


def _build_attrs(result) -> dict:
    layer = result[0]
    return {
        "depth": layer.depth,
        "centers": sum(len(step.node.centers) for step in layer.chain()),
    }


# (module, attribute or Class.method, span name, attributes of the result)
TARGETS = (
    ("tverberg.complexes", "disjoint_face_combinations", "complexes.combinations", None),
    ("tverberg.complexes", "SimplicialComplex.has_face", "complexes.has_face", None),
    ("tverberg.complexes", "disjoint_tuples", "complexes.disjoint_tuples", None),
    ("tverberg.complexes", "deleted_product_stats", "complexes.stats", None),
    ("tverberg.complexes", "verify_free_action", "complexes.free_action", None),
    ("tverberg.plmaps", "almost_r_embedding_check", "plmaps.check", None),
    ("tverberg.plmaps", "simplices_intersect", "plmaps.lp", None),
    ("tverberg.plmaps", "IntersectionWitness.verify", "plmaps.witness_verify", None),
    ("tverberg.numbercert", "bezout_certificate", "numbercert.certificate", None),
    ("tverberg.numbercert", "certificate_to_plan", "numbercert.plan", _plan_attrs),
    ("tverberg.eqmaps", "build_from_plan", "eqmaps.build", _build_attrs),
    ("tverberg.eqmaps", "verify_equivariance", "eqmaps.equivariance", None),
    ("tverberg.eqmaps", "verify_local_degrees", "eqmaps.local_degrees", None),
    ("tverberg.eqmaps", "verify_no_spurious_zeros", "eqmaps.spurious", None),
    ("tverberg.eqmaps", "winding_number_r2", "eqmaps.winding", None),
)

NAME, PARENT, START, END, BUSY, ITEMS, ATTRS = range(7)


class Tracer:
    """In-memory span list with the stack of open spans."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []

    def _open(self, name: str, start) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, start, start, 0.0, 0, None])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, attrs=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._drive(self._open(name, None), fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, time.perf_counter())
            span = self.spans[idx]
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[END] = time.perf_counter()
                span[BUSY] = span[END] - span[START]
            if attrs is not None:
                try:
                    span[ATTRS] = attrs(result)
                except AttributeError:
                    pass  # the result's shape changed; record the time only
            return result
        return traced

    def _drive(self, idx: int, gen):
        span = self.spans[idx]
        while True:
            self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.stack.pop()
                now = time.perf_counter()
                if span[START] is None:
                    span[START] = t0
                span[END] = now
                span[BUSY] += now - t0
            span[ITEMS] += 1
            yield item


def install(tracer: Tracer) -> None:
    """Replace every module attribute that holds a target by its wrapper."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "tverberg" or name.startswith("tverberg."))]
    for module_name, path, span_name, attrs in TARGETS:
        owner = sys.modules.get(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span_name, original, attrs)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapped)


def main(argv: list) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- TVERBERG_ARGS...")
    t0 = time.perf_counter()
    import tverberg.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    root = tracer.wrap("cli.main", tverberg.cli.main)
    try:
        code = root(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Busy time of each span minus the busy time of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[BUSY]
    return [span[BUSY] - c for span, c in zip(spans, child)]


def span_count(trace: dict, name: str) -> int:
    """Number of spans with the given name in one trace."""
    return sum(1 for span in trace["spans"] if span[NAME] == name)


def layer_metrics(traces: list) -> dict:
    """Per-layer totals over the traced operations of one pass.

    ``traces`` holds one trace per operation, as written by :func:`main`.
    """
    busy: dict = {}
    items: dict = {}
    calls: dict = {}
    own: dict = {}
    attrs: dict = {}
    for trace in traces:
        spans = trace["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            name = span[NAME]
            busy[name] = busy.get(name, 0.0) + span[BUSY]
            items[name] = items.get(name, 0) + span[ITEMS]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_s
            for key, value in (span[ATTRS] or {}).items():
                attrs[(name, key)] = max(attrs.get((name, key), 0), value)

    def seconds(table, name):
        return float(table.get(name, 0.0))

    def count(table, name):
        return int(table.get(name, 0))

    enumerated = count(items, "complexes.combinations")
    lp_calls = count(calls, "plmaps.lp")
    return {
        "cli.import_s": (statistics.median(t["import_s"] for t in traces), "s"),
        "complexes.combinations_s": (seconds(busy, "complexes.combinations"), "s"),
        "complexes.combinations.count": (enumerated, "count"),
        "complexes.has_face_s": (seconds(busy, "complexes.has_face"), "s"),
        "complexes.has_face.calls": (count(calls, "complexes.has_face"), "count"),
        "complexes.disjoint_tuples_s": (seconds(busy, "complexes.disjoint_tuples"), "s"),
        "complexes.disjoint_tuples.count": (count(items, "complexes.disjoint_tuples"), "count"),
        "complexes.stats.self_s": (seconds(own, "complexes.stats"), "s"),
        "complexes.free_action.self_s": (seconds(own, "complexes.free_action"), "s"),
        "plmaps.check_s": (seconds(busy, "plmaps.check"), "s"),
        "plmaps.check.self_s": (seconds(own, "plmaps.check"), "s"),
        "plmaps.lp_s": (seconds(busy, "plmaps.lp"), "s"),
        "plmaps.lp.calls": (lp_calls, "count"),
        "plmaps.lp_ratio": (lp_calls / enumerated if enumerated else 0.0, "ratio"),
        "plmaps.witness_verify_s": (seconds(busy, "plmaps.witness_verify"), "s"),
        "numbercert.cert_s": (seconds(busy, "numbercert.certificate") + seconds(busy, "numbercert.plan"), "s"),
        "numbercert.plan_steps": (attrs.get(("numbercert.plan", "steps"), 0), "count"),
        "eqmaps.build_s": (seconds(busy, "eqmaps.build"), "s"),
        "eqmaps.equivariance_s": (seconds(busy, "eqmaps.equivariance"), "s"),
        "eqmaps.local_degrees_s": (seconds(busy, "eqmaps.local_degrees"), "s"),
        "eqmaps.spurious_s": (seconds(busy, "eqmaps.spurious"), "s"),
        "eqmaps.winding_s": (seconds(busy, "eqmaps.winding"), "s"),
        "eqmaps.depth": (attrs.get(("eqmaps.build", "depth"), 0), "count"),
        "eqmaps.centers": (attrs.get(("eqmaps.build", "centers"), 0), "count"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

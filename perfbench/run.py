"""Benchmark of the ``tverberg`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload check --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each operation is one ``tverberg`` process, spawned from this checkout's
``src`` and timed from spawn to exit, with CPU time and peak RSS taken
from ``os.wait4``.  Operations run one at a time (a closed loop with one
client).  A run first checks that ``tverberg`` imports from this
checkout, then runs as many whole passes of the workload's operations
as fit in ``--seconds`` (at least one).  Between operations, at most
every two seconds, it times the no-work command ``bounds --r 6 --d 54``
for ``setup_s``.  Every output is checked by the oracles in ``workloads.py``;
an operation with a wrong exit code, a failed oracle, a crash or a
timeout counts as failed.

With ``--trace 1`` the same passes run, followed by one pass in which
every operation runs in-process under ``tracer.py``; that pass gives the
per-layer metrics, and only untraced passes give end-to-end numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the input digests, the sample counts and the machine.
``--workload all`` runs every workload and prints a table per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 5
SETUP_EVERY_S = 2.0
# Every run must exit within 180 s; a pass is started only if it is
# expected to end before this.
DEADLINE_S = 165.0


class SetupError(RuntimeError):
    """The program under test cannot be run from this checkout."""


@dataclass
class Outcome:
    """One finished operation: its accounting and what the oracles found."""

    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    report: dict
    problems: list


class Runner:
    """Spawns ``tverberg`` processes one at a time and judges their output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

    def spawn(self, argv: list) -> tuple:
        """Run argv to completion: (exit code or None on timeout, wall, cpu, rss, stdout)."""
        self.count += 1
        out_path = self.workdir / f"op{self.count}.out"
        err_path = self.workdir / f"op{self.count}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
        timeout = max(1.0, self.deadline - time.monotonic())
        killed = []
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)

        def on_alarm(signum, frame):
            killed.append(True)
            os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        code = None if killed else os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0
        return code, wall, cpu, rss_mb, out_path.read_text(encoding="utf-8", errors="replace")

    def run(self, op: wl.Op, earlier: dict, spans_path: Path | None = None) -> Outcome:
        if spans_path is None:
            argv = [sys.executable, "-m", "tverberg.cli", *op.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *op.args]
        code, wall, cpu, rss, text = self.spawn(argv)
        report: dict = {}
        if code is None:
            problems = ["timed out"]
        else:
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                problems = [f"exit code {code} without a JSON report"]
            else:
                try:
                    problems = op.judge(code, report, earlier)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    problems = [f"malformed report: {exc!r}"]
        return Outcome(op.label, wall, cpu, rss, report, problems)

    def run_pass(self, ops, traced: bool = False, after_op=None) -> tuple:
        """All operations in order; with traced=True also their span files."""
        earlier: dict = {}
        outcomes = []
        traces = []
        for op in ops:
            spans_path = self.workdir / f"spans{self.count + 1}.json" if traced else None
            outcome = self.run(op, earlier, spans_path)
            outcomes.append(outcome)
            earlier[op.label] = outcome.report
            if traced and spans_path.exists():
                traces.append((op.label, json.loads(spans_path.read_text(encoding="utf-8"))))
            if after_op is not None:
                after_op()
        return outcomes, traces

    def check_checkout(self) -> None:
        """Fail unless tverberg imports from this checkout; fills bytecode caches."""
        if not (SRC / "tverberg" / "cli.py").is_file():
            raise SetupError(f"no tverberg package under {SRC}")
        probe = "import tverberg.cli; print(tverberg.cli.__file__)"
        code, _, _, _, text = self.spawn([sys.executable, "-c", probe])
        lines = text.split()
        if code != 0 or not lines or not Path(lines[-1]).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"tverberg.cli does not import from {SRC} (exit {code})")


class SetupProbe:
    """Times the no-work command at intervals across the whole run.

    The machine's speed drifts on a scale of seconds, so probes spread
    over the run describe the same conditions as the operations.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.op = wl.Op("setup", wl.SETUP_ARGS, wl.setup_judge)
        self.outcomes: list = []
        self.last = 0.0
        self.probe()

    def probe(self) -> None:
        self.outcomes.append(self.runner.run(self.op, {}))
        self.last = time.monotonic()

    def maybe(self) -> None:
        if time.monotonic() - self.last >= SETUP_EVERY_S:
            self.probe()

    def top_up(self) -> None:
        while len(self.outcomes) < SETUP_SAMPLES:
            self.probe()


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), **versions}


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload: metrics, sample counts and failure accounting."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(workdir, time.monotonic() + DEADLINE_S)
        runner.check_checkout()
        plan = wl.PLANS[name](seed, workdir, smoke, load_expected())
        setup = SetupProbe(runner)
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(runner.run_pass(plan.ops, after_op=setup.maybe)[0])
            pass_s = time.monotonic() - t0
            reserve = pass_s * (2.5 if trace else 1.2)
            if (time.monotonic() - start + pass_s > seconds
                    or time.monotonic() + reserve > runner.deadline):
                break
        setup.top_up()
        traced_outcomes, traces = runner.run_pass(plan.ops, traced=True) if trace else ([], [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [o for p in passes for o in p]
    setup = setup.outcomes
    everything = setup + untraced + traced_outcomes
    failed = [o for o in everything if o.problems]
    pass_walls = [sum(o.wall_s for o in p) for p in passes]
    wall_s = statistics.median(pass_walls)
    samples = {"wall_s": len(pass_walls), "setup_s": len(setup), "peak_rss_mb": len(untraced)}
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(o.wall_s for o in setup), "s"),
            "peak_rss_mb": (max(o.rss_mb for o in untraced), "MB"),
        }
    else:
        checks = [o for o in traced_outcomes if o.label in wl.CHECK_VERDICTS]
        metrics = {
            "cli.cpu_s": (statistics.median(sum(o.cpu_s for o in p) for p in passes), "s"),
            **{f"cli.{label}_s": (_median(o.wall_s for o in untraced if o.label == label), "s")
               for label in wl.LABELS},
            "trace.overhead_s": (sum(o.wall_s for o in traced_outcomes) - wall_s, "s"),
            **tracer.layer_metrics([t for _, t in traces]),
            **{f"plmaps.lp.calls.{label.removeprefix('check_')}":
               (sum(tracer.span_count(t, "plmaps.lp") for op_label, t in traces
                    if op_label == label), "count")
               for label in wl.CHECK_VERDICTS},
            "plmaps.tuples_checked":
                (sum(o.report.get("outputs", {}).get("tuples_checked", 0) for o in checks), "count"),
        }
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "samples": samples,
        "attempted": len(everything),
        "failed": len(failed),
        "error_rate": len(failed) / len(everything),
        "problems": [f"{o.label}: {p}" for o in failed for p in o.problems][:20],
        "inputs": plan.inputs,
        "metrics": metrics,
    }


def print_table(result: dict) -> None:
    n = result["samples"]
    print(f"[{result['workload']}] seed {result['seed']}, {result['passes']} pass(es)")
    for name, (value, unit) in result["metrics"].items():
        count = f"n={n[name]}" if name in n else ""
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {shown:>16} {unit:<6} {count}")
    print(f"  {'error_rate':<32} {result['error_rate']:>16.6f} {'ratio':<6} "
          f"n={result['attempted']} ({result['failed']} failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.PLANS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    names = list(wl.PLANS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_table(result)
        print(json.dumps({
            "workload": result["workload"], "seed": result["seed"], "trace": args.trace,
            "seconds": args.seconds, "passes": result["passes"], "samples": result["samples"],
            "error_rate": result["error_rate"], "inputs": result["inputs"], "machine": machine(),
        }, sort_keys=True))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

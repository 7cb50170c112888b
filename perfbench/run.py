"""Benchmark of the benq command line tool on three synthetic checkpoints.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout that has ``src/benq``; the benchmark
uses that source tree and nothing installed.  For each workload it builds
the input checkpoint from the seed (``setup``), then runs ``benq analyze``,
``quantize``, ``dequantize`` and ``compare`` as child processes, each timed
from spawn to exit with its peak RSS from ``os.wait4``.  Every output is
checked by checks.py.  Rounds of the four steps repeat until --seconds have
passed (at least one round); times and RSS are medians over the timed runs
of all rounds.

With --trace 1 each step (and setup) runs untraced, traced (tracing.py) and
untraced again, and the result holds the per-layer metrics of BENCHMARK.json,
including each step's tracing overhead (traced wall minus the mean of the
two untraced walls).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Every step (each setup, each CLI run) is one attempted operation; it fails
when the program exits non-zero or a check of its output fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
from formats import BenqFile, SafeTensors
from tracing import Tracer
from workloads import WORKLOADS, Workload, build_input, expected_quantized

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STEPS = ("analyze", "quantize", "dequantize", "compare")
SETUP_REPEATS = 5
# Runs of each step in a round.  The first run of analyze, quantize and
# dequantize is a warm-up: its output is checked, its time is not counted
# (right after setup it reads up to 1.5x slower).  compare takes longer than
# the other three steps together, so it runs twice and both runs count.
REPEATS = {"analyze": 6, "quantize": 6, "dequantize": 6, "compare": 2}
WARMUP = {"analyze": 1, "quantize": 1, "dequantize": 1, "compare": 0}
STEP_TIMEOUT_S = 150


class StepFailed(Exception):
    """The program did not complete a step."""


@dataclass
class Context:
    """One workload's files and what the checks have learnt about them so far."""

    wl: Workload
    seed: int
    work: str
    small: bool = False
    benq_bytes: float = 0.0
    errors: dict | None = None

    def path(self, what: str) -> str:
        return os.path.join(self.work, {
            "input": "input.safetensors", "report": "report.json", "benq": "model.benq",
            "dequant": "dequant.safetensors", "compare": "compare.json"}[what])

    def quantized(self) -> set[str]:
        return expected_quantized(self.wl, self.small)

    def benq_args(self, step: str) -> list[str]:
        p, wl = self.path, self.wl
        threads = ["--threads", str(wl.threads)]
        return {
            "analyze": ["analyze", p("input"), "--out", p("report")] + threads,
            "quantize": ["quantize", p("input"), "--out", p("benq")] + wl.quantize_args(),
            "dequantize": ["dequantize", p("benq"), "--out", p("dequant")] + threads,
            "compare": ["compare", p("input"), "--out", p("compare")] + wl.compare_args(),
        }[step]

    def outputs(self, step: str) -> str:
        return self.path({"analyze": "report", "quantize": "benq",
                          "dequantize": "dequant", "compare": "compare"}[step])


def step_checks(step: str, ctx: Context) -> list[tuple[str, object]]:
    """The named checks of one step's output, in the order they run."""
    q = ctx.quantized()
    inp = lambda: SafeTensors(ctx.path("input"))  # noqa: E731
    bf = lambda: BenqFile(ctx.path("benq"))  # noqa: E731
    dq = lambda: SafeTensors(ctx.path("dequant"))  # noqa: E731

    def benq_layout():
        ctx.benq_bytes = checks.check_benq_layout(bf(), inp(), ctx.wl, q)

    def errors():
        checks.check_dequantized_layout(dq(), inp())
        ctx.errors = checks.reconstruction_errors(dq(), inp(), q)

    def compare():
        if ctx.errors is None:
            ctx.errors = checks.reconstruction_errors(dq(), inp(), q)
        checks.check_compare(ctx.path("compare"), inp(), ctx.wl, ctx.errors)

    return {
        "analyze": [("digits", lambda: checks.check_digit_counts(ctx.path("report"), inp()))],
        "quantize": [
            ("size", benq_layout),
            ("scales", lambda: checks.check_scales(bf(), inp(), q)),
            ("nearest", lambda: checks.check_nearest(bf(), inp(), q, ctx.seed)),
            ("preserved-benq", lambda: checks.check_preserved_benq(bf(), inp(), q)),
        ],
        "dequantize": [
            ("errors", errors),
            ("levels", lambda: checks.check_levels(bf(), dq(), q)),
            ("preserved", lambda: checks.check_preserved(dq(), inp(), q)),
            ("projection", lambda: checks.check_projection(bf(), dq(), q, ctx.seed)),
        ],
        "compare": [("compare", compare)],
    }[step]


@dataclass
class Tally:
    """Operations attempted and failed, and whether every check passed."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def run(self, label: str, fn):
        """Run one operation; count it, and record rather than raise a failure."""
        self.attempted += 1
        try:
            return fn()
        except checks.CheckFailed as e:
            self.failed += 1
            self.correct = False
            print(f"check failed [{label}/{getattr(e, 'check', '')}]: {e}", file=sys.stderr)
        except Exception:  # the run must still report; the traceback says why
            self.failed += 1
            print(f"step failed [{label}]:\n{traceback.format_exc()}", file=sys.stderr)
        return None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log_path: str) -> tuple[float, float]:
    """Run a child process to exit; (wall seconds, peak RSS in MB) or StepFailed."""
    launched = subprocess.run(
        [sys.executable, os.path.join(HERE, "launch.py"), log_path, str(STEP_TIMEOUT_S)] + argv,
        env=_env(), stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=STEP_TIMEOUT_S + 10, check=True)
    result = json.loads(launched.stdout)
    if result["rc"] != 0:
        with open(log_path, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-2000:]
        raise StepFailed(f"exit code {result['rc']}: {' '.join(argv[-8:])}\n{tail}")
    return result["wall_s"], result["rss_mb"]


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def run_step(step: str, ctx: Context, tally: Tally, *, traced: bool = False,
             check: bool = False, corrupt=None, expect: str | None = None) -> dict | None:
    """One CLI step; then, when asked, the checks of its output, or a comparison
    with the digest `expect` of an earlier, checked run of the same step."""
    out = ctx.outputs(step)
    if os.path.exists(out):
        os.remove(out)
    layer_path = os.path.join(ctx.work, f"{step}.layers.json")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "tracing.py"), step, layer_path]
    else:
        argv = [sys.executable, "-m", "benq.cli"]
    argv += ctx.benq_args(step)

    def go():
        wall, rss = spawn(argv, os.path.join(ctx.work, f"{step}.log"))
        result = {"wall_s": wall, "rss_mb": rss}
        if traced:
            with open(layer_path, encoding="utf-8") as f:
                result["layers"] = json.load(f)["metrics"]
        if corrupt is not None:
            corrupt(step, ctx)
        named = step_checks(step, ctx) if check else []
        for name, fn in named:
            try:
                fn()
            except checks.CheckFailed as e:
                e.check = name
                raise
        result["digest"] = _digest(out)
        if expect is not None and result["digest"] != expect:
            err = checks.CheckFailed(f"{step}: output differs from the checked run's")
            err.check = "repeat"
            raise err
        return result

    return tally.run(step, go)


def setup(ctx: Context, tally: Tally, tracer: Tracer | None = None) -> float | None:
    """Build the input checkpoint once; its wall seconds, or None if it failed."""
    def go():
        if tracer is not None:
            tracer.install(("benq.synth", "benq.rng"))
        t0 = time.perf_counter()
        try:
            build_input(ctx.wl, ctx.seed, ctx.path("input"), ctx.small)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        # untimed: write the file back now, so the steps do not compete with it
        with open(ctx.path("input"), "rb") as f:
            os.fsync(f.fileno())
        return wall
    return tally.run("setup", go)


def median_of(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run_round(ctx: Context, tally: Tally, trace: bool, corrupt=None) -> dict[str, list]:
    """Untraced: REPEATS[step] runs of each step, interleaved (A Q D C A Q D C A Q D ...)
    so that a burst of load on the machine does not fall on one step only.  The
    first output of a step is checked; later ones must be byte-identical to it.
    The caller drops the first WARMUP[step] runs from the timings.
    Traced: each step runs untraced, traced, untraced again; the traced output
    is checked.  Bracketing the traced run cancels the drift between a first
    and a second run of the same step out of the tracing overhead."""
    out: dict[str, list] = {s: [] for s in STEPS}
    if trace:
        for s in STEPS:
            out[s].append((run_step(s, ctx, tally),
                           run_step(s, ctx, tally, traced=True, check=True, corrupt=corrupt),
                           run_step(s, ctx, tally)))
        return out
    expect: dict[str, str | None] = {}
    for i in range(max(REPEATS.values())):
        for s in STEPS:
            if i >= REPEATS[s]:
                continue
            if i == 0:
                r = run_step(s, ctx, tally, check=True, corrupt=corrupt)
                expect[s] = r["digest"] if r else None
            else:
                r = run_step(s, ctx, tally, expect=expect[s])
            out[s].append(r)
    return out


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 small: bool = False, corrupt=None) -> tuple[Tally, dict]:
    """All rounds of one workload; (tally, metric values by name)."""
    ctx = Context(wl, seed, os.path.join(HERE, "work", wl.name + ("-small" if small else "")),
                  small)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    tally = Tally()
    metrics: dict[str, float] = {}

    if trace:
        tracer = Tracer()
        before, traced, after = setup(ctx, tally), setup(ctx, tally, tracer), setup(ctx, tally)
        if None not in (before, traced, after):
            metrics.update(tracer.metrics("setup", traced))
            metrics["setup.trace_overhead_s"] = traced - (before + after) / 2
    else:
        metrics["setup_s"] = median_of([setup(ctx, tally) for _ in range(SETUP_REPEATS)])

    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        ctx.errors = None
        rounds.append(run_round(ctx, tally, trace, corrupt))

    for s in STEPS:
        if trace:
            done = [r for rnd in rounds for r in rnd[s] if None not in r]
            for key in (done[0][1]["layers"] if done else {}):
                metrics[key] = median_of([t["layers"][key] for _, t, _ in done])
            metrics[f"{s}.trace_overhead_s"] = median_of(
                [t["wall_s"] - (a["wall_s"] + b["wall_s"]) / 2 for a, t, b in done])
        else:
            timed = [r for rnd in rounds for r in rnd[s][WARMUP[s]:] if r]
            metrics[f"{s}_s"] = median_of([r["wall_s"] for r in timed])
            metrics[f"{s}_rss_mb"] = median_of([r["rss_mb"] for r in timed])
    if not trace:
        metrics["benq_bytes"] = float(ctx.benq_bytes)
        metrics["recon_rel_err"] = checks.relative_error(ctx.errors) if ctx.errors else 0.0

    if tally.failed == 0:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return tally, metrics


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def report(wl_name: str, metrics: dict, declared: list[dict]) -> dict:
    """Declared metrics with units, printed as a table; a declared metric the
    run did not produce is an error in the benchmark itself."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"{wl_name}: no value for {missing}")
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{wl_name:20s} {m['name']:52s} {value:16.6g} {m['unit']}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the checks: clean outputs pass, corrupted ones fail")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "benq", "cli.py")):
        print(f"error: no benq source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        import selftest
        return selftest.main()

    declared = declared_metrics(bool(args.trace))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total, combined = Tally(), {}
    for name in names:
        tally, metrics = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace))
        printed = report(name, metrics, declared)
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.correct &= tally.correct
        if len(names) == 1:
            combined = printed
        else:
            combined.update({f"{name}/{k}": v for k, v in printed.items()})
        print(f"{name}: attempted {tally.attempted}, failed {tally.failed}, "
              f"correct {tally.correct}")
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

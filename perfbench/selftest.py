"""Self-test of the checks, on small versions of the three workloads.

1. Every workload runs clean, untraced and traced: no step fails.
2. For each checker, one run corrupts one output right after the step that
   wrote it.  The checker must pass on the clean output, fail on the
   corrupted one, and the run must report a failed step.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
from formats import BenqFile, SafeTensors
from workloads import WORKLOADS

SEED = 1


def _patch(path: str, offset: int, change) -> None:
    """Replace the bytes at `offset` by change(old bytes)."""
    with open(path, "r+b") as f:
        f.seek(offset)
        old = f.read(4)
        f.seek(offset)
        f.write(change(old))


def _first(ctx, quantized: bool) -> str:
    return next(n for n in SafeTensors(ctx.path("input")).names()
                if (n in ctx.quantized()) == quantized)


def _edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    edit(obj)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def _move_one_count(report: dict) -> None:
    counts = report["per_tensor"][0]["counts"]
    d = next(i for i, c in enumerate(counts) if c)
    counts[d] -= 1
    counts[(d + 1) % 9] += 1


def _benq_offset(ctx, name: str, key: str) -> int:
    bf = BenqFile(ctx.path("benq"))
    return bf.base + bf.tensors[name][key][0]


def _dq_offset(ctx, name: str) -> int:
    dq = SafeTensors(ctx.path("dequant"))
    return dq.base + dq.entries[name]["data_offsets"][0]


def corrupt_digits(ctx):
    _edit_json(ctx.path("report"), _move_one_count)


def corrupt_size(ctx):
    with open(ctx.path("benq"), "ab") as f:
        f.write(b"\0" * 8)


def corrupt_scale(ctx):
    _patch(ctx.path("benq"), _benq_offset(ctx, _first(ctx, True), "scales"),
           lambda b: (int.from_bytes(b[:2], "little") + 1).to_bytes(2, "little"))


def corrupt_code(ctx):
    _patch(ctx.path("benq"), _benq_offset(ctx, _first(ctx, True), "indices"),
           lambda b: bytes([b[0] ^ 1]))


def corrupt_preserved_benq(ctx):
    _patch(ctx.path("benq"), _benq_offset(ctx, _first(ctx, False), "data"),
           lambda b: bytes([b[0] ^ 1]))


def corrupt_level(ctx):
    _patch(ctx.path("dequant"), _dq_offset(ctx, _first(ctx, True)),
           lambda b: (np.frombuffer(b, "<f4") * np.float32(1 + 2.0 ** -10)).tobytes())


def corrupt_preserved(ctx):
    _patch(ctx.path("dequant"), _dq_offset(ctx, _first(ctx, False)),
           lambda b: bytes([b[0] ^ 1]))


def corrupt_projection(ctx):
    # the whole first group (G = 8 on this workload) doubles: its maximum moves
    with open(ctx.path("dequant"), "r+b") as f:
        f.seek(_dq_offset(ctx, _first(ctx, True)))
        group = np.frombuffer(f.read(4 * ctx.wl.group_size), dtype="<f4") * np.float32(2)
        f.seek(_dq_offset(ctx, _first(ctx, True)))
        f.write(group.astype("<f4").tobytes())


def corrupt_compare(ctx):
    name = _first(ctx, True)

    def edit(obj):
        row = next(r for r in obj["rows"]
                   if r["name"] == name and r["schedule"] == ctx.wl.schedule)
        row["mse"] *= 1 + 1e-6
    _edit_json(ctx.path("compare"), edit)


# (check name, step whose output is corrupted, corruption)
CORRUPTIONS = (
    ("digits", "analyze", corrupt_digits),
    ("size", "quantize", corrupt_size),
    ("scales", "quantize", corrupt_scale),
    ("nearest", "quantize", corrupt_code),
    ("preserved-benq", "quantize", corrupt_preserved_benq),
    ("levels", "dequantize", corrupt_level),
    ("preserved", "dequantize", corrupt_preserved),
    ("projection", "dequantize", corrupt_projection),
    ("compare", "compare", corrupt_compare),
)


def main() -> int:
    ok = True

    def verdict(good: bool, text: str) -> None:
        nonlocal ok
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {text}")

    for wl in WORKLOADS.values():
        for trace in (False, True):
            tally, _ = run.run_workload(wl, SEED, 0, trace, small=True)
            verdict(tally.failed == 0 and tally.correct,
                    f"{wl.name} (small, trace {int(trace)}): clean run, "
                    f"{tally.attempted} steps, {tally.failed} failed")

    wl = WORKLOADS["toy-f32-log4"]
    for check, step, corrupt in CORRUPTIONS:
        seen = {}

        def hook(at: str, ctx) -> None:
            if at != step:
                return
            checker = dict(run.step_checks(step, ctx))[check]
            checker()  # must pass on the clean output
            corrupt(ctx)
            try:
                checker()
                seen["fired"] = False
            except run.checks.CheckFailed as e:
                seen["fired"] = True
                seen["message"] = str(e)

        tally, _ = run.run_workload(wl, SEED, 0, False, small=True, corrupt=hook)
        verdict(seen.get("fired", False) and tally.failed >= 1 and not tally.correct,
                f"{check}: fails on a corrupted {step} output "
                f"({seen.get('message', 'did not fire')}); run reports "
                f"{tally.failed} failed step(s)")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run.main(["--self-test"] + sys.argv[1:]))

"""The `benq` command line tool.

Subcommands: levels, analyze, quantize, dequantize, compare, synth.
Diagnostics go to stderr; requested data goes to stdout or --out.  Every
run that touches files emits a manifest (command, config, input digests,
tool version, seed, timings) next to the output, or to stderr when the
result goes to stdout.  Exit codes: 0 success, 1 operational error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io as stdio
import itertools
import json
import math
import os
import sys
import time

from . import __version__, benford, rng, synth
from ._pool import _map
from .errors import BenqError, ConfigError, DataError
# read_container, read_benq, write_benq and apply_policy hold a whole tensor set;
# the commands stream instead.  perfbench's tracer still wraps these names here.
from .io import (iter_container, open_benq, open_container, parse_json, read_benq,  # noqa: F401
                 read_container, write_benq, write_benq_stream, write_container,
                 write_container_stream)
from .levels import DEFAULT_EPSILON, Schedule, make_codebook
from .metrics import compare_schedules
from .quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig, QuantPolicy,  # noqa: F401
                        QuantizedTensor, apply_policy, dequantize, quantize_stream)


def _default_threads() -> int:
    env = os.environ.get("BENQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"BENQ_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


class _Timed:
    """An iterator over `items` that adds the time spent in their next() to `.s`."""

    def __init__(self, items):
        self._items = iter(items)
        self.s = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            return next(self._items)
        finally:
            self.s += time.perf_counter() - t0


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_policy(path: str | None, no_policy: bool) -> QuantPolicy:
    if no_policy:
        return QUANTIZE_ALL
    if path is None:
        return DEFAULT_POLICY
    with open(path, "rb") as f:
        blob = f.read()
    try:
        # a policy file overrides the default policy field by field
        return QuantPolicy.from_dict({**DEFAULT_POLICY.to_dict(), **parse_json(blob, "policy")})
    except BenqError as e:
        raise ConfigError(f"{path}: {e}") from None


def _emit_manifest(args, command: str, config: dict, inputs: list[str],
                   timings: dict, out_path: str | None) -> None:
    manifest = {
        "command": command,
        "argv": getattr(args, "_argv", sys.argv[1:]),
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    blob = json.dumps(manifest, indent=2)
    if out_path:
        with open(out_path + ".manifest.json", "w", encoding="utf-8") as f:
            f.write(blob + "\n")
    else:
        print(blob, file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report_csv(report: benford.ModelReport) -> str:
    buf = stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "family", "numel", "zeros_skipped", "mad"]
               + [f"count_{d}" for d in range(1, 10)])
    for r in report.per_tensor:
        w.writerow([r.name, r.family.value, r.numel, r.histogram.zeros_skipped,
                    "" if r.mad is None else repr(r.mad)]
                   + [int(c) for c in r.histogram.counts])
    return buf.getvalue()


def _rows_csv(rows: list[dict]) -> str:
    buf = stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    cols = ["name", "schedule", "bits", "group_size", "mse", "max_abs_err", "rel_fro_err"]
    w.writerow(cols)
    for row in rows:
        w.writerow([row[c] if not isinstance(row[c], float) else repr(row[c]) for c in cols])
    return buf.getvalue()


def cmd_levels(args) -> int:
    cb = make_codebook(Schedule.parse(args.schedule), args.bits, args.epsilon)
    print(json.dumps(cb.describe(), indent=2))
    return 0


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    policy = _load_policy(args.policy, no_policy=False)
    report = benford.model_report(iter_container(args.container), policy,
                                  source=os.path.basename(args.container),
                                  seed=args.seed, threads=args.threads)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _write_text(args.out, text)
    if args.csv:
        _write_text(args.csv, _report_csv(report))
    _emit_manifest(args, "analyze", {"policy_digest": policy.digest()},
                   [args.container] + ([args.policy] if args.policy else []),
                   {"total": time.perf_counter() - t0}, args.out)
    return 0


def _parse_config(args) -> QuantConfig:
    return QuantConfig(bits=args.bits, group_size=args.group_size,
                       schedule=Schedule.parse(args.schedule), epsilon=args.epsilon)


def cmd_quantize(args) -> int:
    t0 = time.perf_counter()
    config = _parse_config(args)
    policy = _load_policy(args.policy, args.no_policy)
    out = args.out or os.path.splitext(args.container)[0] + ".benq"
    with open_container(args.container) as (specs, tensors):
        if not specs:
            raise DataError("cannot apply a policy to an empty tensor set")
        layout = [s._replace(dtype=None) if policy.should_quantize(s.name) else s
                  for s in specs]
        # the main thread's time: reading tensors, waiting for quantized ones, the rest writing
        reading = _Timed(tensors)
        entries = _Timed(quantize_stream(reading, policy, config, args.threads))
        t1 = time.perf_counter()
        write_benq_stream(out, config, policy, layout, entries)
        t2 = time.perf_counter()
    quantized = [s for s in layout if s.dtype is None]
    total = sum(math.prod(s.shape) for s in layout)
    fraction = sum(math.prod(s.shape) for s in quantized) / total if total else 0.0
    print(f"quantize pass: {entries.s - reading.s:.2f}s "
          f"({len(quantized)} quantized / {len(layout) - len(quantized)} preserved, "
          f"fraction {fraction:.4f})", file=sys.stderr)
    _emit_manifest(args, "quantize",
                   {**config.to_dict(), "policy_digest": policy.digest()},
                   [args.container] + ([args.policy] if args.policy else []),
                   {"read": t1 - t0 + reading.s, "quantize": entries.s - reading.s,
                    "write": t2 - t1 - entries.s, "total": t2 - t0}, out)
    return 0


def _reconstruction(item):
    _, t = item
    return dequantize(t) if isinstance(t, QuantizedTensor) else t.data


def cmd_dequantize(args) -> int:
    t0 = time.perf_counter()
    out = args.out or os.path.splitext(args.model)[0] + ".dequant.safetensors"
    with open_benq(args.model) as (config, _, specs, entries):
        write_container_stream(out, specs, _map(_reconstruction, entries, args.threads))
    _emit_manifest(args, "dequantize", config.to_dict(), [args.model],
                   {"total": time.perf_counter() - t0}, out)
    return 0


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    schedules = [Schedule.parse(s.strip()) for s in args.schedules.split(",") if s.strip()]
    if not schedules:
        raise ConfigError("--schedules needs at least one schedule")
    configs = [QuantConfig(bits=args.bits, group_size=args.group_size,
                           schedule=s, epsilon=args.epsilon) for s in schedules]

    def measure(item) -> list[dict]:
        # one tensor at a time; compare_schedules spreads its blocks over the threads
        name, t = item
        return [rep.to_dict() for rep in
                compare_schedules(t.data, configs, name, threads=args.threads)]

    rows = list(itertools.chain.from_iterable(map(measure, iter_container(args.container))))
    text = json.dumps({"source": os.path.basename(args.container), "rows": rows},
                      indent=2) + "\n"
    _write_text(args.out, text)
    if args.csv:
        _write_text(args.csv, _rows_csv(rows))
    _emit_manifest(args, "compare",
                   {"bits": args.bits, "group_size": args.group_size,
                    "schedules": [s.value for s in schedules], "epsilon": args.epsilon},
                   [args.container], {"total": time.perf_counter() - t0}, args.out)
    return 0


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    tensors = {}
    for item in args.tensor:
        name, _, spec_text = item.partition("=")
        if not name or not spec_text:
            raise ConfigError(f"--tensor expects NAME=DIST(...), got {item!r}")
        if name in tensors:
            raise ConfigError(f"duplicate tensor name {name!r}")
        spec = synth.parse_spec(spec_text)
        tensors[name] = synth.synth_tensor(spec, rng.derive_seed(args.seed, name))
    write_container(args.out, tensors)
    _emit_manifest(args, "synth",
                   {"tensors": {i.partition('=')[0]: i.partition('=')[2] for i in args.tensor}},
                   [], {"total": time.perf_counter() - t0}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benq",
                                     description="Log-uniform weight quantization toolkit")
    parser.add_argument("--version", action="version", version=f"benq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: BENQ_THREADS or all cores)")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base seed for any randomness")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--bits", type=int, default=4, help="bit width (2..8)")
    grid.add_argument("--group-size", type=int, default=8, help="elements per scale group")
    grid.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                      help="smallest positive level of the log schedule")

    p = sub.add_parser("levels", parents=[grid], help="print a codebook as JSON")
    p.add_argument("--schedule", choices=["log", "linear"], default="log")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("analyze", parents=[common, seeded],
                       help="first-digit compliance report for a checkpoint")
    p.add_argument("container", help="safetensors file")
    p.add_argument("--policy", help="policy JSON; its family_patterns classify the tensors")
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--csv", help="also write the per-tensor table as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quantize", parents=[common, grid],
                       help="quantize a checkpoint into a .benq file")
    p.add_argument("container", help="safetensors file")
    p.add_argument("--schedule", choices=["log", "linear", "rtn"], default="log")
    p.add_argument("--policy",
                   help="policy JSON: family_patterns and the quantize_families to quantize")
    p.add_argument("--no-policy", action="store_true", help="quantize every tensor")
    p.add_argument("--out", help="output .benq path (default: input with .benq suffix)")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dequantize", parents=[common],
                       help="reconstruct a .benq file as F32 safetensors")
    p.add_argument("model", help=".benq file")
    p.add_argument("--out", help="output safetensors path")
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("compare", parents=[common, grid],
                       help="per-tensor distortion table across schedules")
    p.add_argument("container", help="safetensors file")
    p.add_argument("--schedules", default="log,linear,rtn",
                   help="comma-separated subset of log,linear,rtn")
    p.add_argument("--out", help="table JSON path (default: stdout)")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", parents=[common, seeded],
                       help="generate a synthetic safetensors checkpoint")
    p.add_argument("--tensor", action="append", required=True, metavar="NAME=DIST(...)",
                   help="e.g. w=loguniform(6,1000000); repeatable")
    p.add_argument("--out", required=True, help="output safetensors path")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        if getattr(args, "threads", 1) is None:
            args.threads = _default_threads()
        return args.func(args)
    except (BenqError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The `benq` command line tool.

Subcommands: levels, analyze, quantize, dequantize, compare, synth.
Diagnostics go to stderr; requested data goes to stdout or --out.  Every
run that touches files emits a manifest (command, config, input digests,
tool version, seed, timings) next to the output, or to stderr when the
result goes to stdout; the input files are hashed on one background thread
while the command runs.  Only `synth` draws random numbers, so only it
takes `--seed`; every other manifest records a null seed.  `analyze`
counts the leading digit of every element of every tensor.  Exit codes:
0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import io as stdio
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor

import numpy as np

from . import __version__, _pool, benford, rng, synth
from ._pool import _map_blocks
from .errors import BenqError, ConfigError, DataError
from .io import TensorSpec, parse_json, read_benq, read_container, write_benq, write_container
from .levels import DEFAULT_EPSILON, Schedule, make_codebook
# compare_schedules is not called here: compare streams every tensor through
# compare_tensors.  perfbench's tracer still wraps the name on this module.
from .metrics import compare_schedules, compare_tensors
from .quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig, QuantPolicy, QuantizedTensor,
                        apply_policy, dequantize)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_INPUT_ARGS = ("container", "model", "policy")  # the arguments naming input files, in order
_DIGEST_CHUNK = 1 << 18  # bytes hashed at a time, read into one reused buffer


def _keep_scratch_mapped() -> None:
    """Keep the memory of freed block scratch mapped for the next block.

    Each block allocates and frees a few MB of numpy scratch.  By default
    glibc sets its mmap and trim thresholds from the largest mapped
    allocation freed so far, a few MB here, so it hands each block's
    scratch back to the system and faults it in again for the next block.
    Here allocations below 16 MB come from the heap, and up to 32 MB of
    free heap is kept instead.  Peak memory does not change: it is reached
    inside a block either way.  A no-op where the C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _thread_count(text: str) -> int:
    """--threads: an integer of at least 1."""
    try:
        return _pool._thread_count(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


class _Clock:
    """Seconds spent inside next() of the iterators passed through `timed`."""

    def __init__(self):
        self.s = 0.0

    def timed(self, items):
        it = iter(items)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.s += time.perf_counter() - t0
            yield item


def _sha256(path: str, stopped: threading.Event) -> str:
    """The hex sha256 of a file; CancelledError at the next chunk once `stopped` is set."""
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as f:
        while n := f.readinto(buf):
            if stopped.is_set():
                raise CancelledError
            h.update(view[:n])
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


def _emit_manifest(args, command: str, config: dict, timings: dict,
                   out_path: str | None) -> None:
    """Write the run's manifest; it waits for the input digests `main` started."""
    manifest = {
        "command": command,
        "argv": getattr(args, "_argv", sys.argv[1:]),
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": args._digests.result(),
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
    with read_container(args.container) as (_, tensors):
        report = benford.model_report(tensors, policy, source=os.path.basename(args.container),
                                      threads=args.threads)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _write_text(args.out, text)
    if args.csv:
        _write_text(args.csv, _report_csv(report))
    _emit_manifest(args, "analyze", {"policy_digest": policy.digest()},
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
    with read_container(args.container, config.block_elems) as (specs, tensors):
        if not specs:
            raise DataError("cannot apply a policy to an empty tensor set")
        layout = [s._replace(dtype=None) if policy.should_quantize(s.name) else s
                  for s in specs]
        # the main thread's time: reading blocks, waiting for quantized ones, the rest writing
        reading, waiting = _Clock(), _Clock()
        streamed = ((s, reading.timed(blocks)) for s, blocks in tensors)
        entries = waiting.timed(waiting.timed(outputs) for outputs in
                                apply_policy(streamed, policy, config, args.threads))
        t1 = time.perf_counter()
        write_benq(out, config, policy, layout, entries)
        t2 = time.perf_counter()
    quantized = [s for s in layout if s.dtype is None]
    total = sum(math.prod(s.shape) for s in layout)
    fraction = sum(math.prod(s.shape) for s in quantized) / total if total else 0.0
    print(f"quantize pass: {waiting.s - reading.s:.2f}s "
          f"({len(quantized)} quantized / {len(layout) - len(quantized)} preserved, "
          f"fraction {fraction:.4f})", file=sys.stderr)
    _emit_manifest(args, "quantize",
                   {**config.to_dict(), "policy_digest": policy.digest()},
                   {"read": t1 - t0 + reading.s, "quantize": waiting.s - reading.s,
                    "write": t2 - t1 - waiting.s, "total": t2 - t0}, out)
    return 0


def _reconstruction(spec: TensorSpec, block):
    return dequantize(block) if isinstance(block, QuantizedTensor) else block


def cmd_dequantize(args) -> int:
    t0 = time.perf_counter()
    out = args.out or os.path.splitext(args.model)[0] + ".dequant.safetensors"
    with read_benq(args.model) as (config, _, specs, entries):
        write_container(out, specs, (blocks for _, blocks in
                                     _map_blocks(_reconstruction, entries, args.threads)))
    _emit_manifest(args, "dequantize", config.to_dict(),
                   {"total": time.perf_counter() - t0}, out)
    return 0


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    schedules = [Schedule.parse(s.strip()) for s in args.schedules.split(",") if s.strip()]
    if not schedules:
        raise ConfigError("--schedules needs at least one schedule")
    configs = [QuantConfig(bits=args.bits, group_size=args.group_size,
                           schedule=s, epsilon=args.epsilon) for s in schedules]
    with read_container(args.container, configs[0].block_elems) as (_, tensors):
        rows = [rep.to_dict() for reports in compare_tensors(tensors, configs, args.threads)
                for rep in reports]
    text = json.dumps({"source": os.path.basename(args.container), "rows": rows},
                      indent=2) + "\n"
    _write_text(args.out, text)
    if args.csv:
        _write_text(args.csv, _rows_csv(rows))
    _emit_manifest(args, "compare",
                   {"bits": args.bits, "group_size": args.group_size,
                    "schedules": [s.value for s in schedules], "epsilon": args.epsilon},
                   {"total": time.perf_counter() - t0}, args.out)
    return 0


def _finite_blocks(name: str, spec: synth.SynthSpec, blocks):
    """The float32 blocks of a synthetic tensor; DataError at one that holds +/-inf."""
    for block in blocks:
        if not np.isfinite(block).all():
            raise DataError(f"tensor {name!r}: {spec.describe()} has values beyond "
                            "float32's range")
        yield block


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    parsed = {}
    for item in args.tensor:
        name, _, spec_text = item.partition("=")
        if not name or not spec_text:
            raise ConfigError(f"--tensor expects NAME=DIST(...), got {item!r}")
        if name in parsed:
            raise ConfigError(f"duplicate tensor name {name!r}")
        parsed[name] = synth.parse_spec(spec_text)
    specs = [TensorSpec(name, (spec.n,), "F32") for name, spec in parsed.items()]
    # each tensor is generated a chunk at a time, as the writer reaches it
    write_container(args.out, specs,
                    (_finite_blocks(name, spec,
                                    synth.synth_blocks(spec, rng.derive_seed(args.seed, name)))
                     for name, spec in parsed.items()))
    _emit_manifest(args, "synth",
                   {"tensors": {i.partition('=')[0]: i.partition('=')[2] for i in args.tensor}},
                   {"total": time.perf_counter() - t0}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benq",
                                     description="Log-uniform weight quantization toolkit")
    parser.add_argument("--version", action="version", version=f"benq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_thread_count, default=None,
                        help="worker threads, at least 1 (default: BENQ_THREADS or all cores)")

    codebook = argparse.ArgumentParser(add_help=False)
    codebook.add_argument("--bits", type=int, default=4, help="bit width (2..8)")
    codebook.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                          help="smallest positive level of the log schedule")
    grid = argparse.ArgumentParser(add_help=False, parents=[codebook])
    grid.add_argument("--group-size", type=int, default=8, help="elements per scale group")

    p = sub.add_parser("levels", parents=[codebook], help="print a codebook as JSON")
    p.add_argument("--schedule", choices=["log", "linear", "rtn"], default="log")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("analyze", parents=[common],
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

    p = sub.add_parser("synth", help="generate a synthetic safetensors checkpoint")
    p.add_argument("--seed", type=int, default=0, help="base seed of every tensor's stream")
    p.add_argument("--tensor", action="append", required=True, metavar="NAME=DIST(...)",
                   help="e.g. w=loguniform(6,1000000); repeatable")
    p.add_argument("--out", required=True, help="output safetensors path")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    _keep_scratch_mapped()
    stopped = threading.Event()
    # the input files are hashed on this one thread while the command runs
    with ThreadPoolExecutor(max_workers=1) as digest_thread:
        try:
            if getattr(args, "threads", 1) is None:
                args.threads = _pool._default_threads()
            paths = [p for p in (getattr(args, a, None) for a in _INPUT_ARGS) if p]
            args._digests = digest_thread.submit(lambda: {p: _sha256(p, stopped) for p in paths})
            return args.func(args)
        except (BenqError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        finally:
            stopped.set()  # after a failure, the digest stops at its next chunk


if __name__ == "__main__":
    sys.exit(main())

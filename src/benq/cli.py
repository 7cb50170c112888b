"""The `benq` command line tool.

Subcommands: levels, analyze, quantize, dequantize, compare, synth.
Diagnostics go to stderr; requested data goes to stdout or --out.  Each
command but `levels` returns what it made, and `main` writes every run's
manifest (command, argv, tool version, seed, config, input digests,
timings) next to the output, or to stderr when the result goes to stdout;
the input files are hashed on one background thread while the command
runs.  Only `synth` draws random numbers, so only it
takes `--seed`; every other manifest records a null seed.  `analyze`
counts the leading digit of every element of every tensor.  Exit codes:
0 success, 1 operational error, 2 usage error.

The `benq` command (`_console`) flushes stdout and stderr once `main` has
returned and ends the process with `os._exit`, without tearing the
interpreter down; a failed flush exits 1.  `main` called from Python
returns its code and leaves the interpreter as it was.  Each subcommand
imports only what it uses beyond the common modules: `synth` and `rng`
only in `synth`, `csv` only under `--csv`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
import threading
import time
from io import StringIO
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, _pool, benford
from ._pool import _map_blocks
from .errors import BenqError, ConfigError, DataError
from .io import (TensorSpec, _atomic_write, parse_json, read_benq, read_container, write_benq,
                 write_container)
from .levels import DEFAULT_EPSILON, Schedule, level_table
# compare_schedules is not called here: compare streams every tensor through
# compare_tensors.  perfbench's tracer still wraps the name on this module.
from .metrics import compare_schedules, compare_tensors
from .quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig, QuantPolicy, QuantizedTensor,
                        apply_policy, dequantize)

if TYPE_CHECKING:
    from .synth import SynthSpec


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_INPUT_ARGS = ("container", "model", "policy")  # the arguments naming input files, in order
_DIGEST_CHUNK = 1 << 18  # bytes hashed at a time, read into one reused buffer


def _keep_scratch_mapped() -> None:
    """Keep freed blocks mapped for the next block.

    By default glibc sets its mmap and trim thresholds from the largest
    mapped allocation freed so far, so it hands each freed block of a few
    MB back to the system and faults it in again for the next one.  Here
    allocations below 16 MB come from the heap, and up to 32 MB of free
    heap is kept instead.  What this keeps mapped is the reader's fresh
    float32 block on the main thread (`io._read_array`): measured on a
    quantize at two threads, the reads took about 8x fewer minor faults
    and half the time, while the workers' quantize scratch faulted about
    as often either way.  Peak memory does not change: it is reached
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


def _sha256(path: str, stopped: threading.Event) -> str | None:
    """The hex sha256 of a file; None at the next chunk once `stopped` is set."""
    h = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as f:
        while n := f.readinto(buf):
            if stopped.is_set():
                return None
            h.update(view[:n])
    return h.hexdigest()


class _InputDigests:
    """The sha256 of each input file, hashed on a thread of its own.

    Entering starts the thread; leaving stops it at its next chunk, if it is
    still hashing, and joins it, so it never outlives the with-block.
    """

    def __init__(self, paths: list[str]):
        self._stopped = threading.Event()
        self._digests: dict[str, str | None] = {}
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, args=(paths,), name="benq-digest")

    def _run(self, paths: list[str]) -> None:
        try:
            self._digests = {p: _sha256(p, self._stopped) for p in paths}
        except Exception as e:  # raised again by result(), on the thread that reads it
            self._error = e

    def __enter__(self) -> _InputDigests:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        self._thread.join()

    def result(self) -> dict[str, str | None]:
        """{path: hex sha256} of every input, once hashed; the digest's error if it failed."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._digests


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


def _emit_manifest(args, argv: list[str], digests: _InputDigests, config: dict, timings: dict,
                   out_path: str | None) -> None:
    """Write the run's manifest; it waits for the input `digests`."""
    manifest = {
        "command": args.command,
        "argv": argv,
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": digests.result(),
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    blob = json.dumps(manifest, indent=2)
    if out_path:
        _write_text(out_path + ".manifest.json", blob + "\n")
    else:
        print(blob, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    """Replace the file at `path` with `text` in UTF-8, atomically."""
    _atomic_write(path, lambda f: f.write(text.encode("utf-8")))


def _write_report(args, report: dict, header: list[str], rows) -> None:
    """With --csv the table: `header`, then `rows`, a float as its repr and
    None as ""; then the report JSON to --out or stdout."""
    if args.csv:
        import csv

        table = StringIO()
        w = csv.writer(table, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
        _write_text(args.csv, table.getvalue())
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails the run here, before its manifest


def cmd_levels(args) -> None:
    out = {"schedule": args.schedule, "bits": args.bits}
    if args.schedule == Schedule.LOG_UNIFORM:
        out["epsilon"] = args.epsilon
    out["levels"] = level_table(args.schedule, args.bits, args.epsilon).tolist()
    print(json.dumps(out, indent=2))


def cmd_analyze(args):
    policy = _load_policy(args.policy, no_policy=False)
    with read_container(args.container, stored16=True) as (_, tensors):
        report = benford.model_report(tensors, policy, source=os.path.basename(args.container),
                                      threads=args.threads)
    cols = ["name", "family", "numel", "zeros_skipped", "mad"]
    _write_report(args, report, cols + [f"count_{d}" for d in range(1, 10)],
                  ([r[c] for c in cols] + r["counts"] for r in report["per_tensor"]))
    return {"policy_digest": policy.digest()}, {}, args.out


def cmd_quantize(args):
    t0 = time.perf_counter()
    config = QuantConfig(args.bits, args.group_size, args.schedule, args.epsilon)
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
    return ({**config.to_dict(), "policy_digest": policy.digest()},
            {"read": t1 - t0 + reading.s, "quantize": waiting.s - reading.s,
             "write": t2 - t1 - waiting.s}, out)


def _reconstruction(spec: TensorSpec, block):
    return dequantize(block) if isinstance(block, QuantizedTensor) else block


def cmd_dequantize(args):
    out = args.out or os.path.splitext(args.model)[0] + ".dequant.safetensors"
    with read_benq(args.model) as (config, _, specs, entries):
        write_container(out, specs, (blocks for _, blocks in
                                     _map_blocks(_reconstruction, entries, args.threads)))
    return config.to_dict(), {}, out


def cmd_compare(args):
    schedules = [s.strip() for s in args.schedules.split(",") if s.strip()]
    if not schedules:
        raise ConfigError("--schedules needs at least one schedule")
    configs = [QuantConfig(args.bits, args.group_size, s, args.epsilon) for s in schedules]
    with read_container(args.container, configs[0].block_elems) as (_, tensors):
        rows = [row for per_tensor in compare_tensors(tensors, configs, args.threads)
                for row in per_tensor]
    cols = ["name", "schedule", "bits", "group_size", "mse", "max_abs_err", "rel_fro_err"]
    _write_report(args, {"source": os.path.basename(args.container), "rows": rows},
                  cols, ([row[c] for c in cols] for row in rows))
    return ({"bits": args.bits, "group_size": args.group_size,
             "schedules": [c.schedule.value for c in configs], "epsilon": args.epsilon},
            {}, args.out)


def _finite_blocks(name: str, spec: SynthSpec, blocks):
    """The float32 blocks of a synthetic tensor; DataError at one that holds +/-inf."""
    for block in blocks:
        if not np.isfinite(block).all():
            raise DataError(f"tensor {name!r}: {spec.describe()} has values beyond "
                            "float32's range")
        yield block


def cmd_synth(args):
    from . import rng, synth

    parsed = {}  # name: (spec text, spec)
    for item in args.tensor:
        name, _, spec_text = item.partition("=")
        if not name or not spec_text:
            raise ConfigError(f"--tensor expects NAME=DIST(...), got {item!r}")
        if name in parsed:
            raise ConfigError(f"duplicate tensor name {name!r}")
        parsed[name] = spec_text, synth.parse_spec(spec_text)
    specs = [TensorSpec(name, (spec.n,), "F32") for name, (_, spec) in parsed.items()]
    # each tensor is generated a chunk at a time, as the writer reaches it
    write_container(args.out, specs,
                    (_finite_blocks(name, spec,
                                    synth.synth_blocks(spec, rng.derive_seed(args.seed, name)))
                     for name, (_, spec) in parsed.items()))
    return {"tensors": {name: text for name, (text, _) in parsed.items()}}, {}, args.out


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
    chosen = p.add_mutually_exclusive_group()
    chosen.add_argument("--policy",
                        help="policy JSON: family_patterns and the quantize_families to quantize")
    chosen.add_argument("--no-policy", action="store_true", help="quantize every tensor")
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
    argv = list(argv) if argv is not None else sys.argv[1:]
    _keep_scratch_mapped()
    paths = [p for p in (getattr(args, a, None) for a in _INPUT_ARGS) if p]
    # the input files are hashed on one thread while the command runs; after a
    # failure the digest stops at its next chunk
    with _InputDigests(paths) as digests:
        try:
            if getattr(args, "threads", 1) is None:
                args.threads = _pool._default_threads()
            t0 = time.perf_counter()
            made = args.func(args)  # (manifest config, stage timings, output path), or None
            if made is not None:
                config, timings, out = made
                _emit_manifest(args, argv, digests, config,
                               {**timings, "total": time.perf_counter() - t0}, out)
            return 0
        except (BenqError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


def _console() -> None:
    """The `benq` command: `main`, then a flush of stdout and stderr and `os._exit`.

    By then `main` has closed every output file, joined the digest thread and
    waited for every pool task, so skipping the interpreter's teardown
    (atexit handlers, the idle pool workers' join, freeing every module)
    loses nothing.  argparse's exit (help, --version, a usage error) takes
    the same path with its own code; any other exception leaves normally,
    with its traceback.  A flush that fails, say into a closed pipe, exits 1.
    """
    try:
        rc = main()
    except SystemExit as e:
        rc = e.code
    try:
        sys.stdout.flush()
    except OSError as e:  # the reader may have missed some of the output
        if rc == 0:
            print(f"error: stdout: {e}", file=sys.stderr)
        rc = rc or 1
    try:
        sys.stderr.flush()
    except OSError:
        rc = rc or 1
    os._exit(rc)


if __name__ == "__main__":
    _console()

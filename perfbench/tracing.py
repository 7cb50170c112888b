"""Per-layer timings of benq, taken by wrapping its public functions from outside.

Each target is replaced at the module attribute its callers resolve, so
that ``benq.metrics.quantize_tensor`` (what compare_schedules calls) and
``benq.quantizer.quantize_tensor`` (what apply_policy calls) are both seen.
Calls from worker threads are accumulated under a lock; ``.s`` is busy time
summed over threads, rates are input elements or written bytes per busy
second, and ``cli.self_s`` is the wall time of ``cli.main`` not covered by
a wrapped call made from the main thread at the top level.

Run as a script, it traces one CLI step in this process:

    python3 perfbench/tracing.py STEP METRICS.json BENQ-ARGS...

and writes ``{"rc", "wall_s", "metrics"}`` to METRICS.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

# (module, attribute, metric key, rate): rate is None, or (what, argument
# position) where what is "elem" (elements of that argument) or "byte"
# (size of the file that argument names, after the call)
TARGETS = (
    ("benq.cli", "read_container", "io.read_container", None),
    ("benq.cli", "write_container", "io.write_container", ("byte", 0)),
    ("benq.cli", "read_benq", "io.read_benq", None),
    ("benq.cli", "write_benq", "io.write_benq", ("byte", 0)),
    ("benq.cli", "apply_policy", "quantizer.apply_policy", None),
    ("benq.cli", "dequantize", "quantizer.dequantize", ("elem", 0)),
    ("benq.cli", "compare_schedules", "metrics.compare_schedules", None),
    ("benq.benford", "model_report", "benford.model_report", None),
    ("benq.benford", "digit_histogram", "benford.digit_histogram", ("elem", 0)),
    ("benq.quantizer", "quantize_tensor", "quantizer.quantize_tensor", ("elem", 0)),
    ("benq.quantizer", "nearest_level_indices", "quantizer.nearest_level_indices",
     ("elem", 0)),
    ("benq.metrics", "quantize_tensor", "quantizer.quantize_tensor", ("elem", 0)),
    ("benq.metrics", "dequantize", "quantizer.dequantize", ("elem", 0)),
    ("benq.metrics", "distortion", "metrics.distortion", None),
    ("benq.io", "pack_indices", "io.pack_indices", ("elem", 0)),
    ("benq.io", "unpack_indices", "io.unpack_indices", ("elem", 2)),
    ("benq.synth", "synth_tensor", "synth.synth_tensor", None),
    ("benq.rng", "raw64", "rng.raw64", ("elem", 2)),
)


def _elements(value) -> int:
    """Elements of an array, a QuantizedTensor or a WeightTensor, or a count itself."""
    if isinstance(value, int):
        return value
    for attr in ("size", "numel"):
        if hasattr(value, attr):
            return int(getattr(value, attr))
    return int(value.data.size)


class Tracer:
    """Accumulates calls, busy seconds and sizes per wrapped function."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.stats: dict[str, list] = {key: [0, 0.0, 0] for _, _, key, _ in TARGETS}
        self.top_level_s = 0.0

    def _wrap(self, fn, key: str, rate: tuple[str, int] | None):
        params = list(inspect.signature(fn).parameters)

        def size(args: tuple, kwargs: dict) -> int:
            what, pos = rate
            value = args[pos] if pos < len(args) else kwargs[params[pos]]
            return os.path.getsize(value) if what == "byte" else _elements(value)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            self._local.depth = depth + 1
            done = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dt = time.perf_counter() - t0
                self._local.depth = depth
                n = size(args, kwargs) if rate and done else 0
                with self._lock:
                    s = self.stats[key]
                    s[0] += 1
                    s[1] += dt
                    s[2] += n
                    if depth == 0 and threading.current_thread() is threading.main_thread():
                        self.top_level_s += dt
        return wrapper

    def install(self, modules: tuple[str, ...] | None = None) -> None:
        for mod_name, attr, key, rate in TARGETS:
            if modules is not None and mod_name not in modules:
                continue
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, key, rate))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def metrics(self, step: str, wall_s: float) -> dict[str, float]:
        """Every metric this tracer can give for one step, named ``step.key.stat``."""
        out = {}
        for _, _, key, rate in TARGETS:
            calls, busy, size = self.stats[key]
            out[f"{step}.{key}.calls"] = calls
            out[f"{step}.{key}.s"] = busy
            if rate:
                unit = "mb" if rate[0] == "byte" else "melem"
                out[f"{step}.{key}.{unit}_per_s"] = size / busy / 1e6 if busy > 0 else 0.0
        policy_s = self.stats["quantizer.apply_policy"][1]
        out[f"{step}.quantizer.apply_policy.parallelism"] = (
            self.stats["quantizer.quantize_tensor"][1] / policy_s if policy_s > 0 else 0.0)
        out[f"{step}.cli.self_s"] = wall_s - self.top_level_s
        return out


def main(argv: list[str]) -> int:
    step, out_path, benq_args = argv[0], argv[1], argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import benq.cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = benq.cli.main(benq_args)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"rc": rc, "wall_s": wall, "metrics": tracer.metrics(step, wall)}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

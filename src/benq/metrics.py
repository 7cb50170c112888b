"""Reconstruction-error metrics and schedule comparisons.

All statistics are accumulated in float64 regardless of input dtype.
`compare_tensors` walks a stream of tensors once, a block of groups at a
time, every block of every tensor going through one bounded thread map:
every schedule shares the block's groups (float32 for float16 and float32
input), its non-finite check, its group maxima and its sum of squares, and
schedules of one top level (log and linear) also share the scales, the
float32 quotient and its key-table keys.  Each schedule then quantizes,
reconstructs and measures the block through the kernel steps
`quantize_tensor` and `dequantize` are made of.  `compare_schedules` is the
same walk over one in-memory tensor.  A compare row (one tensor, one config)
holds name, schedule, bits, group_size, mse, max_abs_err and rel_fro_err.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._pool import TensorSpec, _map_blocks
from .errors import ConfigError, DataError
# dequantize and quantize_tensor are not called here: compare runs the block
# steps they are made of.  perfbench's tracer still wraps both names on this module.
from .quantizer import (QuantConfig, _promote_block, _quantize_groups, _reconstruct,
                        _whole_groups, dequantize, quantize_tensor)


def _err_sums(original: np.ndarray, reconstructed: np.ndarray,
              out: np.ndarray | None = None) -> tuple[float, float]:
    """(sum of squared errors, max |error|) of flat arrays, the error kept in `out`.

    Computed in float64 whatever the input dtype.  The sums are numpy's
    pairwise sums, as in np.mean; np.dot and np.linalg.norm would run on
    the BLAS thread pool.
    """
    err = np.subtract(original, reconstructed, dtype=np.float64, out=out)
    if not err.size:
        return 0.0, 0.0
    np.abs(err, out=err)
    max_abs = float(err.max())
    return float(np.square(err, out=err).sum()), max_abs


def _report(name: str, config: QuantConfig | None, numel: int,
            sum_sq_err: float, sum_sq: float, max_abs: float) -> dict:
    norm_a, norm_e = math.sqrt(sum_sq), math.sqrt(sum_sq_err)
    if norm_a == 0.0:
        rel = 0.0 if norm_e == 0.0 else float("inf")
    else:
        rel = norm_e / norm_a
    return {"name": name, "schedule": config.schedule.value if config else "",
            "bits": config.bits if config else 0,
            "group_size": config.group_size if config else 0,
            "mse": sum_sq_err / numel if numel else 0.0, "max_abs_err": max_abs,
            "rel_fro_err": rel}


def distortion(original: np.ndarray, reconstructed: np.ndarray, *,
               name: str = "", config: QuantConfig | None = None) -> dict:
    """Elementwise error statistics between a tensor and its reconstruction as
    a compare row; without a config, schedule is "" and bits and group_size 0."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    flat = a.ravel()
    sum_sq_err, max_abs = _err_sums(flat, b.ravel())
    return _report(name, config, a.size, sum_sq_err, float(np.square(flat).sum()), max_abs)


def _group_size(configs: Sequence[QuantConfig]) -> int:
    sizes = sorted({cfg.group_size for cfg in configs})
    if len(sizes) != 1:
        raise ConfigError(f"compare needs configs of one group size, got {sizes}")
    return sizes[0]


def compare_tensors(tensors: Iterable[tuple[TensorSpec, Iterable]],
                    configs: Sequence[QuantConfig],
                    threads: int = 1) -> Iterator[list[dict]]:
    """Quantize and reconstruct each streamed tensor under each config, in given order.

    `tensors` yields (spec, blocks) pairs whose blocks but the last hold
    whole groups, as quantize_tensor's blocks do; the configs share one
    group size (ConfigError if they are empty or do not).  Lazily yields
    each tensor's rows, one per config: "name", "schedule", "bits",
    "group_size", "mse", "max_abs_err" and "rel_fro_err".  A block is
    grouped, checked and reduced to group maxima and Σw² once.  The configs of each top level then take
    their scales, one quotient and their nearest levels; once every config
    has its indices, each rebuilds the float32 reconstruction and keeps
    Σerr² and max|err|.  One float64 scratch buffer holds the quotients, the
    reconstructions and the errors in turn.  Only these sums leave a block,
    and a tensor's are added in block order, so the rows do not depend on
    `threads`.
    """
    G = _group_size(configs)
    levels = [cfg.levels for cfg in configs]

    def work(spec: TensorSpec, block: np.ndarray) -> tuple[int, float, list]:
        context = f"tensor {spec.name or '<unnamed>'}"
        groups, gmax = _promote_block(np.asarray(block).ravel(), G, context)
        w = groups.ravel()[:np.size(block)]
        buf = np.empty(groups.size)  # the quotient, then the reconstruction, then the error
        sum_sq = float(np.square(w, out=buf[:w.size], dtype=np.float64).sum())
        q = buf.view(groups.dtype)[:groups.size].reshape(groups.shape)
        idx = [np.empty(groups.size, dtype=np.ubyte) for _ in levels]
        scales = _quantize_groups(groups, gmax, levels, context, q, idx)
        return w.size, sum_sq, [
            _err_sums(w, _reconstruct(i, s, lv, G, buf)[:w.size], buf[:w.size])
            for i, s, lv in zip(idx, scales, levels)]

    checked = ((s, _whole_groups(b, G, s.name)) for s, b in tensors)
    for spec, blocks in _map_blocks(work, checked, threads):
        numel = 0
        totals = [[0.0, 0.0, 0.0] for _ in configs]
        for n, sum_sq, sums in blocks:
            numel += n
            for t, (sum_sq_err, max_abs) in zip(totals, sums):
                t[0] += sum_sq_err
                t[1] += sum_sq
                t[2] = max(t[2], max_abs)
        yield [_report(spec.name, cfg, numel, *t) for cfg, t in zip(configs, totals)]


def compare_schedules(data: np.ndarray, configs: Sequence[QuantConfig],
                      name: str = "", threads: int = 1) -> list[dict]:
    """compare_tensors of one in-memory tensor, in the group-aligned blocks of
    quantize_tensor; a tensor of one block gives exactly `distortion` of its
    reconstruction."""
    _group_size(configs)  # raises for configs empty or of mixed group sizes
    step = configs[0].block_elems
    flat = np.asarray(data).ravel()
    blocks = (flat[i:i + step] for i in range(0, flat.size, step))
    (rows,) = compare_tensors([(TensorSpec(name, flat.shape, None), blocks)], configs, threads)
    return rows

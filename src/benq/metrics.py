"""Reconstruction-error metrics and schedule comparisons.

All statistics are accumulated in float64 regardless of input dtype.
`compare_schedules` walks a tensor once per block of groups: every
schedule of one group size shares the block's float64 promotion, its
non-finite check, its group maxima and its sum of squares, and each
schedule then quantizes, reconstructs and measures the block through the
kernel steps `quantize_tensor` and `dequantize` are made of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._pool import _map
from .errors import DataError
# dequantize and quantize_tensor are not called here: compare runs the block
# steps they are made of.  perfbench's tracer still wraps both names on this module.
from .quantizer import (QuantConfig, _block_groups, _promote_block, _quantize_groups,
                        _reconstruct, dequantize, quantize_tensor)


@dataclass(frozen=True)
class DistortionReport:
    """Error summary for one (tensor, config) pair."""

    name: str
    schedule: str
    bits: int
    group_size: int
    mse: float
    max_abs_err: float
    rel_fro_err: float

    def to_dict(self) -> dict:
        return {
            "name": self.name, "schedule": self.schedule, "bits": self.bits,
            "group_size": self.group_size, "mse": self.mse,
            "max_abs_err": self.max_abs_err, "rel_fro_err": self.rel_fro_err,
        }


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
            sum_sq_err: float, sum_sq: float, max_abs: float) -> DistortionReport:
    norm_a, norm_e = math.sqrt(sum_sq), math.sqrt(sum_sq_err)
    if norm_a == 0.0:
        rel = 0.0 if norm_e == 0.0 else float("inf")
    else:
        rel = norm_e / norm_a
    return DistortionReport(
        name=name,
        schedule=config.schedule.value if config else "",
        bits=config.bits if config else 0,
        group_size=config.group_size if config else 0,
        mse=sum_sq_err / numel if numel else 0.0, max_abs_err=max_abs, rel_fro_err=rel,
    )


def distortion(original: np.ndarray, reconstructed: np.ndarray, *,
               name: str = "", config: QuantConfig | None = None) -> DistortionReport:
    """Elementwise error statistics between a tensor and its reconstruction."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"shape mismatch: {a.shape} vs {b.shape}")
    flat = a.ravel()
    sum_sq_err, max_abs = _err_sums(flat, b.ravel())
    return _report(name, config, a.size, sum_sq_err, float(np.square(flat).sum()), max_abs)


def compare_schedules(data: np.ndarray, configs: Sequence[QuantConfig],
                      name: str = "", threads: int = 1) -> list[DistortionReport]:
    """Quantize and reconstruct one tensor under each config, in given order.

    The tensor is walked once per group size, in the group-aligned blocks
    of quantize_tensor.  A block is promoted to float64, checked and
    reduced to group maxima and Σw² once; then each config of that group
    size takes its scales, quotients and nearest levels, rebuilds the
    float32 reconstruction and keeps Σerr² and max|err|, reusing one
    float64 scratch buffer.  Only these sums leave a block, and they are
    added in block order, so the reports do not depend on `threads`; a
    tensor of one block gives exactly `distortion` of its reconstruction.
    """
    flat = np.asarray(data).ravel()
    context = f"tensor {name or '<unnamed>'}"
    levels = [cfg.codebook().levels for cfg in configs]
    by_size: dict[int, list[int]] = {}  # group size -> its configs' positions
    for i, cfg in enumerate(configs):
        by_size.setdefault(cfg.group_size, []).append(i)
    items = []  # (group size, block start, block stop)
    for G in by_size:
        step = _block_groups(G) * G
        items += [(G, start, min(start + step, flat.size)) for start in range(0, flat.size, step)]

    def work(item):
        G, start, stop = item
        groups, gmax = _promote_block(flat[start:stop], G, context)
        w = groups.ravel()[:stop - start]
        buf = np.empty(groups.size)  # the quotient, then the reconstruction, then the error
        sum_sq = float(np.square(w, out=buf[:w.size]).sum())

        def measure(i: int) -> tuple[float, float]:
            # one schedule; its indices and float32 reconstruction die on return
            idx, s = _quantize_groups(groups, gmax, levels[i], context, buf.reshape(groups.shape))
            rec = _reconstruct(idx, s, levels[i], G, buf)
            return _err_sums(w, rec[:w.size], buf[:w.size])

        return sum_sq, [measure(i) for i in by_size[G]]

    totals = [[0.0, 0.0, 0.0] for _ in configs]
    for (G, _, _), (sum_sq, sums) in zip(items, _map(work, items, threads)):
        for i, (sum_sq_err, max_abs) in zip(by_size[G], sums):
            t = totals[i]
            t[0] += sum_sq_err
            t[1] += sum_sq
            t[2] = max(t[2], max_abs)
    return [_report(name, cfg, flat.size, *t) for cfg, t in zip(configs, totals)]

"""Reconstruction-error metrics and schedule comparisons.

All statistics are accumulated in float64 regardless of input dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._pool import _map
from .errors import DataError
from .quantizer import QuantConfig, _block_groups, dequantize, quantize_tensor


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


def _sums(original: np.ndarray, reconstructed: np.ndarray) -> tuple[float, float, float]:
    """(sum of squared errors, sum of squared originals, max |error|) of flat arrays.

    Computed in float64 whatever the input dtype.  The sums are numpy's
    pairwise sums, as in np.mean; np.dot and np.linalg.norm would run on
    the BLAS thread pool.
    """
    err = np.subtract(original, reconstructed, dtype=np.float64)
    if not err.size:
        return 0.0, 0.0, 0.0
    np.abs(err, out=err)
    max_abs = float(err.max())
    return (float(np.square(err, out=err).sum()),
            float(np.square(original, dtype=np.float64).sum()), max_abs)


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
    return _report(name, config, a.size, *_sums(a.ravel(), b.ravel()))


def compare_schedules(data: np.ndarray, configs: Sequence[QuantConfig],
                      name: str = "", threads: int = 1) -> list[DistortionReport]:
    """Quantize and reconstruct one tensor under each config, in given order.

    The tensor is walked in the group-aligned blocks of quantize_tensor.
    Each (config, block) item keeps only its float64 sums, and the sums
    are added in block order, so the reports do not depend on `threads`;
    a tensor of one block gives exactly `distortion` of its reconstruction.
    """
    flat = np.asarray(data).ravel()
    items = []  # (config index, block start, block stop)
    for i, cfg in enumerate(configs):
        step = _block_groups(cfg.group_size) * cfg.group_size
        items += [(i, start, start + step) for start in range(0, flat.size, step)]

    def work(item):
        i, start, stop = item
        block = flat[start:stop]
        return _sums(block, dequantize(quantize_tensor(block, configs[i], name)))

    partials = _map(work, items, threads)
    totals = [[0.0, 0.0, 0.0] for _ in configs]
    for (i, _, _), (sum_sq_err, sum_sq, max_abs) in zip(items, partials):
        t = totals[i]
        t[0] += sum_sq_err
        t[1] += sum_sq
        t[2] = max(t[2], max_abs)
    return [_report(name, cfg, flat.size, *t) for cfg, t in zip(configs, totals)]

"""First-digit statistics and per-family compliance reports.

The leading digit of x is d in 1..9 with |x| = d.xxx * 10**e.  A weight
population whose log10-magnitudes are spread uniformly over several decades
follows Benford's law, P(d) = log10(1 + 1/d); narrowly clustered populations
(typical for norm gains) do not.  Mean absolute deviation (MAD) from the
Benford probabilities is the compliance score used throughout:

    mad = (1/9) * sum_d |p_d - P(d)|

Zeros carry no leading digit and are skipped (counted separately); NaN or
Inf anywhere in a tensor is a data error.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import DataError
from .levels import BENFORD_PROBS
from . import rng

if TYPE_CHECKING:
    from .quantizer import QuantPolicy

# Tensors above this size are subsampled (with replacement) for histograms.
SUBSAMPLE_THRESHOLD = 50_000_000
SUBSAMPLE_SIZE = 10_000_000


def _leading_digits(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Digits (1..9) of the nonzero entries plus the count of exact zeros."""
    x = np.abs(np.asarray(values, dtype=np.float64).ravel())
    if not np.all(np.isfinite(x)):
        raise DataError("leading digit is undefined for NaN or Inf values")
    nonzero = x[x != 0.0]
    zeros = x.size - nonzero.size
    if nonzero.size == 0:
        return np.empty(0, dtype=np.int64), zeros
    e = np.floor(np.log10(nonzero))
    # 10.0**e degrades near the subnormal range and overflows past 1e308;
    # scaling by 100 decades keeps the leading digit and lands in safe range
    extreme = (e < -290) | (e > 290)
    if np.any(extreme):
        nonzero = nonzero.copy()
        nonzero[e < -290] *= 1e100
        nonzero[e > 290] *= 1e-100
        e = np.floor(np.log10(nonzero))
    m = nonzero / np.power(10.0, e)
    # floor(log10) can be off by one decade at representation boundaries
    m[m < 1.0] *= 10.0
    m[m >= 10.0] /= 10.0
    d = m.astype(np.int64)
    np.clip(d, 1, 9, out=d)
    return d, zeros


def first_digit(x: float) -> int | None:
    """Leading digit of x, or None for an exact zero."""
    if not math.isfinite(x):
        raise DataError(f"leading digit is undefined for {x!r}")
    if x == 0.0:
        return None
    d, _ = _leading_digits(np.array([x]))
    return int(d[0])


@dataclass(frozen=True)
class DigitHistogram:
    """Counts of leading digits 1..9 over one value population."""

    counts: np.ndarray
    zeros_skipped: int = 0

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (9,) or np.any(c < 0):
            raise DataError("digit histogram needs 9 non-negative counts")
        object.__setattr__(self, "counts", c)
        c.flags.writeable = False

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def probs(self) -> np.ndarray:
        if self.total == 0:
            raise DataError("digit probabilities are undefined for an empty histogram")
        return self.counts / self.total


def digit_histogram(values: np.ndarray) -> DigitHistogram:
    """Histogram of leading digits over a tensor (zeros skipped, not counted)."""
    d, zeros = _leading_digits(np.asarray(values))
    counts = np.bincount(d, minlength=10)[1:10]
    return DigitHistogram(counts, zeros)


def mad_from_probs(probs: np.ndarray) -> float:
    """Mean absolute deviation of a 9-vector of digit probabilities from Benford."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (9,):
        raise DataError("expected 9 digit probabilities")
    return float(np.abs(p - BENFORD_PROBS).sum() / 9.0)


def mad_score(hist: DigitHistogram) -> float:
    """Benford MAD of a histogram; DataError if the histogram is empty."""
    return mad_from_probs(hist.probs())


def signed_deviations(hist: DigitHistogram) -> np.ndarray:
    """Per-digit signed deviations p_d - P(d); sums to ~0 by construction."""
    return hist.probs() - BENFORD_PROBS


class Family(str, Enum):
    ATTENTION_LINEAR = "attention_linear"
    MLP_LINEAR = "mlp_linear"
    NORM = "norm"
    EMBEDDING = "embedding"
    BIAS = "bias"
    OTHER = "other"


# Ordered substring rules; the first family whose pattern matches wins.
# Bias is recognized by name suffix ahead of everything else so that e.g.
# a projection bias lands in the bias family rather than with its matrix.
DEFAULT_FAMILY_PATTERNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (Family.NORM.value, ("norm", "ln")),
    (Family.EMBEDDING.value, ("embed", "wte", "wpe", "lm_head")),
    (Family.ATTENTION_LINEAR.value, ("q_proj", "k_proj", "v_proj", "o_proj", "attn")),
    (Family.MLP_LINEAR.value, ("fc", "mlp", "gate_proj", "up_proj", "down_proj", "dense")),
)


def classify_family(name: str, policy: "QuantPolicy | None" = None) -> Family:
    """Map a tensor name to its structural family by substring rules.

    A policy may carry its own ordered pattern table (family name -> substrings);
    otherwise the default transformer naming conventions apply.
    """
    if name.endswith(".bias"):
        return Family.BIAS
    patterns = getattr(policy, "family_patterns", None) or DEFAULT_FAMILY_PATTERNS
    lowered = name.lower()
    for family_name, subs in patterns:
        if any(s in lowered for s in subs):
            return Family(family_name)
    return Family.OTHER


@dataclass(frozen=True)
class DigitReport:
    """Digit statistics for a single named tensor."""

    name: str
    family: Family
    numel: int
    histogram: DigitHistogram
    mad: float | None
    subsample_seed: int | None = None

    @property
    def degenerate(self) -> bool:
        return self.mad is None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "family": self.family.value,
            "numel": self.numel,
            "counts": [int(c) for c in self.histogram.counts],
            "zeros_skipped": self.histogram.zeros_skipped,
            "mad": self.mad,
        }
        if self.mad is None:
            out["signed_deviations"] = None
        else:
            out["signed_deviations"] = [float(v) for v in signed_deviations(self.histogram)]
        if self.subsample_seed is not None:
            out["subsample_seed"] = self.subsample_seed
        return out


@dataclass(frozen=True)
class FamilySummary:
    family: Family
    n_tensors: int
    mean_mad: float
    median_mad: float

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n_tensors": self.n_tensors,
            "mean_mad": self.mean_mad,
            "median_mad": self.median_mad,
        }


@dataclass(frozen=True)
class ModelReport:
    source: str
    per_tensor: tuple[DigitReport, ...]
    per_family: tuple[FamilySummary, ...]

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "per_tensor": [r.to_dict() for r in self.per_tensor],
            "per_family": [s.to_dict() for s in self.per_family],
        }


def tensor_report(name: str, data: np.ndarray, policy: "QuantPolicy | None" = None,
                  seed: int = 0) -> DigitReport:
    """Digit report for one tensor, subsampling past SUBSAMPLE_THRESHOLD."""
    flat = np.asarray(data).ravel()
    sub_seed = None
    if flat.size > SUBSAMPLE_THRESHOLD:
        sub_seed = rng.derive_seed(seed, name)
        pick = (rng.uniform01(sub_seed, 0, SUBSAMPLE_SIZE) * flat.size).astype(np.int64)
        flat = flat[pick]
    hist = digit_histogram(flat)
    mad = mad_score(hist) if hist.total > 0 else None
    return DigitReport(name, classify_family(name, policy), int(np.asarray(data).size),
                       hist, mad, sub_seed)


def model_report(tensors: Mapping[str, np.ndarray], policy: "QuantPolicy | None" = None,
                 *, source: str = "", seed: int = 0, threads: int = 1) -> ModelReport:
    """Per-tensor and per-family digit statistics for a named tensor set.

    Tensors are ordered by descending MAD (degenerate tensors last); family
    summaries aggregate the non-degenerate tensors in declaration order.
    """
    items = list(tensors.items())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda kv: tensor_report(kv[0], kv[1], policy, seed), items))
    else:
        reports = [tensor_report(name, data, policy, seed) for name, data in items]
    reports.sort(key=lambda r: (r.mad is None, -(r.mad or 0.0), r.name))

    summaries = []
    for family in Family:
        mads = [r.mad for r in reports if r.family is family and r.mad is not None]
        if not mads:
            continue
        summaries.append(FamilySummary(family, len(mads), float(np.mean(mads)),
                                       float(statistics.median(mads))))
    return ModelReport(source, tuple(reports), tuple(summaries))

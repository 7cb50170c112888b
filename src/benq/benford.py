"""First-digit statistics and per-family compliance reports.

The leading digit of x is d in 1..9 with |x| = d.xxx * 10**e.  A weight
population whose log10-magnitudes are spread uniformly over several decades
follows Benford's law, P(d) = log10(1 + 1/d); narrowly clustered populations
(typical for norm gains) do not.  Mean absolute deviation (MAD) from the
Benford probabilities is the compliance score used throughout:

    mad = (1/9) * sum_d |p_d - P(d)|

Zeros carry no leading digit and are skipped (counted separately); NaN or
Inf anywhere in a tensor is a data error.

Digits are read from the float's bits and are exact for every finite
float32 and float64.  float32 and float64 tensors are read in their own
dtype, float16 as float32 (exact), anything else as float64.  For each of
the two formats a table, built once per process in integer arithmetic,
holds the bits of the smallest float >= d * 10**k for every digit d and
decade k; positive floats order like their bits, so a magnitude's digit
follows from the number of boundaries at or below its bits.  Digits are
counted a block at a time: a streamed tensor's blocks, or blocks of
_BLOCK_ELEMS elements of an in-memory one.  Each value is keyed on its top
16 bits (sign, exponent and leading mantissa bits), and a bincount over the
2**16 keys does most of the work: a key that holds no boundary has one digit
for all its values.  Only the values of split keys (a boundary strictly inside,
about 2% of a smooth float32 tensor; key 0, which holds zero and the
smallest subnormals, is always split) are looked up with `searchsorted`.
Keys with an all-ones exponent hold NaN and Inf.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from ._pool import _BLOCK_ELEMS, TensorSpec, _map_blocks
from .errors import DataError
from .levels import BENFORD_PROBS

if TYPE_CHECKING:
    from .quantizer import QuantPolicy

_KEY_BITS = 16            # a key is a float's sign, exponent and leading mantissa bits
_SPLIT, _NON_FINITE = 10, 11  # key classes beside the digits 1..9


@dataclass(frozen=True)
class _DigitTables:
    """Exact digit tables for one float format (float32 or float64), read-only.

    The key classes (a key's digit, _SPLIT or _NON_FINITE) are stored as
    runs of equal class over the keys in order, so that per-key counts add
    up by class in one `reduceat`.
    """

    boundaries: np.ndarray   # bits of the smallest float >= d * 10**k, ascending
    digit_after: np.ndarray  # [i]: digit of a magnitude with i boundaries at or below it
    split: np.ndarray        # per key: a boundary lies strictly inside it (and key 0)
    run_starts: np.ndarray   # first key of each run of equal class
    run_class: np.ndarray    # class of each run
    magnitude_mask: np.unsignedinteger  # every bit but the sign bit

    def digits(self, bits: np.ndarray) -> np.ndarray:
        """Leading digits of the values with these bits, 0 for zero, for any key."""
        magnitude = bits & self.magnitude_mask
        return self.digit_after[np.searchsorted(self.boundaries, magnitude, side="right")]


def _ceil_to_float(num: int, den: int, info: np.finfo) -> float:
    """num/den > 0 rounded up to the float format `info`, in exact integer arithmetic."""
    e = num.bit_length() - den.bit_length()  # 2**e <= num/den < 2**(e+1), or one above
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    q = max(e, info.minexp) - info.nmant  # exponent of one ulp at num/den
    m = -((-num << max(-q, 0)) // (den << max(q, 0)))
    return math.ldexp(m, q)


@functools.lru_cache(maxsize=None)
def _digit_tables(dtype: type) -> _DigitTables:
    """Tables over the decades from the smallest subnormal's to the largest
    finite float's; boundaries past the largest finite float are left out.

    A normal key spans a ratio of at most 1 + 2**-7 (float32) or 1 + 2**-4
    (float64), below 10/9, so it holds at most one boundary; subnormal keys
    can hold several, which `searchsorted` resolves alike.
    """
    info = np.finfo(dtype)
    uint = np.dtype(f"u{info.bits // 8}")
    shift = info.bits - _KEY_BITS
    top_num, top_den = float(info.max).as_integer_ratio()
    values, digits = [], []
    for k in range(math.floor(math.log10(float(info.smallest_subnormal))),
                   math.floor(math.log10(float(info.max))) + 1):
        for d in range(1, 10):
            num, den = d * 10 ** max(k, 0), 10 ** max(-k, 0)
            if num * top_den > top_num * den:
                break
            values.append(_ceil_to_float(num, den, info))
            digits.append(d)
    boundaries = np.array(values).astype(dtype).view(uint)
    digit_after = np.array([0] + digits, dtype=np.uint8)

    first = np.arange(1 << (_KEY_BITS - 1), dtype=uint) << shift  # positive keys' first values
    key_class = digit_after[np.searchsorted(boundaries, first, side="right")]
    key = boundaries >> shift
    key_class[key[boundaries != first[key]]] = _SPLIT
    key_class[0] = _SPLIT  # zero and the smallest subnormals
    key_class[int(np.array(np.inf, dtype=dtype).view(uint) >> shift):] = _NON_FINITE
    key_class = np.tile(key_class, 2)  # the sign bit does not change the digit
    run_starts = np.flatnonzero(np.diff(key_class, prepend=0))
    tables = _DigitTables(boundaries, digit_after, key_class == _SPLIT,
                          run_starts, key_class[run_starts], uint.type(np.iinfo(uint).max >> 1))
    for a in (boundaries, digit_after, tables.split, run_starts, tables.run_class):
        a.flags.writeable = False
    return tables


def _read_dtype(dtype: np.dtype) -> type:
    """float16 and float32 are read as float32, everything else as float64."""
    return np.float32 if dtype.kind == "f" and dtype.itemsize <= 4 else np.float64


def _digit_counts(flat: np.ndarray) -> np.ndarray:
    """Counts of zeros (slot 0) and of digits 1..9 over one flat block."""
    dtype = _read_dtype(flat.dtype)
    t = _digit_tables(dtype)
    uint = t.boundaries.dtype
    bits = np.ascontiguousarray(flat, dtype=dtype).view(uint)
    # the shift runs in the unsigned type; keys < 2**16 fit any index type
    keys = np.right_shift(bits, 8 * uint.itemsize - _KEY_BITS,
                          out=np.empty(bits.size, dtype=np.intp), casting="unsafe")
    key_counts = np.bincount(keys, minlength=1 << _KEY_BITS)
    # float64 adds counts exactly below 2**53
    per_class = np.bincount(t.run_class, weights=np.add.reduceat(key_counts, t.run_starts),
                            minlength=_NON_FINITE + 1)
    if per_class[_NON_FINITE]:
        raise DataError("leading digit is undefined for NaN or Inf values")
    counts = np.bincount(t.digits(bits[t.split[keys]]), minlength=10)  # values of split keys
    counts[1:] += per_class[1:10].astype(np.int64)
    return counts


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
    """Histogram of leading digits over a tensor (zeros skipped, not counted),
    counted in blocks of _BLOCK_ELEMS elements."""
    flat = np.asarray(values).ravel()
    counts = np.zeros(10, dtype=np.int64)
    for i in range(0, flat.size, _BLOCK_ELEMS):
        counts += _digit_counts(flat[i:i + _BLOCK_ELEMS])
    return DigitHistogram(counts[1:], int(counts[0]))


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
# The default policy quantizes exactly the two linear families.
DEFAULT_FAMILY_PATTERNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (Family.NORM.value, ("norm", "ln")),
    (Family.EMBEDDING.value, ("embed", "wte", "wpe", "lm_head")),
    (Family.ATTENTION_LINEAR.value, ("q_proj", "k_proj", "v_proj", "o_proj", "attn")),
    (Family.MLP_LINEAR.value, ("fc", "mlp", "gate_proj", "up_proj", "down_proj", "dense")),
)


def classify_family(name: str, policy: "QuantPolicy | None" = None) -> Family:
    """Map a tensor name to its structural family.

    A `.bias` suffix comes first; then the first family of the ordered
    pattern table (the policy's, else DEFAULT_FAMILY_PATTERNS) with a
    substring of the lowercased name; else OTHER.
    """
    if name.endswith(".bias"):
        return Family.BIAS
    patterns = DEFAULT_FAMILY_PATTERNS if policy is None else policy.family_patterns
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


def _digit_report(name: str, hist: DigitHistogram, policy: "QuantPolicy | None") -> DigitReport:
    """The report of a histogram over every element: each is a zero or has a digit."""
    mad = mad_score(hist) if hist.total > 0 else None
    return DigitReport(name, classify_family(name, policy), hist.total + hist.zeros_skipped,
                       hist, mad)


def model_report(tensors: Iterable[tuple[TensorSpec, Iterable]],
                 policy: "QuantPolicy | None" = None, *, source: str = "",
                 threads: int = 1) -> ModelReport:
    """Per-tensor and per-family digit statistics for a streamed tensor set.

    `tensors` yields (spec, blocks) pairs.  Every block of every tensor is
    counted as it arrives, through one bounded map with at most
    `threads + 2` blocks in flight (one when `threads` is 1), and a
    tensor's counts are added up.  Tensors are ordered by descending MAD
    (tensors without one last); family summaries aggregate the tensors
    with a MAD in declaration order.
    """
    def count(spec: TensorSpec, block: np.ndarray) -> DigitHistogram:
        return digit_histogram(block)

    reports = []
    for spec, hists in _map_blocks(count, tensors, threads):
        counts, zeros = np.zeros(9, dtype=np.int64), 0
        for h in hists:
            counts += h.counts
            zeros += h.zeros_skipped
        reports.append(_digit_report(spec.name, DigitHistogram(counts, zeros), policy))
    reports.sort(key=lambda r: (r.mad is None, -(r.mad or 0.0), r.name))

    summaries = []
    for family in Family:
        mads = [r.mad for r in reports if r.family is family and r.mad is not None]
        if not mads:
            continue
        # the median as statistics.median takes it; np.median would import numpy.ma
        ranked, mid = sorted(mads), len(mads) // 2
        median = ranked[mid] if len(mads) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
        summaries.append(FamilySummary(family, len(mads), float(np.mean(mads)), median))
    return ModelReport(source, tuple(reports), tuple(summaries))

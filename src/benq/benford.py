"""First-digit statistics and per-family compliance reports.

The leading digit of x is d in 1..9 with |x| = d.xxx * 10**e.  A weight
population whose log10-magnitudes are spread uniformly over several decades
follows Benford's law, P(d) = log10(1 + 1/d); narrowly clustered populations
(typical for norm gains) do not.  Mean absolute deviation (MAD) from the
Benford probabilities is the compliance score used throughout:

    mad = (1/9) * sum_d |p_d - P(d)|

Zeros carry no leading digit and are skipped (counted separately); NaN or
Inf anywhere in a tensor is a data error.  `model_report` returns the JSON
object of `benq analyze`: source, per_tensor rows (name, family, numel, counts,
zeros_skipped, mad, signed_deviations) and per_family rows (family,
n_tensors, mean_mad, median_mad).

Digits are read from the float's bits and are exact for every finite value
of the four formats counted: F16 and BF16 (a tensor's stored 16-bit
patterns, and float16 arrays by their bits), float32, and float64 (anything
else, converted).  Digits are counted a block at a time: a streamed
tensor's blocks, or blocks of _BLOCK_ELEMS elements of an in-memory one.
Each value is keyed on its top 16 bits (sign, exponent and leading mantissa
bits; all of a 16-bit value), and a bincount over the 2**16 keys does most
of the work: each format's table, built once per process, gives the digit
of every key that holds one, so per-key counts add up by digit.  Only
float32 and float64 have split keys, whose values have different digits:
a boundary d * 10**k lies strictly inside (about 2% of a smooth float32
tensor), or the key is 0, which holds zero and the smallest subnormals.
Their values are looked up among the bits of the smallest float >= d * 10**k
for every digit d and decade k, built in integer arithmetic: positive
floats order like their bits, so a magnitude's digit follows from the
number of boundaries at or below its bits.  An F16 or BF16 key is one
value, whose digit is that of its exact float32 widening.
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

_KEY_BITS = 16            # a key is a value's top 16 bits
_SPLIT, _NON_FINITE = 10, 11  # key classes beside 0 (zero) and the digits 1..9
_STORED_16 = ("F16", "BF16")  # stored formats whose bit patterns digit_histogram counts


@dataclass(frozen=True)
class _DigitTables:
    """Exact digit tables for one float format (F16, BF16, F32 or F64), read-only.

    The key classes (0 for zero, a key's digit, _SPLIT or _NON_FINITE) are
    stored as runs of equal class over the keys in order, so that per-key
    counts add up by class in one `reduceat`.  A format without split keys
    (F16 and BF16) has no boundaries either.
    """

    run_starts: np.ndarray   # first key of each run of equal class
    run_class: np.ndarray    # class of each run
    split: np.ndarray | None        # per key: its class is _SPLIT
    boundaries: np.ndarray | None   # bits of the smallest float >= d * 10**k, ascending
    digit_after: np.ndarray | None  # [i]: digit of a magnitude with i boundaries at or below it

    def digits(self, bits: np.ndarray) -> np.ndarray:
        """Leading digits of the values with these bits, 0 for zero, for any key."""
        uint = self.boundaries.dtype
        magnitude = bits & uint.type(np.iinfo(uint).max >> 1)  # every bit but the sign bit
        return self.digit_after[np.searchsorted(self.boundaries, magnitude, side="right")]

    def counts(self, bits: np.ndarray) -> np.ndarray:
        """Counts of zeros (slot 0) and of digits 1..9 over one flat block of
        the format's bits; DataError if it holds NaN or Inf."""
        # the shift runs in the unsigned type; keys < 2**16 fit any index type
        keys = np.right_shift(bits, 8 * bits.itemsize - _KEY_BITS,
                              out=np.empty(bits.size, dtype=np.intp), casting="unsafe")
        per_run = np.add.reduceat(np.bincount(keys, minlength=1 << _KEY_BITS), self.run_starts)
        # float64 adds counts exactly below 2**53
        per_class = np.bincount(self.run_class, weights=per_run, minlength=_NON_FINITE + 1)
        if per_class[_NON_FINITE]:
            raise DataError("leading digit is undefined for NaN or Inf values")
        counts = per_class[:10].astype(np.int64)
        if self.split is not None:
            counts += np.bincount(self.digits(bits[self.split[keys]]), minlength=10)
        return counts


def _ceil_to_float(num: int, den: int, info: np.finfo) -> float:
    """num/den > 0 rounded up to the float format `info`, in exact integer arithmetic."""
    e = num.bit_length() - den.bit_length()  # 2**e <= num/den < 2**(e+1), or one above
    if (num << max(-e, 0)) < (den << max(e, 0)):
        e -= 1
    q = max(e, info.minexp) - info.nmant  # exponent of one ulp at num/den
    m = -((-num << max(-q, 0)) // (den << max(q, 0)))
    return math.ldexp(m, q)


@functools.lru_cache(maxsize=None)
def _digit_tables(fmt: str) -> _DigitTables:
    """The tables of the format `fmt`: F16, BF16, F32 or F64.

    An F16 or BF16 key is one value: its class is the digit of the value
    widened to float32 (exact), or _NON_FINITE.  float32 and float64
    boundaries span the decades from the smallest subnormal's to the
    largest finite float's; boundaries past the largest finite float are
    left out.  A normal key spans a ratio of at most 1 + 2**-7 (float32) or
    1 + 2**-4 (float64), below 10/9, so it holds at most one boundary;
    subnormal keys can hold several, which `searchsorted` resolves alike.
    """
    boundaries = digit_after = split = None
    if fmt in _STORED_16:
        patterns = np.arange(1 << _KEY_BITS, dtype=np.uint16)
        wide = (patterns.astype(np.uint32) << 16 if fmt == "BF16"
                else patterns.view(np.float16).astype(np.float32).view(np.uint32))
        key_class = _digit_tables("F32").digits(wide)
        key_class[~np.isfinite(wide.view(np.float32))] = _NON_FINITE
    else:
        dtype = np.dtype(f"f{int(fmt[1:]) // 8}")
        info = np.finfo(dtype)
        uint = np.dtype(f"u{dtype.itemsize}")
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
        split = key_class == _SPLIT
    run_starts = np.flatnonzero(np.diff(key_class, prepend=-1))
    tables = _DigitTables(run_starts, key_class[run_starts], split, boundaries, digit_after)
    for a in (run_starts, tables.run_class, split, boundaries, digit_after):
        if a is not None:
            a.flags.writeable = False
    return tables


@dataclass(frozen=True)
class DigitHistogram:
    """Counts of leading digits 1..9 over one value population."""

    counts: np.ndarray
    zeros_skipped: int = 0

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64)  # a copy: the caller's array stays writable
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


def digit_histogram(values: np.ndarray, stored: str | None = None) -> DigitHistogram:
    """Histogram of leading digits over a tensor (zeros skipped, not counted),
    counted in blocks of _BLOCK_ELEMS elements.  With `stored` "F16" or
    "BF16", `values` are the uint16 bit patterns of a tensor stored so;
    without, float16 and float32 values are counted in their own format and
    anything else as float64."""
    flat = np.asarray(values).ravel()
    if stored is None:
        dtype = np.dtype({"e": "f2", "f": "f4"}.get(flat.dtype.char, "f8"))
        stored = f"F{8 * dtype.itemsize}"
    elif stored in _STORED_16 and flat.dtype == np.uint16:
        dtype = flat.dtype
    else:
        raise DataError(f"stored bit patterns must be uint16 of F16 or BF16, "
                        f"got {flat.dtype} of {stored}")
    tables, uint = _digit_tables(stored), f"u{dtype.itemsize}"
    counts = np.zeros(10, dtype=np.int64)
    for i in range(0, flat.size, _BLOCK_ELEMS):
        counts += tables.counts(np.ascontiguousarray(flat[i:i + _BLOCK_ELEMS], dtype).view(uint))
    return DigitHistogram(counts[1:], int(counts[0]))


def _block_histogram(spec: TensorSpec, block: np.ndarray) -> DigitHistogram:
    """The histogram of one block; a uint16 block of an F16 or BF16 tensor holds its stored bits."""
    stored = block.dtype == np.uint16 and spec.dtype in _STORED_16
    return digit_histogram(block, spec.dtype if stored else None)


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


def model_report(tensors: Iterable[tuple[TensorSpec, Iterable]],
                 policy: "QuantPolicy | None" = None, *, source: str = "",
                 threads: int = 1) -> dict:
    """The digit report {"source", "per_tensor", "per_family"} of a streamed tensor set.

    `tensors` yields (spec, blocks) pairs; a block is an array of values,
    or the uint16 stored bits of an F16 or BF16 tensor, as `read_container`
    yields them with `stored16`.  Every block of every tensor is counted as
    it arrives, through one bounded map with at most
    `threads + 2` blocks in flight (one when `threads` is 1), and a
    tensor's counts are added up.  A tensor's row holds "name", "family" (a
    Family value), "numel" (zeros and digits), "counts" of digits 1..9,
    "zeros_skipped", "mad" and "signed_deviations" (None without a digit),
    by descending MAD, tensors without one last.  A family's row holds
    "family", "n_tensors", "mean_mad" and "median_mad" over its tensors with
    a MAD, families in declaration order.
    """
    rows = []
    for spec, hists in _map_blocks(_block_histogram, tensors, threads):
        counts, zeros = np.zeros(9, dtype=np.int64), 0
        for h in hists:
            counts += h.counts
            zeros += h.zeros_skipped
        hist = DigitHistogram(counts, zeros)
        mad = mad_score(hist) if hist.total > 0 else None
        deviations = None if mad is None else signed_deviations(hist).tolist()
        rows.append({"name": spec.name, "family": classify_family(spec.name, policy).value,
                     "numel": hist.total + zeros, "counts": counts.tolist(),
                     "zeros_skipped": zeros, "mad": mad, "signed_deviations": deviations})
    rows.sort(key=lambda r: (r["mad"] is None, -(r["mad"] or 0.0), r["name"]))

    summaries = []
    for family in Family:
        mads = [r["mad"] for r in rows if r["family"] == family.value and r["mad"] is not None]
        if mads:
            # the median as statistics.median takes it; np.median would import numpy.ma
            ranked, mid = sorted(mads), len(mads) // 2
            median = ranked[mid] if len(mads) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
            summaries.append({"family": family.value, "n_tensors": len(mads),
                              "mean_mad": float(np.mean(mads)), "median_mad": median})
    return {"source": source, "per_tensor": rows, "per_family": summaries}

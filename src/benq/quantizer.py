"""Group-wise weight quantization against a level table.

Tensors are flattened row-major and cut into groups of `group_size`
(the final group may be short; its length is the tensor's tail).  Every
schedule works the same way: each group stores one float16 scale,
max|w| / top level (the top level is 1.0 for log and linear and
qmax = 2**(bits-1) - 1 for rtn).  Elements are divided by the stored scale
and matched to the nearest level of the schedule's level table, ties going
away from zero; an exact zero between -l and +l takes +l, the code an
all-zero group gets.  Reconstruction is level * scale.

float16 and float32 blocks stay float32: a 2**20-entry uint8 key table,
cached per level table (1 MiB), gives each quotient's index from the top
20 bits of its float32 rounding, which is the float32 rounding of the
float64 quotient.  Only the quotients keyed into the bucket of a float32
beside a decision threshold (the nearest at or below it, the nearest at or
above it) take the exact path, the float64 quotient's search against the
exact midpoint thresholds.  Either way every index is the float64 quotient's.

Normalizing by the float16 value actually stored (not the exact maximum)
keeps quantization a projection: quantizing a reconstruction returns the
identical indices and scales, and the per-element error bound is stated
against the stored scale.

An all-zero group stores scale 0 and reconstructs exact zeros.  A nonzero
group whose scale underflows float16 stores the smallest float16
subnormal instead, so scale 0 occurs only for all-zero groups; a scale
above float16 range is a data error.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from ._pool import _BLOCK_ELEMS, TensorSpec, _map_blocks
from .benford import DEFAULT_FAMILY_PATTERNS, Family, classify_family
from .errors import (INT, NUMBER, STR, ConfigError, DataError, FormatError, checked, list_of,
                     one_of, tuple_of)
from .levels import DEFAULT_EPSILON, MAX_BITS, MIN_BITS, Schedule, level_table

_F16_TINY = np.float16(2.0 ** -24)
_FOLD_MAX_GROUP = 32     # _group_max folds columns up to this group size
_KEY_BITS = 20           # a float32 quotient's key: sign, exponent, 11 mantissa bits
_SPLIT = 255             # key table entry of a bucket beside a threshold
_GATHER_ELEMS = 1 << 15  # indices per np.take, which first copies them to intp


@dataclass(frozen=True)
class QuantConfig:
    """Grid parameters shared by every group of a quantization run."""

    bits: int = 4
    group_size: int = 8
    schedule: Schedule = Schedule.LOG_UNIFORM
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        # the types _CONFIG_FIELDS gives a config read from a file, for direct construction too
        object.__setattr__(self, "schedule", Schedule.parse(self.schedule))
        if not INT.test(self.group_size) or self.group_size < 1:
            raise ConfigError(f"group_size must be a positive integer, got {self.group_size!r}")
        if not INT.test(self.bits):
            raise ConfigError(f"bits must be an integer in {MIN_BITS}..{MAX_BITS}, "
                              f"got {self.bits!r}")
        if not NUMBER.test(self.epsilon):
            raise ConfigError(f"epsilon must be a number, got {self.epsilon!r}")
        if self.schedule is not Schedule.LOG_UNIFORM:  # epsilon is the log schedule's alone
            object.__setattr__(self, "epsilon", DEFAULT_EPSILON)
        self.levels  # validates the range of bits and, for log, epsilon

    @property
    def levels(self) -> np.ndarray:
        """The read-only level table of this schedule, bits and epsilon."""
        return level_table(self.schedule, self.bits, self.epsilon)

    @property
    def block_elems(self) -> int:
        """Elements per block of every quantizing walk: _block_groups whole groups."""
        return _block_groups(self.group_size) * self.group_size

    def to_dict(self) -> dict:
        out = {"bits": self.bits, "group_size": self.group_size,
               "schedule": self.schedule.value}
        if self.schedule is Schedule.LOG_UNIFORM:
            out["epsilon"] = self.epsilon
        return out

    @classmethod
    def from_dict(cls, d: Any) -> "QuantConfig":
        """A config from its JSON object; epsilon is optional, and only for log."""
        checked(d, _CONFIG_FIELDS, "quantization config", ConfigError, optional=("epsilon",))
        if "epsilon" in d and d["schedule"] != Schedule.LOG_UNIFORM.value:
            raise ConfigError(f"quantization config: epsilon is for the log schedule only, "
                              f"not {d['schedule']!r}")
        return cls(**d)


_CONFIG_FIELDS = {"bits": INT, "group_size": INT,
                  "schedule": one_of(*(s.value for s in Schedule)), "epsilon": NUMBER}


def _midpoint_thresholds(levels: np.ndarray) -> np.ndarray:
    """t[k] such that a float64 x is nearer level k+1 than level k exactly when x > t[k].

    The exact midpoint of two levels is mid + err/2, with mid = fl(lo + hi)/2
    and err the rounding error of that sum (TwoSum).  A value above or below
    mid lies on the same side of the exact midpoint; a value equal to mid
    goes up when the exact midpoint is below it, or is it and is not
    negative (ties away from zero).
    """
    lo, hi = levels[:-1], levels[1:]
    s = lo + hi
    s_hi = s - lo
    err = (lo - (s - s_hi)) + (hi - s_hi)
    mid = s / 2.0
    up = (err < 0) | ((err == 0) & (mid >= 0))
    return np.where(up, np.nextafter(mid, -np.inf), mid)


@functools.lru_cache(maxsize=16)
def _level_search(level_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, key table) of the float64 levels in `level_bytes`.

    A bucket is every float32 sharing one top-_KEY_BITS key.  key_table[key]
    is the index of every float64 whose float32 rounding lies in the bucket,
    or _SPLIT when the bucket holds a float32 beside a threshold: the nearest
    at or below it or at or above it (1 MiB of uint8 per level table).
    The table is built in value order, where negative keys run backwards, as
    uint8 runs between the thresholds' buckets.
    """
    t = _midpoint_thresholds(np.frombuffer(level_bytes)) + 0.0  # -0.0 sorts as 0
    near = t.astype(np.float32)
    below = np.where(near > t, np.nextafter(near, np.float32(-np.inf)), near)
    above = np.where(near < t, np.nextafter(near, np.float32(np.inf)), near)

    def bucket(f: np.ndarray) -> np.ndarray:
        # the value-order bucket of the float32 f; +0 and -0 are one value
        # there, in +0's bucket (a float32 quotient -0 comes from a float64
        # quotient <= 0, as does every other quotient in -0's bucket)
        bits = f.view(np.uint32).astype(np.int64)
        o = np.where(bits >> 31, (1 << 31) - bits, bits)
        return half + np.where(o < 0, ~(-o >> shift), o >> shift)

    half, shift = 1 << (_KEY_BITS - 1), 32 - _KEY_BITS
    # the buckets of the float32s beside each threshold: a quotient keyed
    # below `below` is below the threshold, one keyed above `above` above it
    first, last = bucket(below), bucket(above)
    runs = np.diff(np.concatenate([[0], first + 1, [2 * half]]))
    by_value = np.repeat(np.arange(t.size + 1, dtype=np.ubyte), runs)
    by_value[first] = by_value[last] = _SPLIT
    table = np.concatenate([by_value[half:], by_value[half - 1::-1]])
    table.flags.writeable = t.flags.writeable = False
    return t, table


def nearest_level_indices(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Byte index of the nearest of at most 256 levels; ties go away from zero.

    Values beyond the table clamp to its ends, and an exact zero midway
    between -l and +l takes +l.  The level k is the count of exact midpoint
    thresholds below the float64 value, found by np.searchsorted over the
    thresholds cached per level table.  The block kernel (_nearest_levels)
    calls it only for the quotients its key table cannot settle.
    """
    thresholds = _level_search(np.asarray(levels, dtype=np.float64).tobytes())[0]
    return np.searchsorted(thresholds, np.asarray(values, dtype=np.float64)).astype(np.ubyte)


def _stored_scales(raw_max: np.ndarray, context: str) -> np.ndarray:
    """float16 scales from exact per-group maxima, with underflow pinned."""
    with np.errstate(over="ignore"):
        s = raw_max.astype(np.float16)
    if np.any(np.isinf(s)):
        raise DataError(f"{context}: group scale exceeds float16 range")
    return np.where((s == 0) & (raw_max > 0), _F16_TINY, s)


def _block_groups(group_size: int) -> int:
    """Groups in one block: about _BLOCK_ELEMS elements, at least one group."""
    return max(1, _BLOCK_ELEMS // group_size)


def _group_len(group_size: int, n: int) -> int:
    """The group length of a block of n elements: a block shorter than a group
    is that one short group, so no buffer is sized to a group it does not fill."""
    return max(1, min(group_size, n))


def _read_dtype(dtype: np.dtype) -> type:
    """float16 and float32 are read as float32, everything else as float64."""
    return np.float32 if dtype.kind == "f" and dtype.itemsize <= 4 else np.float64


def _grouped(flat: np.ndarray, group_size: int) -> np.ndarray:
    """A flat block as a zero-padded (n_groups, group length) array of its read dtype.

    float16 and float32 blocks are read as float32, anything else as float64;
    a block of whole groups already in that dtype is not copied.
    """
    n = flat.size
    group_size = _group_len(group_size, n)
    dtype = _read_dtype(flat.dtype)
    if n % group_size == 0 and flat.dtype == dtype:
        return flat.reshape(-1, group_size)
    padded = np.zeros(-(-n // group_size) * group_size, dtype=dtype)
    padded[:n] = flat
    return padded.reshape(-1, group_size)


def _group_max(groups: np.ndarray) -> np.ndarray:
    """max|w| of each row, the same bits as np.max(np.abs(groups), axis=1).

    numpy reduces a short inner axis slowly, so groups of up to
    _FOLD_MAX_GROUP columns fold their columns with np.maximum instead (a
    maximum is exact in any order).  Both propagate nan.
    """
    if groups.shape[1] > _FOLD_MAX_GROUP:
        return np.max(np.abs(groups), axis=1)
    m = np.abs(groups[:, 0])
    for j in range(1, groups.shape[1]):
        np.maximum(m, np.abs(groups[:, j]), out=m)
    return m


def _promote_block(block: np.ndarray, group_size: int,
                   context: str) -> tuple[np.ndarray, np.ndarray]:
    """(groups, group maxima) of one block; non-finite values are a data error."""
    groups = _grouped(block, group_size)
    gmax = _group_max(groups)
    if not np.all(np.isfinite(gmax)):
        raise DataError(f"{context} contains non-finite values")
    return groups, gmax


def _quantize_groups(groups: np.ndarray, gmax: np.ndarray, level_tables: list, context: str,
                     q: np.ndarray, outs: list) -> list[np.ndarray]:
    """The float16 scales, per level table, of a block of groups with maxima
    `gmax`; each table's nearest-level indices go to the matching array of `outs`.

    Tables of one top level share their scales and one quotient w / scale,
    written to `q`, scratch of the groups' shape and dtype.  An all-zero
    group divides by 1 and lands on the zero tie code.
    """
    scales = {}
    for top in dict.fromkeys(lv[-1] for lv in level_tables):
        s = scales[top] = _stored_scales(gmax.astype(np.float64) / top, context)
        divisors = np.where(s == 0, 1.0, s.astype(np.float64))
        np.divide(groups, divisors.astype(groups.dtype)[:, None], out=q)
        same = [i for i, lv in enumerate(level_tables) if lv[-1] == top]
        _nearest_levels(q.ravel(), groups.ravel(), divisors, [level_tables[i] for i in same],
                        [outs[i] for i in same])
    return [scales[lv[-1]] for lv in level_tables]


def _nearest_levels(q: np.ndarray, w: np.ndarray, divisors: np.ndarray, level_tables: list,
                    outs: list) -> None:
    """Write to each of `outs` the nearest-level indices of the quotients
    q = w / divisors (one divisor per group) in the matching level table.

    A quotient takes its index from the key table, keyed by its float32
    rounding through intp keys _GATHER_ELEMS at a time (in a float32 block
    q itself, the correctly rounded w / divisor, so also the float32
    rounding of the float64 quotient).  A quotient keyed outside the split
    buckets lies on its bucket's side of every threshold, so only split
    elements are settled by nearest_level_indices of the float64 quotient,
    and every index is the float64 search's.
    """
    tables = [_level_search(lv.tobytes())[1] for lv in level_tables]
    with np.errstate(over="ignore"):  # a quotient past float32 range keys as inf
        bits = q.astype(np.float32, copy=False).view(np.uint32)
    keys = np.empty(min(bits.size, _GATHER_ELEMS), dtype=np.intp)
    for i in range(0, bits.size, _GATHER_ELEMS):
        k = keys[:bits.size - i]
        np.right_shift(bits[i:i + k.size], 32 - _KEY_BITS, out=k)
        for table, out in zip(tables, outs):
            np.take(table, k, out=out[i:i + k.size], mode="clip")
    group_size = w.size // divisors.size
    for lv, out in zip(level_tables, outs):
        split = np.flatnonzero(out == _SPLIT)
        if split.size:
            exact = w[split].astype(np.float64) / divisors[split // group_size]
            out[split] = nearest_level_indices(exact, lv)


def _reconstruct(idx: np.ndarray, scales: np.ndarray, levels: np.ndarray, group_size: int,
                 buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float32 levels[idx] * scale, each scale broadcast over its group.

    `idx` holds the elements of `scales.size` groups, the last one possibly
    short.  The product is formed in the float64 scratch `buf` and rounded
    into `out`, which is allocated when not given.
    """
    group_size = _group_len(group_size, idx.size)
    rec = buf[:scales.size * group_size]
    # mode="clip" writes straight into rec (the default mode buffers it); the
    # sub-blocks bound the intp copy of the indices np.take makes
    for i in range(0, idx.size, _GATHER_ELEMS):
        part = idx[i:i + _GATHER_ELEMS]
        np.take(levels, part, out=rec[i:i + part.size], mode="clip")
    rec[idx.size:] = 0.0
    groups = rec.reshape(scales.size, group_size)
    np.multiply(groups, scales.astype(np.float64)[:, None], out=groups)
    if out is None:
        out = np.empty(idx.size, dtype=np.float32)
    out[...] = rec[:idx.size]
    return out


@dataclass(frozen=True)
class QuantizedTensor:
    """Packed result of quantizing one tensor under one QuantConfig.

    `indices` holds one byte per element, an index into the config's
    level table; `scales` holds one float16 per group in group order.
    """

    name: str
    shape: tuple[int, ...]
    indices: np.ndarray
    scales: np.ndarray
    config: QuantConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "indices", np.ascontiguousarray(self.indices, dtype=np.ubyte))
        object.__setattr__(self, "scales", np.ascontiguousarray(self.scales, dtype=np.float16))
        if self.indices.size != self.numel:
            raise FormatError(f"{self.name}: {self.indices.size} indices for {self.numel} elements")
        if self.scales.size != self.n_groups:
            raise FormatError(f"{self.name}: {self.scales.size} scales for {self.n_groups} groups")

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def n_groups(self) -> int:
        return -(-self.numel // self.config.group_size) if self.numel else 0


def quantize_tensor(data: np.ndarray, config: QuantConfig, name: str = "") -> QuantizedTensor:
    """Quantize a whole tensor group-wise (row-major order, in blocks of groups)."""
    arr = np.asarray(data)
    flat = arr.ravel()
    G = config.group_size
    levels = config.levels
    context = f"tensor {name or '<unnamed>'}"
    n_groups = -(-flat.size // G)
    out = np.empty(n_groups * _group_len(G, flat.size), dtype=np.ubyte)
    scales = np.empty(n_groups, dtype=np.float16)

    step = config.block_elems
    for start in range(0, flat.size, step):
        groups, gmax = _promote_block(flat[start:start + step], G, context)
        (s,) = _quantize_groups(groups, gmax, [levels], context, np.empty_like(groups),
                                [out[start:start + groups.size]])
        scales[start // G:start // G + s.size] = s

    return QuantizedTensor(name, arr.shape, out[:flat.size], scales, config)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct a float32 tensor as level * scale of its config's level table,
    in blocks of groups."""
    levels = qt.config.levels
    if qt.indices.size and qt.indices.max() >= levels.size:
        raise FormatError(f"{qt.name}: level index outside {qt.config.bits}-bit codebook")
    G = qt.config.group_size
    step = _block_groups(G)
    out = np.empty(qt.numel, dtype=np.float32)
    buf = np.empty(min(step, qt.n_groups) * _group_len(G, qt.numel), dtype=np.float64)
    for g in range(0, qt.n_groups, step):
        span = slice(g * G, (g + step) * G)
        _reconstruct(qt.indices[span], qt.scales[g:g + step], levels, G, buf, out[span])
    return out.reshape(qt.shape)


_FAMILIES = tuple(f.value for f in Family)
_STRINGS = list_of(STR, "strings")
# the family names themselves are checked by QuantPolicy, for direct construction too
_POLICY_FIELDS = {
    "family_patterns": list_of(tuple_of(STR, _STRINGS, expected="a [family, [substrings]] pair"),
                               "[family, [substrings]] pairs"),
    "quantize_families": _STRINGS,
}


def _family(raw: Any) -> str:
    """A family named in a policy, as its plain string value."""
    if raw not in _FAMILIES:
        raise ConfigError(f"unknown family {raw!r} in policy (known: {', '.join(_FAMILIES)})")
    return Family(raw).value


def _substrings(raw: Any, family: str) -> tuple[str, ...]:
    """A family's substrings as a tuple; a bare string would match letter by letter."""
    if isinstance(raw, str):
        raise ConfigError(f"policy patterns of {family!r} must be a list of strings, got {raw!r}")
    return tuple(raw)


@dataclass(frozen=True)
class QuantPolicy:
    """Quantize the tensors whose family is one of `quantize_families`.

    A tensor's family is `classify_family(name, policy)`: a `.bias` suffix
    first, then the first entry of the ordered `family_patterns` table
    (family, substrings of the lowercased name) with a matching substring,
    else "other".  `analyze` reports and `quantize` decisions read this one
    table.  By default the attention and MLP linears, whose weights follow
    the digit law, are quantized and every other family is preserved.
    """

    family_patterns: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_FAMILY_PATTERNS
    quantize_families: tuple[str, ...] = (Family.ATTENTION_LINEAR.value, Family.MLP_LINEAR.value)

    def __post_init__(self) -> None:
        # from_dict has checked the JSON types; a direct construction needs these checks too
        object.__setattr__(self, "family_patterns", tuple(
            (_family(fam), _substrings(subs, fam)) for fam, subs in self.family_patterns))
        object.__setattr__(self, "quantize_families", tuple(map(_family, self.quantize_families)))

    def should_quantize(self, name: str) -> bool:
        return classify_family(name, self) in self.quantize_families

    def to_dict(self) -> dict:
        return {"family_patterns": [[fam, list(subs)] for fam, subs in self.family_patterns],
                "quantize_families": list(self.quantize_families)}

    @classmethod
    def from_dict(cls, d: Any) -> "QuantPolicy":
        return cls(**checked(d, _POLICY_FIELDS, "policy", ConfigError))

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


DEFAULT_POLICY = QuantPolicy()
QUANTIZE_ALL = QuantPolicy(quantize_families=_FAMILIES)


def _whole_groups(blocks: Iterable, group_size: int, name: str) -> Iterator:
    """The blocks of one tensor, each but the last of whole groups."""
    done = 0
    for block in blocks:
        if done % group_size:
            raise DataError(f"{name}: a block before the last ends inside a group of "
                            f"{group_size}")
        done += np.size(block)
        yield block


def apply_policy(tensors: Iterable[tuple[TensorSpec, Iterable]], policy: QuantPolicy,
                 config: QuantConfig, threads: int = 1) -> Iterator[Iterator]:
    """Quantize the tensors a policy selects; pass the rest through untouched.

    `tensors` yields (spec, blocks) pairs, each block of a selected tensor
    but the last holding whole groups.  Lazily yields, per tensor in input
    order, an iterator of its blocks' outputs: the block's QuantizedTensor
    when the policy selects the tensor, else the block itself.  Every block
    of every tensor goes through one bounded map, so at most `threads + 2`
    blocks are in flight (one when `threads` is 1).
    """
    def work(spec: TensorSpec, block: Any) -> Any:
        if policy.should_quantize(spec.name):
            return quantize_tensor(block, config, spec.name)
        return block

    checked = ((s, _whole_groups(b, config.group_size, s.name)
                if policy.should_quantize(s.name) else b) for s, b in tensors)
    return (outputs for _, outputs in _map_blocks(work, checked, threads))

"""Group-wise weight quantization against a level table.

Tensors are flattened row-major and cut into groups of `group_size`
(the final group may be short; its length is the tensor's tail).  Every
schedule works the same way: each group stores one float16 scale,
max|w| / top level (the top level is 1.0 for log and linear and
qmax = 2**(bits-1) - 1 for rtn).  Elements are divided by the stored scale
and matched to the nearest level of the schedule's codebook, ties going
away from zero; an exact zero between -l and +l takes +l, the code an
all-zero group gets.  Reconstruction is level * scale.

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

from ._pool import _BLOCK_ELEMS, _map_blocks
from .benford import DEFAULT_FAMILY_PATTERNS, Family, classify_family
from .errors import (INT, NUMBER, STR, ConfigError, DataError, FormatError, checked, list_of,
                     one_of, tuple_of)
from .levels import DEFAULT_EPSILON, Codebook, Schedule, make_codebook

_F16_TINY = np.float16(2.0 ** -24)
_FOLD_MAX_GROUP = 16     # _group_max folds columns up to this group size
_KEY_SHIFT = 44          # a float64's top 20 bits: sign, exponent, 8 mantissa bits
_HALF_KEYS = 1 << 19     # bucket keys of one sign
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
        self.codebook()  # validates bits and epsilon

    def codebook(self) -> Codebook:
        return make_codebook(self.schedule, self.bits, self.epsilon)

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
def _bucket_table(level_bytes: bytes) -> tuple[np.ndarray, np.ndarray, int]:
    """(table, thresholds + [inf], rounds) for the float64 levels in `level_bytes`.

    A bucket is every float64 sharing one top-20-bit key.  table[key] counts
    the thresholds below the bucket, so it never exceeds the index of a
    value in it, and `rounds` is the most thresholds one bucket holds.  The
    table is built in value order, where negative keys run backwards, as
    uint8 runs between the thresholds' buckets.
    """
    t = _midpoint_thresholds(np.frombuffer(level_bytes)) + 0.0  # -0.0 sorts as 0
    key = (t.view(np.uint64) >> np.uint64(_KEY_SHIFT)).astype(np.int64)
    pos = np.where(key >= _HALF_KEYS, 2 * _HALF_KEYS - 1 - key, key + _HALF_KEYS)
    runs = np.diff(np.concatenate([[0], pos + 1, [2 * _HALF_KEYS]]))
    by_value = np.repeat(np.arange(t.size + 1, dtype=np.ubyte), runs)
    table = np.concatenate([by_value[_HALF_KEYS:], by_value[_HALF_KEYS - 1::-1]])
    thresholds = np.append(t, np.inf)
    table.flags.writeable = thresholds.flags.writeable = False
    rounds = int(np.unique(pos, return_counts=True)[1].max()) if t.size else 0
    return table, thresholds, rounds


def nearest_level_indices(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Byte index of the nearest of at most 256 levels; ties go away from zero.

    Values beyond the table clamp to its ends, and an exact zero midway
    between -l and +l takes +l.  The level k is the count of exact midpoint
    thresholds below the value.  A 2**20-entry uint8 table, cached per
    level table and keyed by the value's top 20 bits (sign, exponent and 8
    mantissa bits), gives the count of thresholds below the value's bucket;
    the fix-up `k += x > thresholds[k]` then steps over the thresholds
    inside the bucket, once for each threshold the fullest bucket holds (one
    round for every default table).  The last threshold is +inf, so k stops
    at the top level.
    """
    x = np.asarray(values, dtype=np.float64)
    table, thresholds, rounds = _bucket_table(np.asarray(levels, dtype=np.float64).tobytes())
    # the arithmetic shift makes negative keys negative, which index from the end
    k = table[x.view(np.int64) >> _KEY_SHIFT]
    for _ in range(rounds):
        k += x > thresholds[k]
    return k


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


def _grouped(flat: np.ndarray, group_size: int) -> np.ndarray:
    """A flat block promoted into a zero-padded float64 (n_groups, group_size) array."""
    n = flat.size
    n_groups = -(-n // group_size) if n else 0
    padded = np.empty(n_groups * group_size, dtype=np.float64)
    padded[:n] = flat
    padded[n:] = 0.0
    return padded.reshape(n_groups, group_size)


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


def _quantize_groups(groups: np.ndarray, gmax: np.ndarray, levels: np.ndarray,
                     context: str, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices, float16 scales) of a block of groups with maxima `gmax`.

    The quotient w / scale is written to the float64 array `out` (groups
    itself, or scratch of its shape).  An all-zero group divides by 1 and
    lands on the zero tie code.
    """
    s = _stored_scales(gmax / levels[-1], context)
    np.divide(groups, np.where(s == 0, 1.0, s.astype(np.float64))[:, None], out=out)
    return nearest_level_indices(out.ravel(), levels), s


def _reconstruct(idx: np.ndarray, scales: np.ndarray, levels: np.ndarray, group_size: int,
                 buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float32 levels[idx] * scale, each scale broadcast over its group.

    `idx` holds the elements of `scales.size` groups, the last one possibly
    short.  The product is formed in the float64 scratch `buf` and rounded
    into `out`, which is allocated when not given.
    """
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
    codebook; `scales` holds one float16 per group in group order.
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

    @property
    def tail_len(self) -> int:
        """Length of the final short group, 0 when group_size divides numel."""
        return self.numel % self.config.group_size


def quantize_tensor(data: np.ndarray, config: QuantConfig, name: str = "") -> QuantizedTensor:
    """Quantize a whole tensor group-wise (row-major order, in blocks of groups)."""
    arr = np.asarray(getattr(data, "data", data))
    flat = arr.ravel()
    G = config.group_size
    levels = config.codebook().levels
    context = f"tensor {name or '<unnamed>'}"
    n_groups = -(-flat.size // G)
    out = np.empty(n_groups * G, dtype=np.ubyte)
    scales = np.empty(n_groups, dtype=np.float16)

    step = config.block_elems
    for start in range(0, flat.size, step):
        groups, gmax = _promote_block(flat[start:start + step], G, context)
        # in place: groups is a private copy
        idx, s = _quantize_groups(groups, gmax, levels, context, groups)
        out[start:start + idx.size] = idx
        scales[start // G:start // G + s.size] = s

    return QuantizedTensor(name, arr.shape, out[:flat.size], scales, config)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct a float32 tensor as level * scale of its config's codebook,
    in blocks of groups."""
    codebook = qt.config.codebook()
    if qt.indices.size and qt.indices.max() >= codebook.n_levels:
        raise FormatError(f"{qt.name}: level index outside {qt.config.bits}-bit codebook")
    G = qt.config.group_size
    step = _block_groups(G)
    out = np.empty(qt.numel, dtype=np.float32)
    buf = np.empty(min(step, qt.n_groups) * G, dtype=np.float64)
    for g in range(0, qt.n_groups, step):
        span = slice(g * G, (g + step) * G)
        _reconstruct(qt.indices[span], qt.scales[g:g + step], codebook.levels, G, buf, out[span])
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
        done += np.size(getattr(block, "data", block))
        yield block


def apply_policy(tensors: Iterable[tuple[Any, Iterable]], policy: QuantPolicy,
                 config: QuantConfig, threads: int = 1) -> Iterator[Iterator]:
    """Quantize the tensors a policy selects; pass the rest through untouched.

    `tensors` yields (spec, blocks) pairs (a TensorSpec or anything with a
    `.name`), each block of a selected tensor but the last holding whole
    groups.  Lazily yields, per tensor in input order, an iterator of its
    blocks' outputs: the block's QuantizedTensor when the policy selects
    the tensor, else the block itself.  Every block of every tensor goes
    through one bounded map, so at most `threads` blocks are in flight.
    """
    def work(spec: Any, block: Any) -> Any:
        if policy.should_quantize(spec.name):
            return quantize_tensor(block, config, spec.name)
        return block

    checked = ((s, _whole_groups(b, config.group_size, s.name)
                if policy.should_quantize(s.name) else b) for s, b in tensors)
    return (outputs for _, outputs in _map_blocks(work, checked, threads))

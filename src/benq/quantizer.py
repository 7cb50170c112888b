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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .levels import DEFAULT_EPSILON, Codebook, Schedule, make_codebook

_F16_TINY = np.float16(2.0 ** -24)
_BLOCK_ELEMS = 1 << 18  # elements per chunk of quantize_tensor and per compare block
_KEY_SHIFT = 44          # a float64's top 20 bits: sign, exponent, 8 mantissa bits
_HALF_KEYS = 1 << 19     # bucket keys of one sign


@dataclass(frozen=True)
class QuantConfig:
    """Grid parameters shared by every group of a quantization run."""

    bits: int = 4
    group_size: int = 8
    schedule: Schedule = Schedule.LOG_UNIFORM
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", Schedule(self.schedule))
        if self.group_size != int(self.group_size) or self.group_size < 1:
            raise ConfigError(f"group_size must be a positive integer, got {self.group_size!r}")
        object.__setattr__(self, "group_size", int(self.group_size))
        self.codebook()  # validates bits and epsilon

    def codebook(self) -> Codebook:
        return make_codebook(self.schedule, self.bits, self.epsilon)

    def to_dict(self) -> dict:
        out = {"bits": self.bits, "group_size": self.group_size,
               "schedule": self.schedule.value}
        if self.schedule is Schedule.LOG_UNIFORM:
            out["epsilon"] = self.epsilon
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "QuantConfig":
        try:
            return cls(bits=d["bits"], group_size=d["group_size"],
                       schedule=Schedule.parse(d["schedule"]),
                       epsilon=d.get("epsilon", DEFAULT_EPSILON))
        except KeyError as e:
            raise ConfigError(f"quantization config is missing field {e.args[0]!r}") from None


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
    """Zero-padded (n_groups, group_size) view of a flat tensor."""
    n = flat.size
    n_groups = -(-n // group_size) if n else 0
    padded = np.zeros(n_groups * group_size, dtype=np.float64)
    padded[:n] = flat
    return padded.reshape(n_groups, group_size)


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

    def storage_bits(self) -> dict:
        """Idealized payload cost: packed indices plus float16 scales."""
        per_index = 4 if self.config.bits <= 4 else 8
        return {"index_bits": self.numel * per_index, "scale_bits": self.n_groups * 16}


def quantize_tensor(data: np.ndarray, config: QuantConfig, name: str = "") -> QuantizedTensor:
    """Quantize a whole tensor group-wise (row-major order, chunked)."""
    arr = np.asarray(getattr(data, "data", data))
    flat = np.asarray(arr, dtype=np.float64).ravel()
    if not np.all(np.isfinite(flat)):
        raise DataError(f"tensor {name or '<unnamed>'} contains non-finite values")
    G = config.group_size
    groups = _grouped(flat, G)
    n_groups = groups.shape[0]

    levels = config.codebook().levels
    out = np.empty(n_groups * G, dtype=np.ubyte)
    scales = np.empty(n_groups, dtype=np.float16)

    block = _block_groups(G)
    for start in range(0, n_groups, block):
        chunk = groups[start:start + block]
        s = _stored_scales(np.max(np.abs(chunk), axis=1) / levels[-1],
                           f"tensor {name or '<unnamed>'}")
        scales[start:start + block] = s
        # in place: groups is a private copy.  An all-zero group divides by 1
        # and lands on the zero tie code
        chunk /= np.where(s == 0, 1.0, s.astype(np.float64))[:, None]
        out[start * G:start * G + chunk.size] = nearest_level_indices(chunk.ravel(), levels)

    return QuantizedTensor(name, tuple(np.asarray(arr).shape), out[:flat.size], scales, config)


def _per_element_scales(qt: QuantizedTensor) -> np.ndarray:
    s = qt.scales.astype(np.float64)
    return np.repeat(s, qt.config.group_size)[:qt.numel]


def dequantize(qt: QuantizedTensor, codebook: Codebook | None = None) -> np.ndarray:
    """Reconstruct a float32 tensor as level * scale.

    A codebook may be supplied (it must match the tensor's config) or is
    derived from the config when omitted.
    """
    own = qt.config.codebook()
    if codebook is None:
        codebook = own
    elif (codebook.schedule is not own.schedule or codebook.bits != own.bits
          or not np.array_equal(codebook.levels, own.levels)):
        raise ConfigError(f"{qt.name}: supplied codebook does not match tensor config")
    if qt.indices.size and qt.indices.max() >= codebook.n_levels:
        raise FormatError(f"{qt.name}: level index outside {qt.config.bits}-bit codebook")
    rec = codebook.levels[qt.indices] * _per_element_scales(qt)
    return rec.reshape(qt.shape).astype(np.float32)


# Substrings of the transformational linears the default policy quantizes,
# and of the statistically fragile tensors it preserves.  Skip wins when
# both match the same name.
_QUANTIZE_PATTERNS = ("q_proj", "k_proj", "v_proj", "o_proj", "attn",
                      "fc", "mlp", "gate_proj", "up_proj", "down_proj", "dense")
_SKIP_PATTERNS = ("norm", "ln", "embed", "wte", "wpe", "lm_head", ".bias")


@dataclass(frozen=True)
class QuantPolicy:
    """Name-pattern rules deciding which tensors are quantized.

    A name matching any skip pattern is preserved; otherwise a name matching
    any quantize pattern is quantized; otherwise `default_action` applies.
    `family_patterns` optionally overrides the family table used in reports.
    """

    quantize_patterns: tuple[str, ...] = _QUANTIZE_PATTERNS
    skip_patterns: tuple[str, ...] = _SKIP_PATTERNS
    default_action: str = "skip"
    family_patterns: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def __post_init__(self) -> None:
        if self.default_action not in ("skip", "quantize"):
            raise ConfigError(f"default_action must be 'skip' or 'quantize', "
                              f"got {self.default_action!r}")
        object.__setattr__(self, "quantize_patterns", tuple(self.quantize_patterns))
        object.__setattr__(self, "skip_patterns", tuple(self.skip_patterns))
        if self.family_patterns is not None:
            object.__setattr__(self, "family_patterns", tuple(
                (str(fam), tuple(subs)) for fam, subs in self.family_patterns))

    def should_quantize(self, name: str) -> bool:
        lowered = name.lower()
        if any(p in lowered for p in self.skip_patterns):
            return False
        if any(p in lowered for p in self.quantize_patterns):
            return True
        return self.default_action == "quantize"

    def to_dict(self) -> dict:
        out = {"quantize_patterns": list(self.quantize_patterns),
               "skip_patterns": list(self.skip_patterns),
               "default_action": self.default_action}
        if self.family_patterns is not None:
            out["family_patterns"] = [[fam, list(subs)] for fam, subs in self.family_patterns]
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "QuantPolicy":
        bad = set(d) - {"quantize_patterns", "skip_patterns", "default_action", "family_patterns"}
        if bad:
            raise ConfigError(f"unknown policy fields: {sorted(bad)}")
        fams = d.get("family_patterns")
        return cls(
            quantize_patterns=tuple(d.get("quantize_patterns", _QUANTIZE_PATTERNS)),
            skip_patterns=tuple(d.get("skip_patterns", _SKIP_PATTERNS)),
            default_action=d.get("default_action", "skip"),
            family_patterns=None if fams is None else tuple(
                (fam, tuple(subs)) for fam, subs in fams),
        )

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


DEFAULT_POLICY = QuantPolicy()
QUANTIZE_ALL = QuantPolicy(quantize_patterns=(), skip_patterns=(), default_action="quantize")


@dataclass
class ModelQuantization:
    """Mixed result of applying a policy: quantized tensors plus originals."""

    entries: dict[str, Any]
    config: QuantConfig
    policy: QuantPolicy

    def quantized(self) -> dict[str, QuantizedTensor]:
        return {k: v for k, v in self.entries.items() if isinstance(v, QuantizedTensor)}

    def preserved(self) -> dict[str, Any]:
        return {k: v for k, v in self.entries.items() if not isinstance(v, QuantizedTensor)}

    def summary(self) -> dict:
        q_numel = p_numel = index_bits = scale_bits = preserved_bits = 0
        for t in self.entries.values():
            if isinstance(t, QuantizedTensor):
                q_numel += t.numel
                cost = t.storage_bits()
                index_bits += cost["index_bits"]
                scale_bits += cost["scale_bits"]
            else:
                arr = np.asarray(getattr(t, "data", t))
                p_numel += arr.size
                width = 16 if getattr(t, "source_dtype", "F32") in ("F16", "BF16") else 32
                preserved_bits += arr.size * width
        total = q_numel + p_numel
        return {
            "n_quantized": len(self.quantized()),
            "n_preserved": len(self.entries) - len(self.quantized()),
            "quantized_fraction": (q_numel / total) if total else 0.0,
            "index_bits": index_bits,
            "scale_bits": scale_bits,
            "preserved_bits": preserved_bits,
        }


def apply_policy(model: Mapping[str, Any], policy: QuantPolicy, config: QuantConfig,
                 threads: int = 1) -> ModelQuantization:
    """Quantize the tensors a policy selects; pass the rest through untouched."""
    if not model:
        raise DataError("cannot apply a policy to an empty tensor set")
    names = list(model.keys())

    def work(name: str):
        t = model[name]
        if policy.should_quantize(name):
            return quantize_tensor(np.asarray(getattr(t, "data", t)), config, name)
        return t

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, names))
    else:
        results = [work(n) for n in names]
    return ModelQuantization(dict(zip(names, results)), config, policy)

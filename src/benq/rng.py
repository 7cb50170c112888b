"""Counter-based deterministic random numbers for synthetic tensors.

The generator is the SplitMix64 output function applied to an explicit
counter, so any draw can be recomputed in isolation and streams can be
partitioned without shared state:

    state(i) = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64
    z = state(i)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2**64
    out(i) = z ^ (z >> 31)

uniform01 maps out(i) to [0, 1) via the top 53 bits, (out >> 11) * 2**-53.
normals consumes two counters per sample (Box-Muller, cosine branch only):
u1 from counter 2i is mapped into (0, 1] so log never sees zero, u2 from
counter 2i+1.  All counter layouts are part of the file-format contract:
the same seed and counters reproduce the same doubles on any platform
(transcendental mappings may differ in the last ulp or two across libm
implementations; the integer stream is bit-exact).
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_INV53 = float(2.0 ** -53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def raw64(seed: int, counter: int, n: int) -> np.ndarray:
    """uint64 outputs for counters counter .. counter+n-1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK) + idx * _GAMMA)


def unit_from_raw(r: np.ndarray, open_low: bool = False) -> np.ndarray:
    """Map uint64 outputs to [0, 1) doubles, or (0, 1] when open_low is set."""
    u = (r >> np.uint64(11)).astype(np.float64)
    if open_low:
        u += 1.0
    return u * _INV53


def sign_from_raw(r: np.ndarray) -> np.ndarray:
    """Map uint64 outputs to +/-1.0 doubles via the top bit."""
    return 1.0 - 2.0 * (r >> np.uint64(63)).astype(np.float64)


def uniform01(seed: int, counter: int, n: int) -> np.ndarray:
    """float64 uniforms in [0, 1), one per counter."""
    return unit_from_raw(raw64(seed, counter, n))


def signs(seed: int, counter: int, n: int) -> np.ndarray:
    """float64 array of +/-1 from the top bit, one per counter."""
    return sign_from_raw(raw64(seed, counter, n))


def normals(seed: int, counter: int, n: int) -> np.ndarray:
    """n standard normals; sample i uses counters counter+2i and counter+2i+1."""
    r = raw64(seed, counter, 2 * n)
    u1 = unit_from_raw(r[0::2], open_low=True)
    u2 = unit_from_raw(r[1::2])
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_seed(seed: int, name: str) -> int:
    """Stable per-tensor seed: base seed xor the low 64 bits of sha256(name)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & _MASK

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

raw64 mixes in place in its result, with one scratch array of the same
size.  The mappings from raw outputs to doubles take an optional `out`, so
that a caller drawing a stream in chunks reuses its buffers.
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
    """SplitMix64's output function, in place on z with one scratch array."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def raw64(seed: int, counter: int, n: int) -> np.ndarray:
    """uint64 outputs for counters counter .. counter+n-1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    z = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & _MASK)
    return _mix(z)


def _top_bits(r: np.ndarray, shift: int, out: np.ndarray | None) -> np.ndarray:
    """r >> shift as float64, into `out` when given, without a temporary:
    the shift goes to out's own bytes, which are then converted in place.
    They convert as int64, a cheaper cast than uint64's and the same values,
    since a shift of 11 or more leaves them below 2**53."""
    if out is None:
        out = np.empty(r.shape)
    bits = out.view(np.uint64)
    np.right_shift(r, np.uint64(shift), out=bits)
    out[...] = bits.view(np.int64)
    return out


def unit_from_raw(r: np.ndarray, open_low: bool = False,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Map uint64 outputs to [0, 1) doubles, or (0, 1] when open_low is set;
    into `out` (float64, r's shape) when given."""
    u = _top_bits(r, 11, out)
    if open_low:
        u += 1.0
    u *= _INV53
    return u


def sign_from_raw(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map uint64 outputs to +/-1.0 doubles via the top bit; into `out` when given."""
    s = _top_bits(r, 63, out)
    s *= 2.0
    return np.subtract(1.0, s, out=s)


def normal_from_raw(r1: np.ndarray, r2: np.ndarray, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Box-Muller, cosine branch: sqrt(-2 log u1) * cos(2 pi u2), u1 in (0, 1]
    from r1 and u2 in [0, 1) from r2; into `out`, using `scratch` (both
    float64, r1's shape) when given."""
    out = unit_from_raw(r1, open_low=True, out=out)
    np.log(out, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    cos = unit_from_raw(r2, out=scratch)
    cos *= 2.0 * np.pi
    out *= np.cos(cos, out=cos)
    return out


def uniform01(seed: int, counter: int, n: int) -> np.ndarray:
    """float64 uniforms in [0, 1), one per counter."""
    return unit_from_raw(raw64(seed, counter, n))


def signs(seed: int, counter: int, n: int) -> np.ndarray:
    """float64 array of +/-1 from the top bit, one per counter."""
    return sign_from_raw(raw64(seed, counter, n))


def normals(seed: int, counter: int, n: int) -> np.ndarray:
    """n standard normals; sample i uses counters counter+2i and counter+2i+1."""
    r = raw64(seed, counter, 2 * n)
    return normal_from_raw(r[0::2], r[1::2])


def derive_seed(seed: int, name: str) -> int:
    """Stable per-tensor seed: base seed xor the low 64 bits of sha256(name)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & _MASK

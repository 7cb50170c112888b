"""Synthetic weight tensors with reproducible counter layouts.

A distribution spec is written `name(arg, ..., n)`, e.g. `loguniform(6,1000000)`.
Values are computed in float64 and stored as float32.  Counter layouts per
sample i (all streams start at counter 0 of the tensor's seed):

* loguniform(decades, n): signed values whose magnitudes are log-uniform
  over [10**-decades, 1).  Counter 2i yields u in [0,1), counter 2i+1 the
  sign; the value is sign * 10**(decades * (u - 1)).
* lognormal(mu, sigma, n): counters 3i and 3i+1 feed a Box-Muller pair
  (cosine branch) for z, counter 3i+2 the sign; value sign * exp(mu + sigma*z).
* gaussian(sigma, n): counters 2i and 2i+1 feed Box-Muller; value sigma * z.
* constant(c, n): every element is c; no counters consumed.

Generation runs over fixed chunks of samples: chunk [start, start + m) draws
counters k*start .. k*(start+m) - 1 (k per sample, as above) and computes
its values in place in float64 buffers of the chunk's size, with the same
operations in the same order as on the whole tensor.  So the layouts and
every value are independent of the chunk size, and `synth_blocks` holds
O(chunk) memory whatever n is; `synth_tensor` adds only its float32 result.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError

_SPEC_RE = re.compile(r"^\s*([A-Za-z_]+)\s*\(\s*([^()]*)\s*\)\s*$")

_ARITY = {"loguniform": 1, "lognormal": 2, "gaussian": 1, "constant": 1}

# samples per chunk: a chunk's counters and float64 buffers (1.5-2.2 MB) stay in cache
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SynthSpec:
    dist: str
    params: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        if self.dist not in _ARITY:
            raise ConfigError(f"unknown distribution {self.dist!r} "
                              f"(expected one of: {', '.join(sorted(_ARITY))})")
        if len(self.params) != _ARITY[self.dist]:
            raise ConfigError(f"{self.dist} takes {_ARITY[self.dist]} parameter(s) "
                              f"plus a sample count, got {self.params}")
        if self.n < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.n}")
        if self.dist == "loguniform" and self.params[0] <= 0:
            raise ConfigError("loguniform needs a positive decade span")
        if self.dist in ("lognormal", "gaussian") and self.params[-1] < 0:
            raise ConfigError(f"{self.dist} needs a non-negative sigma")

    def describe(self) -> str:
        args = ",".join(repr(p) for p in self.params)
        return f"{self.dist}({args},{self.n})"


def parse_spec(text: str) -> SynthSpec:
    """Parse `name(arg, ..., n)` into a SynthSpec."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse distribution spec {text!r}")
    name = m.group(1).lower()
    raw_args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    if len(raw_args) < 2:
        raise ConfigError(f"{text!r}: expected distribution parameters and a sample count")
    try:
        params = tuple(float(a) for a in raw_args[:-1])
        n = int(raw_args[-1])
    except ValueError:
        raise ConfigError(f"cannot parse numeric arguments in {text!r}") from None
    return SynthSpec(name, params, n)


def _fill(spec: SynthSpec, seed: int, start: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """Samples start .. start+out.size-1 of the spec into `out`, in place;
    `scratch` is float64 of out's size."""
    m = out.size
    if spec.dist == "constant":
        out.fill(spec.params[0])
    elif spec.dist == "loguniform":
        r = rng.raw64(seed, 2 * start, 2 * m)
        rng.unit_from_raw(r[0::2], out=out)
        out -= 1.0
        out *= spec.params[0]
        np.power(10.0, out, out=out)
        out *= rng.sign_from_raw(r[1::2], out=scratch)
    elif spec.dist == "lognormal":
        mu, sigma = spec.params
        r = rng.raw64(seed, 3 * start, 3 * m)
        rng.normal_from_raw(r[0::3], r[1::3], out, scratch)
        out *= sigma
        out += mu
        np.exp(out, out=out)
        out *= rng.sign_from_raw(r[2::3], out=scratch)
    else:  # gaussian
        r = rng.raw64(seed, 2 * start, 2 * m)
        rng.normal_from_raw(r[0::2], r[1::2], out, scratch)
        out *= spec.params[0]


def _parsed(spec: SynthSpec | str) -> SynthSpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


def synth_blocks(spec: SynthSpec | str, seed: int = 0) -> Iterator[np.ndarray]:
    """The float32 values of synth_tensor(spec, seed), in order, _CHUNK samples
    at a time (the last block holds the rest)."""
    spec = _parsed(spec)
    values = np.empty(min(spec.n, _CHUNK))
    scratch = np.empty_like(values)
    for start in range(0, spec.n, _CHUNK):
        m = min(_CHUNK, spec.n - start)
        _fill(spec, seed, start, values[:m], scratch[:m])
        yield values[:m].astype(np.float32)


def synth_tensor(spec: SynthSpec | str, seed: int = 0) -> np.ndarray:
    """Generate a 1-D float32 tensor for a spec at a given seed."""
    spec = _parsed(spec)
    out = np.empty(spec.n, dtype=np.float32)
    start = 0
    for block in synth_blocks(spec, seed):
        out[start:start + block.size] = block
        start += block.size
    return out

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

Every parameter must be finite.

Generation runs over fixed chunks of samples: chunk [start, start + m) draws
counters k*start .. k*(start+m) - 1 (k per sample, as above) and computes
its values in place in float64 buffers of the chunk's size, with the same
operations in the same order as on the whole tensor.  So the layouts and
every value are independent of the chunk size and of the thread count.
Each chunk draws its k counter roles as k contiguous streams of step k
(rng.raw64), into a set of three buffers: the first stream into the float64
value buffer's own bytes, which are converted in place, the others into one
uint64 buffer, with a float64 scratch buffer that also serves raw64's
mixing.  A sign is applied by flipping the value's sign bit, which is the
product with +/-1.0 bit for bit, as no accepted spec yields NaN.  The chunk
is then cast to float32; values beyond float32's range become +/-inf.

Chunks are independent, so each one is a task of the process's pool of
BENQ_THREADS threads, else one per core (`_pool._map`), and a tensor of one
chunk runs on the calling thread.  Each thread computes its chunks in its
own buffer set (0.75 MiB), allocated at its first chunk and kept for the
life of the thread, so a tensor allocates no buffers and frees none.  Synthesis thus holds one buffer set per thread
whatever n is: `synth_blocks` adds its float32 blocks in flight, and
`synth_tensor` only its float32 result, into whose slices the tasks cast
their chunks directly.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from ._pool import _default_threads, _map
from .errors import ConfigError

_SPEC_RE = re.compile(r"^\s*([A-Za-z_]+)\s*\(\s*([^()]*)\s*\)\s*$")

_ARITY = {"loguniform": 1, "lognormal": 2, "gaussian": 1, "constant": 1}

# samples per chunk: a chunk's three buffers (0.75 MiB) stay in cache, and rng
# caches its counter ramps at this length
_CHUNK = 1 << 15
_BUFFERS = threading.local()  # each thread's chunk buffers, kept for its life


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
        if not all(math.isfinite(p) for p in self.params):
            raise ConfigError(f"{self.dist} parameters must be finite, got {self.params}")
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


_SIGN = np.uint64(1 << 63)


def _draw(seed: int, counter: int, m: int, step: int, out: np.ndarray,
          scratch: np.ndarray) -> np.ndarray:
    """rng.raw64's stream of m counters into out's bytes, mixed in scratch's."""
    return rng.raw64(seed, counter, m, step, out.view(np.uint64), scratch.view(np.uint64))


def _apply_signs(out: np.ndarray, r: np.ndarray) -> None:
    """out *= rng.sign_from_raw(r), bit for bit for every non-NaN value: r's top
    bit flips out's sign bit.  r is overwritten."""
    r &= _SIGN
    bits = out.view(np.uint64)
    bits ^= r


def _fill(spec: SynthSpec, seed: int, start: int, out: np.ndarray, scratch: np.ndarray,
          raw: np.ndarray | None = None) -> None:
    """Samples start .. start+out.size-1 of the spec into `out`, in place;
    `scratch` is float64 and `raw` uint64 (allocated when not given), both
    of out's size."""
    m = out.size
    if raw is None:
        raw = np.empty(m, dtype=np.uint64)
    if spec.dist == "constant":
        out.fill(spec.params[0])
    elif spec.dist == "loguniform":
        rng.unit_from_raw(_draw(seed, 2 * start, m, 2, out, scratch), out=out)
        out -= 1.0
        out *= spec.params[0]
        np.power(10.0, out, out=out)
        _apply_signs(out, _draw(seed, 2 * start + 1, m, 2, raw, scratch))
    elif spec.dist == "lognormal":
        mu, sigma = spec.params
        rng.normal_from_raw(_draw(seed, 3 * start, m, 3, out, scratch),
                            _draw(seed, 3 * start + 1, m, 3, raw, scratch), out, scratch)
        out *= sigma
        out += mu
        np.exp(out, out=out)
        _apply_signs(out, _draw(seed, 3 * start + 2, m, 3, raw, scratch))
    else:  # gaussian
        rng.normal_from_raw(_draw(seed, 2 * start, m, 2, out, scratch),
                            _draw(seed, 2 * start + 1, m, 2, raw, scratch), out, scratch)
        out *= spec.params[0]


def _parsed(spec: SynthSpec | str) -> SynthSpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


def _buffer_set() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The calling thread's buffers for _fill of up to _CHUNK samples: values
    and scratch (float64) and raw (uint64), made at its first call."""
    buffers = getattr(_BUFFERS, "set", None)
    if buffers is None:
        buffers = _BUFFERS.set = (np.empty(_CHUNK), np.empty(_CHUNK),
                                  np.empty(_CHUNK, dtype=np.uint64))
    return buffers


def _cast_chunks(spec: SynthSpec, seed: int,
                 into: Callable[[int, int], np.ndarray]) -> Iterator[np.ndarray]:
    """Per _CHUNK samples, in order: into(start, m), a float32 array of m
    elements, holding the values of samples start .. start+m-1.

    The chunks are tasks of the pool of the default thread count, a single
    chunk runs on the calling thread; each task computes its chunk in its
    thread's buffer set.
    """
    def chunk(start: int) -> np.ndarray:
        out = into(start, min(_CHUNK, spec.n - start))
        m = out.size
        values, scratch, raw = _buffer_set()
        _fill(spec, seed, start, values[:m], scratch[:m], raw[:m])
        with np.errstate(over="ignore"):  # beyond float32's range casts to +/-inf
            out[...] = values[:m]
        return out

    starts = range(0, spec.n, _CHUNK)
    # the one pool of the thread count, whatever the chunk count: the map
    # submits at most one task per chunk, so a short tensor wakes few workers
    threads = _default_threads()
    return _map(chunk, starts, threads if len(starts) > 1 else 1)


def synth_blocks(spec: SynthSpec | str, seed: int = 0) -> Iterator[np.ndarray]:
    """The float32 values of synth_tensor(spec, seed), in order, _CHUNK samples
    at a time (the last block holds the rest)."""
    yield from _cast_chunks(_parsed(spec), seed,
                            lambda start, m: np.empty(m, dtype=np.float32))


def synth_tensor(spec: SynthSpec | str, seed: int = 0) -> np.ndarray:
    """Generate a 1-D float32 tensor for a spec at a given seed."""
    spec = _parsed(spec)
    out = np.empty(spec.n, dtype=np.float32)
    deque(_cast_chunks(spec, seed, lambda start, m: out[start:start + m]), maxlen=0)
    return out

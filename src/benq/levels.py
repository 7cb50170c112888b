"""Quantization level schedules (codebooks) and first-digit probabilities.

A codebook is a strictly ascending float64 array of 2**bits reconstruction
levels; a group's scale maps its largest magnitude to the top level.  Three
schedules are provided:

* log-uniform: positive levels are geometrically spaced between epsilon
  and 1, so magnitudes are uniform in log space.  With bits=4 and
  epsilon=1e-7 the positive side is exactly one level per decade.
* linear: positive levels k/N for k=1..N with N=2**(bits-1), the
  non-uniform analogue of a fixed-point grid (no zero level).
* rtn: the integers -2**(bits-1) .. 2**(bits-1) - 1, uniform
  round-to-nearest.  Its top level is qmax = 2**(bits-1) - 1.

Log and linear levels are symmetric about zero with +/-1.0 as exact
endpoints; the rtn table has one more negative level than positive ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

MIN_BITS = 2
MAX_BITS = 8
DEFAULT_EPSILON = 1e-7

# P(leading digit = d) = log10(1 + 1/d), d = 1..9
BENFORD_PROBS = np.log10(1.0 + 1.0 / np.arange(1, 10, dtype=np.float64))
BENFORD_PROBS.flags.writeable = False


class Schedule(str, Enum):
    LOG_UNIFORM = "log"
    LINEAR = "linear"
    RTN = "rtn"

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ConfigError(f"unknown schedule {text!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class Codebook:
    """An immutable, ascending level table for one (schedule, bits) choice."""

    levels: np.ndarray
    bits: int
    schedule: Schedule
    epsilon: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=np.float64))
        self.levels.flags.writeable = False

    @property
    def n_levels(self) -> int:
        return self.levels.size

    def describe(self) -> dict:
        out = {"schedule": self.schedule.value, "bits": self.bits}
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        out["levels"] = [float(v) for v in self.levels]
        return out


def _check_bits(bits: int) -> int:
    if bits != int(bits) or not MIN_BITS <= int(bits) <= MAX_BITS:
        raise ConfigError(f"bits must be an integer in {MIN_BITS}..{MAX_BITS}, got {bits!r}")
    return int(bits)


def generate_log_uniform_levels(bits: int, epsilon: float = DEFAULT_EPSILON) -> Codebook:
    """Geometric level grid: 2**(bits-1) magnitudes from epsilon to 1, mirrored.

    Positive level i is exp(log(epsilon) + i * (0 - log(epsilon)) / (n - 1)),
    so consecutive magnitudes differ by a constant log10 step and the top
    level is exactly 1.0.
    """
    bits = _check_bits(bits)
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0 or not np.isfinite(epsilon):
        raise ConfigError(f"epsilon must satisfy 0 < epsilon < 1, got {epsilon!r}")
    n_pos = 2 ** (bits - 1)
    # endpoint 0.0 is set exactly by linspace, so exp gives exactly 1.0
    pos = np.exp(np.linspace(np.log(epsilon), 0.0, n_pos))
    levels = np.concatenate([-pos[::-1], pos])
    return Codebook(levels, bits, Schedule.LOG_UNIFORM, epsilon)


def generate_linear_levels(bits: int) -> Codebook:
    """Evenly spaced magnitudes k/N for k=1..N with N=2**(bits-1), mirrored."""
    bits = _check_bits(bits)
    n_pos = 2 ** (bits - 1)
    pos = np.arange(1, n_pos + 1, dtype=np.float64) / n_pos
    levels = np.concatenate([-pos[::-1], pos])
    return Codebook(levels, bits, Schedule.LINEAR)


@functools.lru_cache(maxsize=64)
def make_codebook(schedule: Schedule, bits: int, epsilon: float = DEFAULT_EPSILON) -> Codebook:
    """The codebook for a schedule; epsilon applies to the log schedule only.

    Cached: a Codebook and its levels are read-only, so every caller can
    share one, and the quantize and dequantize loops ask for it per block.
    """
    schedule = Schedule(schedule)
    if schedule is Schedule.LOG_UNIFORM:
        return generate_log_uniform_levels(bits, epsilon)
    if schedule is Schedule.LINEAR:
        return generate_linear_levels(bits)
    bits = _check_bits(bits)
    half = 2 ** (bits - 1)
    return Codebook(np.arange(-half, half, dtype=np.float64), bits, Schedule.RTN)

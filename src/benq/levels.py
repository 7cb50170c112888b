"""Quantization level tables and first-digit probabilities.

A level table is a read-only, strictly ascending float64 array of 2**bits
reconstruction levels; a group's scale maps its largest magnitude to the
top level.  `level_table` gives the table of each schedule:

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


@functools.lru_cache(maxsize=64)
def level_table(schedule: Schedule, bits: int, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """The read-only level table of a schedule; epsilon applies to the log schedule only.

    Cached: every caller shares one table, and the quantize and dequantize
    loops ask for it per block.
    """
    schedule = Schedule(schedule)
    if bits != int(bits) or not MIN_BITS <= int(bits) <= MAX_BITS:
        raise ConfigError(f"bits must be an integer in {MIN_BITS}..{MAX_BITS}, got {bits!r}")
    half = 2 ** (int(bits) - 1)
    if schedule is Schedule.RTN:
        levels = np.arange(-half, half, dtype=np.float64)
    else:
        if schedule is Schedule.LINEAR:
            pos = np.arange(1, half + 1, dtype=np.float64) / half
        else:
            epsilon = float(epsilon)
            if not 0.0 < epsilon < 1.0 or not np.isfinite(epsilon):
                raise ConfigError(f"epsilon must satisfy 0 < epsilon < 1, got {epsilon!r}")
            # endpoint 0.0 is set exactly by linspace, so exp gives exactly 1.0
            pos = np.exp(np.linspace(np.log(epsilon), 0.0, half))
        levels = np.concatenate([-pos[::-1], pos])
    levels.flags.writeable = False
    return levels

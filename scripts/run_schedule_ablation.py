"""Reconstruction-error grid over schedules, bit widths and group sizes.

By default runs on two synthetic tensors: one with magnitudes spread over
five decades (where the log schedule is at its best relative to linear) and
one narrow norm-like band (where uniform rtn wins).  Pass a safetensors
file to run the same grid on real weights instead.
"""

import argparse

import numpy as np

from benq import rng
from benq.io import read_container
from benq.levels import Schedule
from benq.metrics import compare_schedules
from benq.quantizer import QuantConfig
from benq.synth import synth_tensor

SCHEDULES = (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)


def default_tensors(seed):
    return {
        "broad_5dec": synth_tensor("loguniform(5,100000)", seed),
        "narrow_band": (0.3 + 0.1 * rng.uniform01(seed, 0, 100000))
        .astype(np.float32),
    }


def print_grid(tensors, bits_list, group_list):
    """One row of MSEs per (tensor, bits, group size) over (name, array) pairs."""
    print(f"{'tensor':<14} {'bits':>4} {'G':>4}  "
          + "".join(f"{s.value + ' mse':>14}" for s in SCHEDULES) + "  best")
    for name, data in tensors:
        for bits in bits_list:
            for g in group_list:
                cfgs = [QuantConfig(bits=bits, group_size=g, schedule=s)
                        for s in SCHEDULES]
                reps = compare_schedules(data, cfgs, name)
                best = min(reps, key=lambda r: r.mse).schedule
                cells = "".join(f"{r.mse:>14.4e}" for r in reps)
                print(f"{name[:14]:<14} {bits:>4} {g:>4}  {cells}  {best}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("container", nargs="?",
                    help="optional safetensors file (default: synthetic pair)")
    ap.add_argument("--bits", default="2,3,4,8")
    ap.add_argument("--group-sizes", default="8,32,128")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bits_list = [int(b) for b in args.bits.split(",")]
    group_list = [int(g) for g in args.group_sizes.split(",")]
    if args.container:
        with read_container(args.container) as (_, tensors):
            # each tensor is held whole: the grid quantizes it many times
            print_grid(((s.name, np.concatenate([np.empty(0, np.float32), *blocks]))
                        for s, blocks in tensors), bits_list, group_list)
    else:
        print_grid(default_tensors(args.seed).items(), bits_list, group_list)


if __name__ == "__main__":
    main()

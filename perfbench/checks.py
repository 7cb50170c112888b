"""Checks of the program's outputs, each computed apart from the program.

Nothing here imports benq: files are read with the benchmark's own readers
(formats.py), codebooks are rebuilt from their formulas, digits come from
exact decimal boundaries, and nearest levels from a brute-force search.
No check compares against a stored copy of an earlier output.

Each ``check_*`` raises CheckFailed with the first discrepancy it finds.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from formats import BenqFile, SafeTensors
from workloads import EPSILON, Workload

F16_TINY = np.float16(2.0 ** -24)
BLOCK = 1 << 20          # elements per chunk, to bound the benchmark's own memory
SAMPLE_COST = 1 << 17    # elements x levels per tensor for the brute-force nearest search
REL_F32 = 2.0 ** -23     # one float32 ulp, relative: the rounding of level * scale


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _require_equal(name: str, what: str, ids: np.ndarray, got: np.ndarray,
                   want: np.ndarray) -> None:
    """Fail on the first position where got != want; ids name the positions."""
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = bad[0]
        raise CheckFailed(f"{name}: {what} {ids[i]} is {got[i].item()!r}, expected {want[i].item()!r} "
                          f"({bad.size} differ)")


# ---------------------------------------------------------------- codebooks


def reference_levels(schedule: str, bits: int) -> np.ndarray:
    """Ascending reconstruction grid; the stored code of a value is its index here.

    log:    +/- EPSILON ** ((n - 1 - i) / (n - 1)), i = 0..n-1, n = 2**(bits-1)
    linear: +/- k / n, k = 1..n
    rtn:    the integers -2**(bits-1) .. 2**(bits-1) - 1 (codes are offset by 2**(bits-1))
    """
    n = 2 ** (bits - 1)
    if schedule == "rtn":
        return np.arange(-n, n, dtype=np.float64)
    if schedule == "log":
        pos = np.array([EPSILON ** ((n - 1 - i) / (n - 1)) for i in range(n)])
    else:
        pos = np.arange(1, n + 1, dtype=np.float64) / n
    return np.concatenate([-pos[::-1], pos])


def reference_scales(absmax: np.ndarray, schedule: str, bits: int) -> np.ndarray:
    """float16 group scales from exact group maxima, underflow pinned to 2**-24."""
    m = absmax / (2 ** (bits - 1) - 1) if schedule == "rtn" else absmax
    s = m.astype(np.float16)
    return np.where((s == 0) & (m > 0), F16_TINY, s)


def brute_force_codes(z: np.ndarray, levels: np.ndarray, schedule: str) -> np.ndarray:
    """Index of the nearest level by comparing every level.

    Ties go to the lower index for codebooks and away from zero for rtn,
    as the README states.
    """
    d = np.abs(z[:, None] - levels[None, :])
    if schedule != "rtn":
        return np.argmin(d, axis=1)
    best = d == d.min(axis=1, keepdims=True)
    return np.argmax(np.where(best, np.abs(levels)[None, :], -1.0), axis=1)


def _blocks(numel: int, group_size: int):
    """(start, stop) element ranges on group boundaries, covering numel."""
    step = max(1, BLOCK // group_size) * group_size
    for start in range(0, numel, step):
        yield start, min(start + step, numel)


def _groups(flat: np.ndarray, group_size: int) -> np.ndarray:
    """float64 (n, group_size) view of a chunk, the short tail zero-padded."""
    x = np.asarray(flat, dtype=np.float64)
    pad = -x.size % group_size
    if pad:
        x = np.concatenate([x, np.zeros(pad)])
    return x.reshape(-1, group_size)


def sample_elements(numel: int, group_size: int, n_levels: int, seed: int,
                    name: str) -> np.ndarray:
    """Element ids of a seeded sample of about SAMPLE_COST / n_levels elements in
    whole groups, always including the first group and the last (possibly short) one."""
    n_groups = -(-numel // group_size)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    k = max(1, SAMPLE_COST // n_levels // group_size)
    picks = rng.choice(n_groups, size=min(n_groups, k), replace=False)
    groups = np.unique(np.concatenate([[0, n_groups - 1], picks]).astype(np.int64))
    ids = (groups[:, None] * group_size + np.arange(group_size)[None, :]).ravel()
    return ids[ids < numel]


# ---------------------------------------------------------------- digits


@functools.lru_cache(maxsize=1)
def decimal_boundaries() -> np.ndarray:
    """Smallest float32 >= d * 10**k for k = -46..38, d = 1..9, in that order.

    A float32 |x| has leading digit d exactly when it lies in
    [B(d, k), B(d + 1, k)) for some k, so a searchsorted against this table
    is an exact leading-digit oracle over the whole float32 range.
    """
    out = []
    top = Fraction(float(np.finfo(np.float32).max))
    for k in range(-46, 39):
        for d in range(1, 10):
            t = Fraction(d) * Fraction(10) ** k
            if t > top:
                out.append(np.float32(np.inf))
                continue
            f = np.float32(float(t))
            while Fraction(float(f)) < t:
                f = np.nextafter(f, np.float32(np.inf))
            while f > 0 and Fraction(float(np.nextafter(f, np.float32(0)))) >= t:
                f = np.nextafter(f, np.float32(0))
            out.append(f)
    return np.array(out, dtype=np.float32)


def digit_counts(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact counts of leading digits 1..9 and the number of zeros."""
    bounds = decimal_boundaries()
    counts = np.zeros(bounds.size + 1, dtype=np.int64)
    for start, stop in _blocks(values.size, 1):
        pos = np.searchsorted(bounds, np.abs(values[start:stop]), side="right")
        counts += np.bincount(pos, minlength=bounds.size + 1)
    return counts[1:].reshape(-1, 9).sum(axis=0), int(counts[0])


def check_digit_counts(report_path: str, inp: SafeTensors) -> None:
    """analyze: per-tensor digit counts, zeros and MAD against the exact oracle."""
    with open(report_path, encoding="utf-8") as f:
        rows = {r["name"]: r for r in json.load(f)["per_tensor"]}
    _require(set(rows) == set(inp.names()),
             f"analyze reports {len(rows)} tensors, input has {len(inp.names())}")
    benford = [math.log10(1 + 1 / d) for d in range(1, 10)]
    for name in inp.names():
        row = rows[name]
        values = inp.values(name)
        counts, zeros = digit_counts(values)
        _require(row["numel"] == values.size, f"{name}: numel {row['numel']} != {values.size}")
        _require(list(row["counts"]) == counts.tolist(),
                 f"{name}: digit counts {row['counts']} != oracle {counts.tolist()}")
        _require(row["zeros_skipped"] == zeros,
                 f"{name}: zeros_skipped {row['zeros_skipped']} != {zeros}")
        _require(sum(row["counts"]) + row["zeros_skipped"] == values.size,
                 f"{name}: counts plus zeros do not add up to numel")
        total = int(counts.sum())
        if total:
            mad = math.fsum(abs(c / total - p) for c, p in zip(counts.tolist(), benford)) / 9
            _require(row["mad"] is not None and abs(row["mad"] - mad) <= 1e-12,
                     f"{name}: mad {row['mad']} != {mad}")


# ---------------------------------------------------------------- .benq


def check_benq_layout(bf: BenqFile, inp: SafeTensors, wl: Workload, quantized: set[str]) -> int:
    """quantize: config, policy split, directory sizes and total file size.

    Returns the size the file must have: the 12-byte preamble, the header, and
    each payload part (packed codes, float16 scales, preserved bytes) padded to 8.
    """
    cfg = bf.header["config"]
    _require((bf.schedule, bf.bits, bf.group_size) == (wl.schedule, wl.bits, wl.group_size),
             f".benq config {cfg} does not match the workload")
    _require(wl.schedule != "log" or bf.epsilon == EPSILON, f".benq epsilon {bf.epsilon}")
    _require(list(bf.tensors) == inp.names(), ".benq tensors differ from the input's")
    got = {n for n in bf.tensors if bf.is_quantized(n)}
    _require(got == quantized, f"quantized set differs: extra {sorted(got - quantized)[:3]}, "
                               f"missing {sorted(quantized - got)[:3]}")
    G, expected = wl.group_size, 12 + bf.header_len
    pad8 = lambda n: n + (-n % 8)  # noqa: E731
    for name, entry in bf.tensors.items():
        numel = int(np.prod(inp.shape(name), dtype=np.int64))
        _require(list(entry["shape"]) == list(inp.shape(name)), f"{name}: shape {entry['shape']}")
        if name in quantized:
            n_groups = -(-numel // G)
            packed = -(-numel // 2) if wl.bits <= 4 else numel
            _require(entry["n_groups"] == n_groups and entry["tail_len"] == numel % G,
                     f"{name}: n_groups/tail_len {entry['n_groups']}/{entry['tail_len']}")
            _require(entry["indices"][1] == packed, f"{name}: {entry['indices'][1]} code bytes")
            _require(entry["scales"][1] == 2 * n_groups, f"{name}: {entry['scales'][1]} scale bytes")
            expected += pad8(packed) + pad8(2 * n_groups)
        else:
            _require(entry["dtype"] == inp.dtype(name), f"{name}: stored as {entry['dtype']}")
            _require(entry["data"][1] == numel * (4 if wl.dtype == "F32" else 2),
                     f"{name}: {entry['data'][1]} preserved bytes")
            expected += pad8(entry["data"][1])
    _require(bf.size == expected, f".benq is {bf.size} bytes, shapes and config give {expected}")
    return expected


def check_scales(bf: BenqFile, inp: SafeTensors, quantized: set[str]) -> None:
    """quantize: every group scale is float16(max|w|), or float16(max|w|/qmax) for rtn."""
    G = bf.group_size
    for name in sorted(quantized):
        w, stored = inp.values(name), bf.scales(name)
        for start, stop in _blocks(w.size, G):
            ref = reference_scales(np.max(np.abs(_groups(w[start:stop], G)), axis=1),
                                   bf.schedule, bf.bits)
            got = stored[start // G:start // G + ref.size]
            _require_equal(name, "scale of group", np.arange(start // G, start // G + ref.size),
                           got.view(np.uint16), ref.view(np.uint16))


def _codes_of_sample(bf: BenqFile, name: str, values: np.ndarray, seed: int):
    """(element ids, z = value / stored scale, stored codes) on the sampled groups."""
    G = bf.group_size
    ids = sample_elements(values.size, G, 2 ** bf.bits, seed, name)
    s = bf.scales(name).astype(np.float64)[ids // G]
    z = np.where(s == 0, 0.0, np.asarray(values[ids], dtype=np.float64) / np.where(s == 0, 1, s))
    return ids, s, z, bf.stored_indices(name)[ids].astype(np.int64)


def check_nearest(bf: BenqFile, inp: SafeTensors, quantized: set[str], seed: int) -> None:
    """quantize: on a seeded sample of groups each stored code is a nearest level of w/scale."""
    levels = reference_levels(bf.schedule, bf.bits)
    for name in sorted(quantized):
        ids, s, z, codes = _codes_of_sample(bf, name, inp.values(name), seed)
        want = np.where(s == 0, levels.size // 2, brute_force_codes(z, levels, bf.schedule))
        _require_equal(name, "code of element", ids, codes, want)


def check_preserved_benq(bf: BenqFile, inp: SafeTensors, quantized: set[str]) -> None:
    """quantize: preserved tensors keep their input bytes in the source dtype."""
    for name in inp.names():
        if name in quantized:
            continue
        raw, src = bf.preserved_raw(name), inp.raw(name)
        _require(np.array_equal(raw.view(np.uint8), np.asarray(src).view(np.uint8)),
                 f"{name}: preserved bytes in the .benq differ from the input")


# ---------------------------------------------------------------- dequantized file


def check_dequantized_layout(dq: SafeTensors, inp: SafeTensors) -> None:
    """dequantize: every input tensor comes back as F32 with its shape."""
    _require(dq.names() == inp.names(), "dequantized tensors differ from the input's")
    for name in inp.names():
        _require(dq.dtype(name) == "F32", f"{name}: dequantized as {dq.dtype(name)}")
        _require(dq.shape(name) == inp.shape(name), f"{name}: shape {dq.shape(name)}")


def check_levels(bf: BenqFile, dq: SafeTensors, quantized: set[str]) -> None:
    """dequantize: reconstruction / scale is the codebook level its code names.

    The level is rebuilt from the schedule's formula; reconstruction is
    float32(level * scale), so the two agree to one float32 rounding.
    """
    G, levels = bf.group_size, reference_levels(bf.schedule, bf.bits)
    for name in sorted(quantized):
        rec, codes, scales = dq.values(name), bf.stored_indices(name), bf.scales(name)
        for start, stop in _blocks(rec.size, G):
            s = np.repeat(scales[start // G:-(-stop // G)].astype(np.float64), G)[:stop - start]
            want = levels[codes[start:stop]] * s
            got = np.asarray(rec[start:stop], dtype=np.float64)
            bad = np.flatnonzero(np.abs(got - want) > REL_F32 * np.abs(want))
            if bad.size:
                i = bad[0]
                raise CheckFailed(f"{name}: element {start + i} is {got[i].item()!r}, "
                                  f"level * scale is {want[i].item()!r} ({bad.size} differ)")


def check_preserved(dq: SafeTensors, inp: SafeTensors, quantized: set[str]) -> None:
    """dequantize: preserved tensors are bit-identical to the (widened) input."""
    for name in inp.names():
        if name in quantized:
            continue
        a = np.ascontiguousarray(inp.values(name)).view(np.uint32)
        b = np.ascontiguousarray(dq.values(name)).view(np.uint32)
        _require_equal(name, "preserved bits of element", np.arange(a.size), b, a)


def check_projection(bf: BenqFile, dq: SafeTensors, quantized: set[str], seed: int) -> None:
    """dequantize: quantizing the reconstruction again gives the same scales and codes.

    Scales are re-derived for every group; codes by brute force on the sample.
    """
    G, levels = bf.group_size, reference_levels(bf.schedule, bf.bits)
    for name in sorted(quantized):
        rec, stored = dq.values(name), bf.scales(name)
        for start, stop in _blocks(rec.size, G):
            ref = reference_scales(np.max(np.abs(_groups(rec[start:stop], G)), axis=1),
                                   bf.schedule, bf.bits)
            got = stored[start // G:start // G + ref.size]
            _require_equal(name, "re-derived scale of group",
                           np.arange(start // G, start // G + ref.size),
                           ref.view(np.uint16), got.view(np.uint16))
        ids, s, z, codes = _codes_of_sample(bf, name, rec, seed)
        want = np.where(s == 0, levels.size // 2, brute_force_codes(z, levels, bf.schedule))
        _require_equal(name, "re-quantized code of element", ids, want, codes)


# ---------------------------------------------------------------- errors and compare


@dataclass
class TensorError:
    numel: int
    sum_sq_err: float
    sum_sq: float
    max_abs_err: float


def reconstruction_errors(dq: SafeTensors, inp: SafeTensors, quantized: set[str]) -> dict:
    """Per quantized tensor: squared-error and squared-value sums and the max error."""
    out = {}
    for name in sorted(quantized):
        w, rec = inp.values(name), dq.values(name)
        e2 = w2 = mx = 0.0
        for start, stop in _blocks(w.size, 1):
            a = np.asarray(w[start:stop], dtype=np.float64)
            err = a - np.asarray(rec[start:stop], dtype=np.float64)
            e2 += float(np.sum(err * err))
            w2 += float(np.sum(a * a))
            mx = max(mx, float(np.max(np.abs(err))))
        out[name] = TensorError(w.size, e2, w2, mx)
    return out


def relative_error(errors: dict) -> float:
    """||W - W_hat||_F / ||W||_F over all quantized tensors together."""
    return math.sqrt(math.fsum(e.sum_sq_err for e in errors.values())
                     / math.fsum(e.sum_sq for e in errors.values()))


def check_compare(cmp_path: str, inp: SafeTensors, wl: Workload, errors: dict) -> None:
    """compare: one row per tensor and schedule; the workload's own row matches
    the error the benchmark measures on the dequantized file."""
    with open(cmp_path, encoding="utf-8") as f:
        rows = json.load(f)["rows"]
    schedules = ("log", "linear", "rtn")
    _require(len(rows) == len(inp.names()) * len(schedules),
             f"compare has {len(rows)} rows for {len(inp.names())} tensors")
    by_key = {(r["name"], r["schedule"]): r for r in rows}
    for name in inp.names():
        for sched in schedules:
            r = by_key.get((name, sched))
            _require(r is not None, f"compare has no {sched} row for {name}")
            _require(r["bits"] == wl.bits and r["group_size"] == wl.group_size,
                     f"{name}/{sched}: compared at bits {r['bits']}, G {r['group_size']}")
            _require(all(math.isfinite(r[k]) and r[k] >= 0
                         for k in ("mse", "max_abs_err", "rel_fro_err")),
                     f"{name}/{sched}: non-finite or negative error")
        e = errors.get(name)
        if e is None:
            continue
        r = by_key[(name, wl.schedule)]
        mse = e.sum_sq_err / e.numel
        rel = math.sqrt(e.sum_sq_err / e.sum_sq)
        _require(math.isclose(r["mse"], mse, rel_tol=1e-9, abs_tol=1e-300),
                 f"{name}: compare mse {r['mse']!r}, dequantized file gives {mse!r}")
        _require(math.isclose(r["rel_fro_err"], rel, rel_tol=1e-9),
                 f"{name}: compare rel_fro_err {r['rel_fro_err']!r}, measured {rel!r}")
        _require(math.isclose(r["max_abs_err"], e.max_abs_err, rel_tol=1e-12),
                 f"{name}: compare max_abs_err {r['max_abs_err']!r}, measured {e.max_abs_err!r}")

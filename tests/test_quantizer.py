import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from benq._pool import _QUEUED
from benq.benford import Family, classify_family
from benq.cli import main
from benq.errors import ConfigError, DataError, FormatError
from benq.io import TensorSpec
from benq.levels import Schedule, level_table
from benq.metrics import compare_schedules, distortion
from benq.quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig, QuantPolicy,
                            QuantizedTensor, apply_policy, dequantize,
                            _BLOCK_ELEMS, _group_max, _level_search, _nearest_levels,
                            nearest_level_indices, quantize_tensor)
from conftest import quantize_model, save_container, stream, tensor_set


def exact_nearest(z, table):
    """Nearest index of one float in a sorted list of Fraction levels.

    Exact rational arithmetic; ties go away from zero: the upper candidate
    for z >= 0, the lower one for z < 0.
    """
    fz = Fraction(float(z))
    k = bisect_left(table, fz)  # table[k-1] < fz <= table[k]
    if k == 0 or k == len(table):
        return min(k, len(table) - 1)
    below, above = fz - table[k - 1], table[k] - fz
    if below != above:
        return k - 1 if below < above else k
    return k if fz >= 0 else k - 1


def brute_nearest(values, levels):
    """Reference: full argmin distance scan; ties go away from zero.

    Rows whose best float64 distances are within 1e-9 of each other are
    settled by exact_nearest, so float rounding cannot decide a near-tie.
    """
    x = np.asarray(values, dtype=np.float64)
    d = np.abs(x[:, None] - levels[None, :])
    best = d.min(axis=1)
    out = np.argmin(d, axis=1)
    near = np.count_nonzero(d <= best[:, None] * (1 + 1e-9), axis=1) > 1
    table = [Fraction(v) for v in levels]
    for i in np.flatnonzero(near):
        out[i] = exact_nearest(x[i], table)
    return out


def one_group(values, bits, schedule=Schedule.LOG_UNIFORM):
    """Quantize `values` as a single group; returns (indices, stored scale)."""
    g = np.asarray(values, dtype=np.float64)
    qt = quantize_tensor(g, QuantConfig(bits=bits, group_size=g.size, schedule=schedule), "g")
    return qt.indices, qt.scales[0]


def rtn_group(values, bits):
    """One rtn group; returns (signed integer levels, stored scale)."""
    idx, scale = one_group(values, bits, Schedule.RTN)
    return level_table(Schedule.RTN, bits)[idx], scale


def half_gaps(levels):
    gaps = np.diff(levels)
    left = np.concatenate([[gaps[0]], gaps])
    right = np.concatenate([gaps, [gaps[-1]]])
    return np.maximum(left, right) / 2.0


def finite_arrays(min_size=1, max_size=48, min_mag=0.0, max_mag=8.0):
    elem = st.floats(-max_mag, max_mag, allow_nan=False, width=64)
    if min_mag > 0.0:
        mag = st.floats(min_mag, max_mag, width=64)
        elem = st.builds(lambda m, s: m * s, mag, st.sampled_from([-1.0, 1.0]))
    return st.lists(elem, min_size=min_size, max_size=max_size).map(np.array)


ALL_CONFIGS = [QuantConfig(bits=b, group_size=g, schedule=s)
               for b in (2, 3, 4, 8)
               for g in (1, 8)
               for s in (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)]
LOG_LINEAR_CONFIGS = [c for c in ALL_CONFIGS if c.schedule is not Schedule.RTN]
RTN_CONFIGS = [c for c in ALL_CONFIGS if c.schedule is Schedule.RTN]


def zero_or_sizeable_arrays(max_size=48):
    """Arrays whose elements are exactly zero or of magnitude >= 1e-6.

    Keeps rtn groups away from the regime where every element rounds to
    integer 0 under a subnormal-clamped scale, which is the one documented
    case where requantizing the reconstruction changes the stored scale.
    """
    mag = st.floats(1e-6, 8.0, width=64)
    signed = st.builds(lambda m, s: m * s, mag, st.sampled_from([-1.0, 1.0]))
    elem = st.one_of(st.just(0.0), signed)
    return st.lists(elem, min_size=1, max_size=max_size).map(np.array)


class TestConfig:
    def test_defaults(self):
        cfg = QuantConfig()
        assert (cfg.bits, cfg.group_size, cfg.schedule, cfg.epsilon) == \
            (4, 8, Schedule.LOG_UNIFORM, 1e-7)

    @pytest.mark.parametrize("kwargs", [
        {"bits": 1}, {"bits": 9}, {"bits": 4.5}, {"group_size": 0},
        {"group_size": -8}, {"epsilon": 0.0}, {"epsilon": 1.0},
        {"bits": 9, "schedule": Schedule.RTN},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            QuantConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"group_size": True}, {"group_size": 8.0}, {"schedule": "bogus"},
        {"bits": 4.0}, {"bits": np.int64(4)}, {"epsilon": "0.001"}, {"epsilon": np.float32(1e-3)},
    ], ids=["bool-group-size", "float-group-size", "unknown-schedule",
            "float-bits", "int64-bits", "str-epsilon", "float32-epsilon"])
    def test_direct_construction_checks_types(self, kwargs):
        # the types a config read from a file must have, as in QuantConfig.from_dict
        with pytest.raises(ConfigError):
            QuantConfig(**kwargs)

    @pytest.mark.parametrize("epsilon", [0.5, 1e-3])
    @pytest.mark.parametrize("schedule", [Schedule.LINEAR, Schedule.RTN], ids=lambda s: s.value)
    def test_epsilon_off_the_log_schedule_round_trips(self, schedule, epsilon):
        # only the log schedule writes its epsilon, so the others keep the default
        cfg = QuantConfig(schedule=schedule, epsilon=epsilon)
        assert QuantConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg == QuantConfig(schedule=schedule)

    def test_dict_round_trip(self):
        for cfg in ALL_CONFIGS:
            assert QuantConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            QuantConfig.from_dict({"bits": 4})

    def test_rtn_codebook_is_integer_table(self):
        levels = QuantConfig(bits=4, schedule=Schedule.RTN).levels
        assert levels.tolist() == list(range(-8, 8))


class TestNearestLevel:
    # the ids are the names these cases have always had in the suite
    @pytest.mark.parametrize("schedule", list(Schedule), ids=[
        "generate_log_uniform_levels", "generate_linear_levels", "generate_rtn_levels"])
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_matches_brute_force(self, schedule, bits, rng_np):
        levels = level_table(schedule, bits)
        z = np.concatenate([rng_np.uniform(-1.3, 1.3, 4000) * levels[-1],
                            levels, (levels[:-1] + levels[1:]) / 2.0, [0.0, -0.0]])
        assert np.array_equal(nearest_level_indices(z, levels), brute_nearest(z, levels))

    def test_exact_midpoint_goes_away_from_zero(self):
        levels = level_table(Schedule.LINEAR, 4)   # positive side k/8 at 8..15
        # 3/16 is midway between 1/8 (index 8) and 2/8 (index 9)
        assert nearest_level_indices(np.array([3.0 / 16.0]), levels)[0] == 9
        # -3/16 is midway between -2/8 (index 6) and -1/8 (index 7)
        assert nearest_level_indices(np.array([-3.0 / 16.0]), levels)[0] == 6
        rtn = level_table(Schedule.RTN, 4)         # integers -8..7 at 0..15
        assert nearest_level_indices(np.array([2.5, -2.5, 0.5, -0.5]), rtn).tolist() == \
            [11, 5, 9, 7]

    def test_zero_maps_to_smallest_positive_level(self):
        levels = level_table(Schedule.LOG_UNIFORM, 4)
        assert nearest_level_indices(np.array([0.0, -0.0]), levels).tolist() == [8, 8]

    def test_out_of_range_clamps_to_endpoints(self):
        levels = level_table(Schedule.LOG_UNIFORM, 3)
        idx = nearest_level_indices(np.array([5.0, -5.0]), levels)
        assert idx.tolist() == [7, 0]

    @given(finite_arrays(max_size=32), st.integers(2, 8),
           st.sampled_from(["log", "linear"]))
    def test_matches_brute_force_hypothesis(self, values, bits, schedule):
        levels = level_table(Schedule(schedule), bits)
        assert np.array_equal(nearest_level_indices(values, levels),
                              brute_nearest(values, levels))


class TestBoundaries:
    """Every decision boundary of every table, checked against exact arithmetic."""

    @pytest.mark.parametrize("schedule", list(Schedule), ids=lambda s: s.value)
    def test_every_midpoint_matches_exact_oracle(self, schedule):
        for bits in range(2, 9):
            levels = level_table(schedule, bits)
            table = [Fraction(v) for v in levels]
            mids = (levels[:-1] + levels[1:]) / 2.0
            z = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf)])
            z = np.concatenate([z, -z])

            def mismatches(got, seen):
                want = [exact_nearest(v, table) for v in seen]
                return [(float(v), int(g), w) for v, g, w in zip(seen, got, want) if g != w][:5]

            assert not mismatches(nearest_level_indices(z, levels), z), bits
            # values past the top level would move the group maximum that pins the scale
            inside = z[np.abs(z) <= levels[-1]]
            cfg = QuantConfig(bits=bits, group_size=2, schedule=schedule)
            for scale in (1.0, 2.0 ** -14, 2.0 ** -24):
                pin = np.full(inside.size, scale * levels[-1])
                w = np.column_stack([pin, inside * scale]).ravel()
                qt = quantize_tensor(w, cfg, "w")
                assert np.all(qt.scales == scale), (bits, scale)
                # w / scale is exact for a power-of-two scale; it is what the kernel sees
                assert not mismatches(qt.indices[1::2], w[1::2] / scale), (bits, scale)
                assert np.all(qt.indices[0::2] == levels.size - 1), (bits, scale)


# (schedule, epsilon): the default tables, log tables whose crowded top
# levels put several thresholds in one bucket, and log tables whose bottom
# levels lie among the float32 subnormals or below them
KERNEL_TABLES = [(Schedule.LOG_UNIFORM, 1e-7), (Schedule.LINEAR, 1e-7), (Schedule.RTN, 1e-7),
                 (Schedule.LOG_UNIFORM, 0.5), (Schedule.LOG_UNIFORM, 0.99),
                 (Schedule.LOG_UNIFORM, 0.999999), (Schedule.LOG_UNIFORM, 1e-44),
                 (Schedule.LOG_UNIFORM, 1e-300)]


def block_kernel(z, levels, divisor=1.0, dtype=np.float32):
    """The block kernel's indices of the `dtype` values z / divisor, one per group."""
    w = np.asarray(z, dtype=dtype)
    out = np.empty(w.size, dtype=np.ubyte)
    # the quotient in the block's dtype, as _quantize_groups divides
    _nearest_levels(w / dtype(divisor), w, np.full(w.size, divisor), [levels], [out])
    return out


def float32_buckets():
    """(keys, first, last): every 20-bit key whose bucket holds only finite
    float32s, and the first and last of them as float64."""
    keys = np.arange(1 << 20, dtype=np.uint32)
    keys = keys[(keys & np.uint32(0x7FFFF)) < np.uint32(0x7F800)]  # not inf or nan
    first = (keys << np.uint32(12)).view(np.float32)
    last = ((keys << np.uint32(12)) | np.uint32(0xFFF)).view(np.float32)
    return keys, first.astype(np.float64), last.astype(np.float64)


def split_keys(levels):
    """Keys of the buckets that hold a float32 beside a threshold, the nearest
    at or below it or at or above it: the buckets whose float32s, widened by
    one float32 ulp each way, hold a threshold strictly inside."""
    t = _level_search(levels.tobytes())[0]
    keys, first, last = float32_buckets()
    lo, hi = np.minimum(first, last), np.maximum(first, last)
    # the kernel splits -0 as +0 (a float32 quotient -0 comes from a float64
    # quotient <= 0), so the bucket keyed by -0 ends, toward zero, below -0
    hi[(hi == 0) & np.signbit(hi)] = -(2.0 ** -149)
    with np.errstate(over="ignore"):  # the buckets beside +-inf widen to it
        low = np.nextafter(lo.astype(np.float32), np.float32(-np.inf))
        high = np.nextafter(hi.astype(np.float32), np.float32(np.inf))
    held = (np.searchsorted(t, high.astype(np.float64), side="left")
            - np.searchsorted(t, low.astype(np.float64), side="right"))
    return keys[held > 0]


def preimage_ends(first, last):
    """(low, high): the float64s nearest to and furthest from zero whose float32
    rounding (ties to even) lies between the float32s `first` and `last` of one
    sign, `first` of an even and `last` of an odd last mantissa bit."""
    a, b = np.abs(first).astype(np.float32), np.abs(last).astype(np.float32)
    down = np.float32(0)
    # the tie below an even `first` rounds to it, the tie above an odd `last` away
    low = np.where(a == 0, 0.0, (a.astype(np.float64) + np.nextafter(a, down)) / 2)
    b64 = b.astype(np.float64)
    high = np.nextafter(b64 + (b64 - np.nextafter(b, down)) / 2, 0.0)
    return np.copysign(low, first), np.copysign(high, first)


class TestBucketKernel:
    """The float32 key table and the exact search, at their edges."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]

    @staticmethod
    def edge_inputs(levels):
        mids = (levels[:-1] + levels[1:]) / 2.0
        z = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                            levels])
        # the first and the last float32 of each midpoint's 20-bit key bucket
        low = mids.astype(np.float32).view(np.uint32) >> np.uint32(12) << np.uint32(12)
        ends = np.concatenate([low, low | np.uint32(0xFFF)]).view(np.float32)
        top = levels[-1]
        beyond = [np.nextafter(top, np.inf), 1.5 * top, 2.0 * top, 1e6 * top]
        return np.concatenate([z, ends, beyond, -z, -ends, np.negative(beyond),
                               TestBucketKernel.SPECIAL])

    @pytest.mark.parametrize("schedule,epsilon", KERNEL_TABLES,
                             ids=lambda v: getattr(v, "value", repr(v)))
    def test_matches_exact_oracle(self, schedule, epsilon):
        for bits in range(2, 9):
            levels = level_table(schedule, bits, epsilon)
            table = [Fraction(v) for v in levels]
            z = self.edge_inputs(levels)
            with np.errstate(over="ignore"):
                z32 = z.astype(np.float32)
            z32 = z32[np.isfinite(z32)]  # a quotient is finite
            for got, seen in ((nearest_level_indices(z, levels), z),
                              (block_kernel(z32, levels), z32)):
                want = [exact_nearest(v, table) for v in seen]
                bad = [(float(v), int(g), w) for v, g, w in zip(seen, got, want) if g != w]
                assert not bad, (bits, bad[:5])

    @pytest.mark.parametrize("schedule", list(Schedule), ids=lambda s: s.value)
    def test_exactly_the_buckets_near_a_threshold_split(self, schedule):
        keys, first, _ = float32_buckets()
        for bits in range(2, 9):
            levels = level_table(schedule, bits)
            key_table = _level_search(levels.tobytes())[1]
            split = split_keys(levels)
            assert np.all(key_table[split] == 255), bits
            # every other bucket reads the exact index of its values (255 only
            # for the top level of an 8-bit table)
            whole = ~np.isin(keys, split)
            assert np.array_equal(key_table[keys[whole]],
                                  nearest_level_indices(first[whole], levels)), bits
            assert split.size <= 2 * levels.size, bits

    @pytest.mark.parametrize("schedule,epsilon", KERNEL_TABLES,
                             ids=lambda v: getattr(v, "value", repr(v)))
    def test_every_other_bucket_is_exact_over_its_preimage(self, schedule, epsilon):
        # a bucket not split reads one index for every float64 whose float32
        # rounding it holds: checked at both ends of that pre-image and one
        # float64 ulp inward from each
        keys, first, last = float32_buckets()
        low, high = preimage_ends(first, last)
        ends = [low, np.nextafter(low, np.copysign(np.inf, first)), high,
                np.nextafter(high, 0.0)]
        for x in ends:
            assert np.array_equal(x.astype(np.float32).view(np.uint32) >> 12, keys)
        for bits in range(2, 9):
            levels = level_table(schedule, bits, epsilon)
            key_table = _level_search(levels.tobytes())[1]
            whole = ~np.isin(keys, split_keys(levels))
            for x in ends:
                assert np.array_equal(key_table[keys[whole]],
                                      nearest_level_indices(x[whole], levels)), bits

    def test_crowded_thresholds_share_split_buckets(self):
        levels = level_table(Schedule.LOG_UNIFORM, 8, 0.999999)
        t = _level_search(levels.tobytes())[0]
        split = split_keys(levels)
        assert 0 < split.size <= 8
        # a bucket's key is its float32's top 20 bits; one bucket holds over 100 thresholds
        held = np.unique(t.astype(np.float32).view(np.uint32) >> 12, return_counts=True)[1]
        assert held.max() > 100
        keys, first, last = float32_buckets()
        at = np.isin(keys, split)
        z = np.concatenate([first[at], last[at]])
        z = np.concatenate([z, np.linspace(z.min(), z.max(), 4001)]).astype(np.float32)
        table = [Fraction(v) for v in levels]
        assert block_kernel(z, levels).tolist() == [exact_nearest(v, table) for v in z]

    @pytest.mark.parametrize("schedule,epsilon", KERNEL_TABLES,
                             ids=lambda v: getattr(v, "value", repr(v)))
    def test_block_kernel_is_the_float64_search_at_every_split_bucket(self, schedule, epsilon):
        keys, first, last = float32_buckets()
        for bits in range(2, 9):
            levels = level_table(schedule, bits, epsilon)
            at = np.isin(keys, split_keys(levels))
            z = np.concatenate([first[at], last[at]]).astype(np.float32)
            z = np.concatenate([z, np.nextafter(z, np.float32(-np.inf)),
                                np.nextafter(z, np.float32(np.inf))])
            z = np.concatenate([z, -z])
            for scale in (1.0, 2.0 ** -14, 2.0 ** -24, float(np.float16(0.1))):
                w = (z * scale).astype(np.float32)
                want = nearest_level_indices(w.astype(np.float64) / scale, levels)
                assert np.array_equal(block_kernel(w, levels, scale), want), (bits, scale)

    @pytest.mark.parametrize("schedule,epsilon", KERNEL_TABLES[:3] + [
        (Schedule.LOG_UNIFORM, 1e-3), (Schedule.LOG_UNIFORM, 0.3)],
        ids=lambda v: getattr(v, "value", repr(v)))
    def test_float64_quotients_key_through_their_float32_rounding(self, schedule, epsilon):
        # every threshold, the float32s beside it and the float64s halfway between
        # those, each with its float64 neighbours: the quotients whose float32
        # rounding is furthest from them or lands in the next bucket
        down, up = np.float32(-np.inf), np.float32(np.inf)
        for bits in range(2, 9):
            levels = level_table(schedule, bits, epsilon)
            t = _level_search(levels.tobytes())[0]
            t32 = t.astype(np.float32)
            near = [t32, np.nextafter(t32, down), np.nextafter(t32, up)]
            near = [f.astype(np.float64) for f in near]
            z = np.concatenate([t, *near, (near[0] + near[1]) / 2, (near[0] + near[2]) / 2])
            z = np.concatenate([z, np.nextafter(z, -np.inf), np.nextafter(z, np.inf)])
            z = np.concatenate([z, -z, self.SPECIAL, [1e39, -1e39]])
            got = block_kernel(z, levels, dtype=np.float64)
            assert np.array_equal(got, nearest_level_indices(z, levels)), bits

    def test_special_values(self):
        levels = level_table(Schedule.LINEAR, 3)   # -1 .. -1/4, 1/4 .. 1
        z = np.array(self.SPECIAL + [np.inf, -np.inf])
        assert nearest_level_indices(z, levels).tolist() == [4, 4, 4, 3, 4, 3, 7, 0, 7, 0]


class TestBlockKernel:
    """The per-block steps quantize_tensor, dequantize and compare share."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1050, -(2.0 ** -1050), 1e300, -1e300]

    @pytest.mark.parametrize("G", list(range(1, 41)) + [64, 128, 1024])
    def test_group_max_is_np_max_bit_for_bit(self, G, rng_np):
        pool = np.concatenate([self.SPECIAL, rng_np.normal(0, 1, 16), rng_np.normal(0, 1e-310, 4)])
        g = rng_np.choice(pool, size=(37, G))
        g[0] = -0.0                                  # all negative zeros
        g[1] = np.resize(self.SPECIAL[2:6], G)       # all subnormal
        with np.errstate(over="ignore"):  # +-1e300 is +-inf in float32
            g32 = g.astype(np.float32)
        for groups, uint in ((g, np.uint64), (g32, np.uint32)):
            got, want = _group_max(groups), np.max(np.abs(groups), axis=1)
            assert np.array_equal(got.view(uint), want.view(uint)), groups.dtype

    def test_non_finite_in_last_block_rejected(self):
        w = np.ones(2 * _BLOCK_ELEMS + 11, dtype=np.float32)
        w[-1] = np.nan
        with pytest.raises(DataError, match="tensor w contains non-finite values"):
            quantize_tensor(w, QuantConfig(group_size=8), "w")

    def test_blocked_dequantize_is_one_shot_bit_for_bit(self, rng_np):
        # three blocks at G=8, the last ending in a 3-element tail group
        G, n = 8, 2 * _BLOCK_ELEMS + 8 * 5 + 3
        for cfg in (QuantConfig(bits=4, group_size=G),
                    QuantConfig(bits=8, group_size=G, schedule=Schedule.RTN)):
            # zero, subnormal and normal float16 scales
            scales = np.exp2(rng_np.uniform(-26, 15, -(-n // G))).astype(np.float16)
            idx = rng_np.integers(0, 2 ** cfg.bits, n).astype(np.uint8)
            qt = QuantizedTensor("w", (n,), idx, scales, cfg)
            levels = cfg.levels
            want = (levels[idx] * np.repeat(scales.astype(np.float64), G)[:n]).astype(np.float32)
            got = dequantize(qt)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_key_table_path_matches_the_exact_path(self, dtype, rng_np):
        # float16 and float32 blocks divide in float32 and their float64 copy in
        # float64; both take the float64 quotient's indices
        n = _BLOCK_ELEMS + 3  # two blocks at G=1 and G=8
        w = (rng_np.standard_normal(n) * np.exp2(rng_np.uniform(-30, 4, n))).astype(dtype)
        for cfg in ALL_CONFIGS:
            got, want = quantize_tensor(w, cfg), quantize_tensor(w.astype(np.float64), cfg)
            assert np.array_equal(got.indices, want.indices), cfg
            assert np.array_equal(got.scales.view(np.uint16), want.scales.view(np.uint16)), cfg

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -14])
    def test_float64_blocks_stay_exact(self, scale):
        # values float32 does not hold: next to a midpoint, 0.1, and 2**-1050
        # beside a group maximum that pins the scale
        cfgs = [QuantConfig(bits=4, group_size=8, schedule=s) for s in Schedule]
        for cfg in cfgs:
            levels = cfg.levels
            mids = (levels[:-1] + levels[1:]) / 2.0
            v = np.concatenate([np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                                [0.1, 2.0 ** -1050, 1e-300]])
            v = np.concatenate([v, -v])
            v = v[np.abs(v) <= levels[-1]]  # the pin stays the group maximum
            v = np.resize(v, -(-v.size // 7) * 7).reshape(-1, 7)
            w = np.column_stack([np.full(v.shape[0], levels[-1]), v]).ravel() * scale
            table = [Fraction(x) for x in levels]
            want = np.array([exact_nearest(x, table) for x in w / scale])
            qt = quantize_tensor(w, cfg, "w")
            assert np.all(qt.scales == scale)
            assert np.array_equal(qt.indices, want), cfg.schedule
            # a float32 copy of these values would take other indices
            assert not np.array_equal(quantize_tensor(w.astype(np.float32), cfg).indices, want)
            rec = (levels[want] * scale).astype(np.float32)
            (report,) = compare_schedules(w, [cfg], "w")
            assert report == distortion(w, rec, name="w", config=cfg)


class TestQuantizeGroup:
    """One group of the log schedule, quantized with group_size = len(group)."""

    def test_worked_example_two_bit(self):
        # levels -1, -1e-7, 1e-7, 1
        idx, scale = one_group([0.8, -0.05, 0.002], bits=2)
        assert idx.tolist() == [3, 1, 2]
        assert scale == np.float16(0.8)

    def test_identical_values_hit_top_level(self):
        idx, scale = one_group(np.full(6, 0.35), bits=4)
        assert idx.tolist() == [15] * 6
        assert scale == np.float16(0.35)

    def test_all_zero_group(self):
        idx, scale = one_group(np.zeros(5), bits=4)
        assert scale == 0
        assert idx.tolist() == [8] * 5  # smallest positive level

    def test_scale_zero_only_for_all_zero_group(self):
        _, scale = one_group([1e-10, -3e-12], bits=4)
        assert scale > 0  # pinned to the float16 subnormal floor

    def test_scale_overflow_rejected(self):
        with pytest.raises(DataError):
            one_group([7.0e4], bits=4)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            one_group([1.0, np.nan], bits=4)


class TestRtnGroup:
    """One group of the rtn schedule, quantized with group_size = len(group)."""

    def test_worked_example(self):
        q, scale = rtn_group([1.0, -0.5, 0.1], 4)
        assert q.tolist() == [7, -4, 1]   # -0.5/s = -3.5, rounded away from zero
        assert scale == np.float16(1.0 / 7.0)

    def test_single_element_reconstructs_within_scale_rounding(self):
        q, scale = rtn_group([0.7], 4)
        assert q.tolist() == [7]
        assert abs(float(q[0]) * float(scale) - 0.7) <= 0.7 * 2.0 ** -10

    def test_zero_group(self):
        q, scale = rtn_group(np.zeros(3), 4)
        assert scale == 0 and q.tolist() == [0, 0, 0]

    @given(finite_arrays(max_size=32), st.integers(2, 8))
    def test_negation_flips_exactly(self, values, bits):
        q1, s1 = rtn_group(values, bits)
        q2, s2 = rtn_group(-values, bits)
        assert s1 == s2 or (np.isnan(s1) and np.isnan(s2))
        assert np.array_equal(q2, -q1)


class TestQuantizeTensor:
    def test_group_arithmetic(self):
        cfg = QuantConfig(bits=4, group_size=4)
        qt = quantize_tensor(np.arange(10, dtype=np.float64) / 10.0, cfg, "t")
        assert qt.n_groups == 3 and qt.numel % cfg.group_size == 2
        qt2 = quantize_tensor(np.ones((2, 4)), cfg)
        assert qt2.n_groups == 2 and qt2.numel % cfg.group_size == 0

    def test_row_major_grouping(self):
        cfg = QuantConfig(bits=4, group_size=2)
        w = np.array([[0.9, 0.1], [0.002, 0.004]])
        qt = quantize_tensor(w, cfg)
        assert qt.scales.tolist() == [np.float16(0.9), np.float16(0.004)]
        # memory order must not leak into grouping
        qt_f = quantize_tensor(np.asfortranarray(w), cfg)
        assert np.array_equal(qt.indices, qt_f.indices)
        assert np.array_equal(qt.scales, qt_f.scales)

    def test_tail_group_scale_uses_only_tail_elements(self):
        cfg = QuantConfig(bits=4, group_size=8)
        w = np.concatenate([np.full(8, 5.0), [0.25, -0.125]])
        qt = quantize_tensor(w, cfg)
        assert qt.scales.tolist() == [np.float16(5.0), np.float16(0.25)]

    def test_matches_group_function(self, rng_np):
        # each group is quantized on its own: the tensor agrees with its groups
        cfg = QuantConfig(bits=4, group_size=8)
        w = rng_np.normal(0, 0.3, 64)
        qt = quantize_tensor(w, cfg)
        for g in range(8):
            one = quantize_tensor(w[8 * g:8 * g + 8], cfg)
            assert np.array_equal(qt.indices[8 * g:8 * g + 8], one.indices)
            assert qt.scales[g] == one.scales[0]

    def test_empty_and_scalar_tensors(self):
        cfg = QuantConfig()
        empty = quantize_tensor(np.empty((0,)), cfg)
        assert empty.n_groups == 0 and dequantize(empty).shape == (0,)
        scalar = quantize_tensor(np.array(0.5), cfg)
        assert scalar.shape == () and scalar.numel == 1
        assert dequantize(scalar).shape == ()

    def test_group_larger_than_the_tensor_is_the_tensor(self):
        # nothing is sized to a group of 2**40: the 10 elements are one group
        w = np.linspace(-1.0, 1.0, 10, dtype=np.float32)
        for schedule in Schedule:
            small, big = (QuantConfig(group_size=G, schedule=schedule) for G in (w.size, 2 ** 40))
            want = quantize_tensor(w, small, "w")  # also builds the cached level tables
            (want_row,) = compare_schedules(w, [small], "w")
            tracemalloc.start()
            try:
                got = quantize_tensor(w, big, "w")
                rec = dequantize(got)
                (row,) = compare_schedules(w, [big], "w")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16, schedule
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.scales, want.scales)
            assert np.array_equal(rec, dequantize(want))
            assert row == {**want_row, "group_size": 2 ** 40}

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            quantize_tensor(np.array([1.0, np.inf]), QuantConfig(), "w")

    def test_reconstruction_is_float32_and_shaped(self):
        cfg = QuantConfig(bits=4, group_size=8)
        w = np.linspace(-1, 1, 24).reshape(2, 3, 4)
        rec = dequantize(quantize_tensor(w, cfg))
        assert rec.shape == (2, 3, 4) and rec.dtype == np.float32

    def test_constant_tensor_round_trips_exactly(self):
        # 0.25 is float16-exact: the scale stores it and the top level keeps it.
        # rtn is excluded: its scale 0.25/qmax is not float16-representable.
        for cfg in ALL_CONFIGS:
            if cfg.schedule is Schedule.RTN:
                continue
            w = np.full((3, 5), 0.25, dtype=np.float32)
            rec = dequantize(quantize_tensor(w, cfg))
            assert np.array_equal(rec, w), cfg

    def test_zero_tensor_round_trips_exactly(self):
        for cfg in ALL_CONFIGS:
            rec = dequantize(quantize_tensor(np.zeros(17), cfg))
            assert np.array_equal(rec, np.zeros(17, dtype=np.float32)), cfg


class TestRoundTripProperties:
    @given(finite_arrays(), st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=150)
    def test_error_bound(self, values, cfg):
        qt = quantize_tensor(values, cfg, "w")
        rec = dequantize(qt).astype(np.float64)
        scales = np.repeat(qt.scales.astype(np.float64), cfg.group_size)[:values.size]
        bound = scales * half_gaps(cfg.levels)[qt.indices]
        # reconstruction is float32, so allow its half-ulp on top of the
        # mathematical bound (ties sit exactly on the bound and the output
        # rounding can land a hair past it)
        slack = np.abs(rec) * 2.0 ** -23 + 2.0 ** -149
        assert np.all(np.abs(values - rec) <= bound * (1 + 1e-9) + slack)

    @given(finite_arrays(), st.sampled_from(LOG_LINEAR_CONFIGS))
    @settings(max_examples=150)
    def test_fixed_point_codebook(self, values, cfg):
        qt1 = quantize_tensor(values, cfg, "w")
        qt2 = quantize_tensor(dequantize(qt1), cfg, "w")
        assert np.array_equal(qt1.indices, qt2.indices)
        assert np.array_equal(qt1.scales, qt2.scales)

    @given(zero_or_sizeable_arrays(), st.sampled_from(RTN_CONFIGS))
    @settings(max_examples=150)
    def test_fixed_point_rtn(self, values, cfg):
        # Holds whenever some element survives rounding; see the
        # vanishing-group test below for the excluded corner.
        qt1 = quantize_tensor(values, cfg, "w")
        qt2 = quantize_tensor(dequantize(qt1), cfg, "w")
        assert np.array_equal(qt1.indices, qt2.indices)
        assert np.array_equal(qt1.scales, qt2.scales)

    def test_rtn_vanishing_group_requantizes_to_zero_scale(self):
        # A nonzero group whose max magnitude sits below half the smallest
        # positive float16 scale rounds every element to integer 0.  The
        # reconstruction is exactly zero, so a second pass stores scale 0
        # instead of the clamped subnormal: quantization is not a fixed
        # point here, by design (the scale reflects the input, not the
        # rounded output).  The log and linear tables have no zero level
        # and are immune.
        cfg = QuantConfig(bits=8, group_size=1, schedule=Schedule.RTN)
        values = np.array([5.585e-15])
        qt1 = quantize_tensor(values, cfg, "w")
        assert qt1.scales[0] == np.float16(2.0 ** -24)
        assert cfg.levels[qt1.indices[0]] == 0
        rec = dequantize(qt1)
        assert np.array_equal(rec, np.zeros(1))
        qt2 = quantize_tensor(rec, cfg, "w")
        assert qt2.scales[0] == np.float16(0.0)
        assert not np.array_equal(qt1.scales, qt2.scales)

    @given(finite_arrays(min_mag=1e-3), st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=150)
    @example(np.array([1.0, 0.55]), QuantConfig(bits=4, group_size=8))
    @example(np.array([-8.0, -1.5]), QuantConfig(bits=4, group_size=8,
                                                 schedule=Schedule.LINEAR))
    def test_sign_equivariance(self, values, cfg):
        qt_pos = quantize_tensor(values, cfg, "w")
        qt_neg = quantize_tensor(-values, cfg, "w")
        assert np.array_equal(qt_pos.scales, qt_neg.scales)
        levels = cfg.levels
        assert np.array_equal(levels[qt_neg.indices], -levels[qt_pos.indices])
        assert np.array_equal(dequantize(qt_neg), -dequantize(qt_pos))

    @given(finite_arrays(min_mag=1e-3, max_mag=4.0), st.integers(-3, 3),
           st.sampled_from(ALL_CONFIGS))
    @settings(max_examples=150)
    def test_scale_covariance_for_dyadic_factors(self, values, k, cfg):
        # float16 rounding commutes with powers of two inside the normal range
        c = 2.0 ** k
        qt1 = quantize_tensor(values, cfg, "w")
        qt2 = quantize_tensor(c * values, cfg, "w")
        assert np.array_equal(qt1.indices, qt2.indices)
        assert np.array_equal(qt2.scales, (qt1.scales.astype(np.float64) * c
                                           ).astype(np.float16))


class TestDequantizeValidation:
    def test_corrupt_index_rejected(self):
        cfg = QuantConfig(bits=3)
        qt = QuantizedTensor("w", (4,), np.array([9, 0, 0, 0], dtype=np.uint8),
                             np.ones(1, dtype=np.float16), cfg)
        with pytest.raises(FormatError):
            dequantize(qt)

    def test_corrupt_rtn_value_rejected(self):
        cfg = QuantConfig(bits=3, schedule=Schedule.RTN)
        # the 3-bit rtn table has 8 levels, -4..3
        qt = QuantizedTensor("w", (4,), np.array([8, 0, 0, 0]),
                             np.ones(1, dtype=np.float16), cfg)
        with pytest.raises(FormatError):
            dequantize(qt)

    def test_shape_metadata_validated(self):
        with pytest.raises(FormatError):
            QuantizedTensor("w", (5,), np.zeros(4, dtype=np.uint8),
                            np.ones(1, dtype=np.float16), QuantConfig())
        with pytest.raises(FormatError):
            QuantizedTensor("w", (4,), np.zeros(4, dtype=np.uint8),
                            np.ones(3, dtype=np.float16), QuantConfig())


TOY_NAMES = [
    "model.embed_tokens.weight",
    "model.layers.0.self_attn.q_proj.weight",
    "model.layers.0.self_attn.q_proj.bias",
    "model.layers.0.mlp.up_proj.weight",
    "model.layers.0.input_layernorm.weight",
    "model.norm.weight",
    "lm_head.weight",
]


class TestPolicy:
    def test_default_rules(self):
        decisions = {n: DEFAULT_POLICY.should_quantize(n) for n in TOY_NAMES}
        assert decisions == {
            "model.embed_tokens.weight": False,
            "model.layers.0.self_attn.q_proj.weight": True,
            "model.layers.0.self_attn.q_proj.bias": False,
            "model.layers.0.mlp.up_proj.weight": True,
            "model.layers.0.input_layernorm.weight": False,
            "model.norm.weight": False,
            "lm_head.weight": False,
        }

    def test_skip_beats_quantize(self):
        # matches both an attention pattern and a norm pattern
        assert not DEFAULT_POLICY.should_quantize("h.0.self_attn_layer_norm.weight")

    def test_default_action(self):
        # a name no pattern matches is "other", which only QUANTIZE_ALL quantizes
        assert classify_family("anything") is Family.OTHER
        assert not DEFAULT_POLICY.should_quantize("anything")
        assert not QuantPolicy(quantize_families=()).should_quantize("anything")
        assert QUANTIZE_ALL.should_quantize("anything")
        assert QUANTIZE_ALL.quantize_families == tuple(f.value for f in Family)

    def test_dict_round_trip_and_digest(self):
        p = QuantPolicy(family_patterns=(("norm", ("gamma",)),))
        q = QuantPolicy.from_dict(p.to_dict())
        assert p == q and p.digest() == q.digest()
        assert p.digest() != DEFAULT_POLICY.digest()
        assert DEFAULT_POLICY.digest() == QuantPolicy().digest()

    def test_validation(self):
        with pytest.raises(ConfigError):
            QuantPolicy(quantize_families=("maybe",))
        with pytest.raises(ConfigError):
            QuantPolicy.from_dict({"quantise_families": []})

    def test_decision_is_the_family(self):
        # one table: every decision is the reported family's membership
        names = TOY_NAMES + ["h.0.self_attn_layer_norm.weight", "rotary.inv_freq",
                             "m.bias.q_proj.weight", "x.q_proj.BIAS", "x.q_proj.bias"]
        for policy in (DEFAULT_POLICY, QUANTIZE_ALL,
                       QuantPolicy(family_patterns=(("mlp_linear", ("inv_freq",)),))):
            for n in names:
                assert policy.should_quantize(n) == (
                    classify_family(n, policy) in policy.quantize_families), n
        assert DEFAULT_POLICY.should_quantize("m.bias.q_proj.weight")
        assert DEFAULT_POLICY.should_quantize("x.q_proj.BIAS")
        assert not DEFAULT_POLICY.should_quantize("x.q_proj.bias")


class TestApplyPolicy:
    def _model(self, rng_np):
        return tensor_set({n: rng_np.normal(0, 0.05, (16, 8)) for n in TOY_NAMES})

    def test_split_and_preservation(self, rng_np):
        model = self._model(rng_np)
        entries = quantize_model(model, DEFAULT_POLICY, QuantConfig())
        assert sorted(n for n, (_, t) in entries.items() if isinstance(t, QuantizedTensor)) == [
            "model.layers.0.mlp.up_proj.weight",
            "model.layers.0.self_attn.q_proj.weight",
        ]
        for name, (_, t) in entries.items():
            if not isinstance(t, QuantizedTensor):
                assert t is model[name][1]  # untouched, not copied

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_pulls_tensors_as_outputs_are_taken(self, rng_np, threads):
        """A tensor is pulled when the map's window of items reaches its first block.

        Each one-block tensor is two items of the map, its block and its end,
        so the window covers `window // 2` tensors beyond the one being taken.
        """
        model = self._model(rng_np)
        window = 1 if threads == 1 else threads + _QUEUED
        pulled = []

        def tensors():
            for (spec, blocks) in stream(model):
                pulled.append(spec.name)
                yield spec, blocks

        outputs = apply_policy(tensors(), DEFAULT_POLICY, QuantConfig(), threads)
        assert pulled == []
        for k, (name, out) in enumerate(zip(model, outputs), 1):
            assert len(pulled) == min(k + (window - 1) // 2, len(model))
            (block,) = out
            assert len(pulled) == min(k + window // 2, len(model))
            assert isinstance(block, QuantizedTensor) == DEFAULT_POLICY.should_quantize(name)
        assert pulled == list(model)

    def test_block_ending_inside_a_group_rejected(self, rng_np):
        w = rng_np.normal(0, 0.05, 64)
        spec = TensorSpec("layers.0.mlp.up_proj.weight", w.shape, "F32")
        outputs = apply_policy([(spec, iter([w[:12], w[12:]]))], DEFAULT_POLICY, QuantConfig())
        with pytest.raises(DataError, match="ends inside a group of 8"):
            list(next(outputs))
        # a preserved tensor is passed through in whatever blocks it comes
        spec = spec._replace(name="model.norm.weight")
        blocks = next(apply_policy([(spec, iter([w[:12], w[12:]]))], DEFAULT_POLICY,
                                   QuantConfig()))
        assert [b.size for b in blocks] == [12, 52]

    def test_threads_deterministic(self, rng_np):
        model = self._model(rng_np)
        a = quantize_model(model, QUANTIZE_ALL, QuantConfig(), threads=1)
        b = quantize_model(model, QUANTIZE_ALL, QuantConfig(), threads=4)
        assert list(a) == list(b)
        for (_, qa), (_, qb) in zip(a.values(), b.values()):
            assert np.array_equal(qa.indices, qb.indices)
            assert np.array_equal(qa.scales, qb.scales)

    def test_empty_model_rejected(self, tmp_path, capsys):
        # apply_policy streams, so rejecting an empty set is the quantize command's job
        assert list(apply_policy([], DEFAULT_POLICY, QuantConfig())) == []
        p = tmp_path / "empty.safetensors"
        save_container(p, {})
        with pytest.warns(UserWarning, match="no tensors"):
            assert main(["quantize", str(p), "--out", str(tmp_path / "e.benq")]) == 1
        assert "empty tensor set" in capsys.readouterr().err
        assert not (tmp_path / "e.benq").exists()

"""Distortion statistics against math.fsum oracles, plus pinned schedule MSEs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from benq import rng
from benq.errors import ConfigError, DataError
from benq.levels import Schedule
from benq.metrics import compare_schedules, distortion
from benq.quantizer import _BLOCK_ELEMS, QuantConfig, dequantize, quantize_tensor
from benq.synth import synth_tensor


def pairs(max_size=64):
    shape = st.integers(1, max_size)
    elem = st.floats(-1e6, 1e6, allow_nan=False, width=32)
    return shape.flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=elem),
        hnp.arrays(np.float64, n, elements=elem)))


class TestDistortion:
    @given(pairs())
    @settings(max_examples=200)
    def test_matches_fsum_oracle(self, ab):
        a, b = ab
        rep = distortion(a, b)
        err = [float(x) - float(y) for x, y in zip(a, b)]
        mse = math.fsum(e * e for e in err) / len(err)
        assert rep["mse"] == pytest.approx(mse, abs=1e-12, rel=1e-12)
        assert rep["max_abs_err"] == max(abs(e) for e in err)
        norm_a = math.sqrt(math.fsum(float(x) * float(x) for x in a))
        norm_e = math.sqrt(math.fsum(e * e for e in err))
        if norm_a == 0.0:
            expect = 0.0 if norm_e == 0.0 else float("inf")
        else:
            expect = norm_e / norm_a
        assert rep["rel_fro_err"] == pytest.approx(expect, rel=1e-12)

    @given(pairs())
    @settings(max_examples=100)
    def test_sign_flip_invariance(self, ab):
        a, b = ab
        r1, r2 = distortion(a, b), distortion(-a, -b)
        assert (r1["mse"], r1["max_abs_err"], r1["rel_fro_err"]) == \
            (r2["mse"], r2["max_abs_err"], r2["rel_fro_err"])

    @given(hnp.arrays(np.float64, 17,
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_identical_inputs_zero_error(self, a):
        rep = distortion(a, a.copy())
        assert (rep["mse"], rep["max_abs_err"], rep["rel_fro_err"]) == (0.0, 0.0, 0.0)

    def test_rel_fro_hand_value(self):
        rep = distortion(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
        assert rep["rel_fro_err"] == 1.0
        assert rep["mse"] == 12.5
        assert rep["max_abs_err"] == 4.0

    def test_rel_fro_zero_reference(self):
        z = np.zeros(4)
        assert distortion(z, z)["rel_fro_err"] == 0.0
        assert distortion(z, np.array([0.0, 1.0, 0.0, 0.0]))["rel_fro_err"] \
            == float("inf")

    def test_empty_arrays(self):
        rep = distortion(np.array([]), np.array([]))
        assert (rep["mse"], rep["max_abs_err"], rep["rel_fro_err"]) == (0.0, 0.0, 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            distortion(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError):
            distortion(np.zeros((2, 3)), np.zeros(6))

    def test_config_fields_plumbed(self):
        cfg = QuantConfig(bits=3, group_size=16, schedule=Schedule.LINEAR)
        rep = distortion(np.ones(4), np.ones(4), name="w", config=cfg)
        assert (rep["name"], rep["schedule"], rep["bits"], rep["group_size"]) == \
            ("w", "linear", 3, 16)
        bare = distortion(np.ones(4), np.ones(4))
        assert (bare["name"], bare["schedule"], bare["bits"], bare["group_size"]) == \
            ("", "", 0, 0)

    def test_row_keys(self):
        cfg = QuantConfig(bits=4, group_size=8, schedule=Schedule.LOG_UNIFORM)
        rep = distortion(np.array([3.0, 4.0]), np.array([3.0, 3.5]), name="w", config=cfg)
        assert list(rep) == ["name", "schedule", "bits", "group_size", "mse",
                             "max_abs_err", "rel_fro_err"]
        assert rep == {"name": "w", "schedule": "log", "bits": 4, "group_size": 8,
                       "mse": 0.125, "max_abs_err": 0.5, "rel_fro_err": 0.1}


class TestCompareSchedules:
    def test_preserves_config_order(self):
        data = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
        cfgs = [QuantConfig(bits=4, group_size=8, schedule=s)
                for s in (Schedule.RTN, Schedule.LOG_UNIFORM, Schedule.LINEAR)]
        reps = compare_schedules(data, cfgs, "t")
        assert [r["schedule"] for r in reps] == ["rtn", "log", "linear"]
        assert all(r["name"] == "t" for r in reps)

    def test_agrees_with_manual_pipeline(self):
        data = synth_tensor("gaussian(0.5,512)", seed=7)
        cfg = QuantConfig(bits=4, group_size=8, schedule=Schedule.LOG_UNIFORM)
        (rep,) = compare_schedules(data, [cfg], "g")
        manual = distortion(data, dequantize(quantize_tensor(data, cfg, "g")),
                            name="g", config=cfg)
        assert rep == manual

    def test_blocked_tensor_agrees_with_manual_pipeline(self):
        # three group-aligned blocks, the last one ending in a short group
        data = synth_tensor(f"loguniform(5,{2 * _BLOCK_ELEMS + 8 * 5 + 3})", seed=3)
        cfgs = [QuantConfig(bits=b, group_size=8, schedule=s)
                for b, s in ((4, Schedule.LOG_UNIFORM), (3, Schedule.LINEAR), (8, Schedule.RTN))]
        reps = compare_schedules(data, cfgs, "b")
        for rep, cfg in zip(reps, cfgs):
            manual = distortion(data, dequantize(quantize_tensor(data, cfg, "b")),
                                name="b", config=cfg)
            assert rep["max_abs_err"] == manual["max_abs_err"]
            assert rep["mse"] == pytest.approx(manual["mse"], rel=1e-12, abs=0)
            assert rep["rel_fro_err"] == pytest.approx(manual["rel_fro_err"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("G", [8, 32])
    def test_threaded_group_size_agrees_with_manual_pipeline(self, G):
        # three blocks, the last one ending in a 3-element group
        data = synth_tensor(f"loguniform(5,{2 * _BLOCK_ELEMS + G * 5 + 3})", seed=5)
        cfgs = [QuantConfig(bits=b, group_size=G, schedule=s)
                for b, s in ((4, Schedule.LOG_UNIFORM), (3, Schedule.LINEAR), (8, Schedule.RTN))]
        reps = compare_schedules(data, cfgs, "m", threads=2)
        assert [(r["schedule"], r["group_size"]) for r in reps] == \
            [(c.schedule.value, G) for c in cfgs]
        for rep, cfg in zip(reps, cfgs):
            manual = distortion(data, dequantize(quantize_tensor(data, cfg, "m")),
                                name="m", config=cfg)
            assert rep["max_abs_err"] == manual["max_abs_err"]
            assert rep["mse"] == pytest.approx(manual["mse"], rel=1e-12, abs=0)
            assert rep["rel_fro_err"] == pytest.approx(manual["rel_fro_err"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("group_sizes", [(), (8, 32)])
    def test_configs_of_one_group_size_required(self, group_sizes):
        with pytest.raises(ConfigError, match="one group size"):
            compare_schedules(np.ones(64, np.float32),
                              [QuantConfig(group_size=g) for g in group_sizes], "t")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_in_last_block_rejected(self, bad):
        data = np.ones(2 * _BLOCK_ELEMS + 11, dtype=np.float32)
        data[-1] = bad
        for threads in (1, 2):
            with pytest.raises(DataError, match="tensor t contains non-finite values"):
                compare_schedules(data, [QuantConfig(schedule=s) for s in Schedule], "t",
                                  threads=threads)

    def test_empty_tensor(self):
        (rep,) = compare_schedules(np.zeros(0, np.float32), [QuantConfig()], "e", threads=2)
        assert (rep["mse"], rep["max_abs_err"], rep["rel_fro_err"]) == (0.0, 0.0, 0.0)


# MSEs measured once with the brute-force nearest-level oracle in the loop,
# then frozen.  rtol 1e-4 absorbs libm variation across platforms.
BROAD_SPEC = "loguniform(5,100000)"
BROAD_MSE = {"log": 2.5067474854e-03, "linear": 2.5495897608e-03,
             "rtn": 1.4961921803e-04}
NARROW_MSE = {"log": 2.3324935182e-03, "linear": 1.8192648643e-04,
              "rtn": 2.3901883310e-04}


def narrow_tensor(n=100000):
    """Norm-like weights uniform in [0.3, 0.4]."""
    return (0.3 + 0.1 * rng.uniform01(0, 0, n)).astype(np.float32)


def schedule_mses(data):
    cfgs = [QuantConfig(bits=4, group_size=8, schedule=s)
            for s in (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)]
    return {r["schedule"]: r["mse"] for r in compare_schedules(data, cfgs)}


class TestScheduleRegression:
    def test_broad_tensor_pins(self):
        got = schedule_mses(synth_tensor(BROAD_SPEC, seed=0))
        for k, v in BROAD_MSE.items():
            assert got[k] == pytest.approx(v, rel=1e-4), k

    def test_narrow_tensor_pins(self):
        got = schedule_mses(narrow_tensor())
        for k, v in NARROW_MSE.items():
            assert got[k] == pytest.approx(v, rel=1e-4), k

    def test_log_beats_linear_across_group_sizes(self):
        # The ordering survives coarser grouping, where scales absorb less.
        data = synth_tensor(BROAD_SPEC, seed=0)
        for g in (8, 32, 128):
            cfgs = [QuantConfig(bits=4, group_size=g, schedule=s)
                    for s in (Schedule.LOG_UNIFORM, Schedule.LINEAR)]
            log_rep, lin_rep = compare_schedules(data, cfgs)
            assert log_rep["mse"] < lin_rep["mse"], g

    def test_narrow_tensor_favors_rtn_over_log(self):
        got = schedule_mses(narrow_tensor())
        assert got["rtn"] < got["log"]

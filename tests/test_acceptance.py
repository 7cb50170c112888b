"""Top-level acceptance checks, one tagged test per guaranteed behavior.

Each test carries @pytest.mark.criterion(tag, description); the terminal
summary prints a PASS/FAIL/SKIP line per tag.  Oracles here are built from
primitives independent of the package internals (math / decimal / explicit
argmin loops).
"""

import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from benq import rng
from benq.benford import (Family, classify_family, digit_histogram, mad_score,
                          model_report)
from benq.io import read_container
from benq.levels import BENFORD_PROBS, Schedule, level_table
from benq.metrics import compare_schedules
from benq.quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig,
                            QuantizedTensor, dequantize, quantize_tensor)
from benq.synth import synth_tensor
from conftest import load_benq, quantize_model, save_benq, tensor_set


def first_digit_oracle(x: float) -> int:
    """Leading digit via exact binary-to-decimal conversion."""
    d = Decimal(abs(float(x)))
    return int(d.scaleb(-d.adjusted()))


def mad_oracle(values: np.ndarray) -> float:
    counts = [0] * 10
    for v in values:
        if v != 0.0:
            counts[first_digit_oracle(v)] += 1
    total = sum(counts)
    return math.fsum(abs(counts[d] / total - math.log10(1 + 1 / d))
                     for d in range(1, 10)) / 9


def brute_force_indices(values, scales, levels, group_size):
    """Per-element nearest level by explicit argmin; ties go away from zero.

    Candidates whose float64 distances are within 1e-9 of the best are
    compared exactly as Fractions; of equally near levels the upper one
    wins for t >= 0 and the lower one for t < 0.
    """
    per = np.repeat(np.asarray(scales, dtype=np.float64),
                    group_size)[:values.size]
    idx = np.empty(values.size, dtype=np.int64)
    zero = per == 0
    idx[zero] = levels.size // 2
    t = values[~zero] / per[~zero]
    dist = np.abs(t[:, None] - levels[None, :])
    best = np.argmin(dist, axis=1)
    near = dist <= dist[np.arange(t.size), best][:, None] * (1 + 1e-9)
    for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
        exact = {int(j): abs(Fraction(t[i]) - Fraction(levels[j]))
                 for j in np.flatnonzero(near[i])}
        ties = [j for j, d in exact.items() if d == min(exact.values())]
        best[i] = max(ties) if t[i] >= 0 else min(ties)
    idx[~zero] = best
    return idx


def broad_groups(seed, n=8000):
    r = np.random.default_rng(seed)
    vals = r.normal(size=n) * 10.0 ** r.uniform(-6, 2, n)
    vals[:8] = 0.0  # one all-zero group at group_size=8
    return vals


@pytest.mark.criterion("C01", "log codebook spans epsilon..1 in exact decades")
def test_log_codebook_levels_are_exact_decades():
    levels = level_table(Schedule.LOG_UNIFORM, 4, 1e-7)
    pos = levels[levels.size // 2:]
    expect = np.array([10.0 ** e for e in range(-7, 1)])
    assert pos.size == 8
    rel = np.abs(pos - expect) / expect
    assert np.max(rel) < 1e-12
    assert pos[-1] == 1.0
    assert np.array_equal(levels, np.concatenate([-pos[::-1], pos]))


@pytest.mark.criterion("C02", "first-digit reference matches log10(1 + 1/d)")
def test_benford_reference_probabilities():
    for d in range(1, 10):
        assert abs(BENFORD_PROBS[d - 1] - math.log10(1 + 1 / d)) < 1e-12
    assert abs(math.fsum(BENFORD_PROBS[d - 1] for d in range(1, 10)) - 1.0) \
        < 1e-12


@pytest.mark.criterion("C03", "mad_score equals significand-extraction oracle")
def test_mad_score_matches_independent_oracle():
    # the two documented reference points come out of the oracle first
    uniform_digits = np.array([float(d) for d in range(1, 10)])
    assert round(mad_oracle(uniform_digits), 5) == 0.05972
    all_threes = np.full(100, 3.0)
    assert round(mad_oracle(all_threes), 5) == 0.19446
    assert abs(mad_score(digit_histogram(uniform_digits))
               - mad_oracle(uniform_digits)) < 1e-12
    assert abs(mad_score(digit_histogram(all_threes))
               - mad_oracle(all_threes)) < 1e-12

    r = np.random.default_rng(42)
    for trial in range(100):
        vals = r.lognormal(mean=r.uniform(-3, 3), sigma=r.uniform(0.1, 4),
                           size=500) * r.choice([-1.0, 1.0], size=500)
        vals[r.random(500) < 0.02] = 0.0
        got = mad_score(digit_histogram(vals))
        assert abs(got - mad_oracle(vals)) < 1e-12, trial


@pytest.mark.criterion("C04", "log-spread magnitudes comply; constants do not")
def test_log_uniform_magnitudes_follow_the_digit_law():
    spread = synth_tensor("loguniform(6,1000000)", seed=0)
    assert mad_score(digit_histogram(spread)) < 0.005
    constant = synth_tensor("constant(3,4096)", seed=0)
    degenerate = (2.0 / 9.0) * (1.0 - math.log10(4.0 / 3.0))
    assert abs(mad_score(digit_histogram(constant)) - degenerate) < 1e-9


@pytest.mark.criterion("C05", "codebook round trip: oracle indices and bound")
def test_codebook_quantization_against_brute_force():
    for bits in (2, 3, 4, 8):
        for schedule in (Schedule.LOG_UNIFORM, Schedule.LINEAR):
            cfg = QuantConfig(bits=bits, group_size=8, schedule=schedule)
            values = broad_groups(seed=bits)
            qt = quantize_tensor(values, cfg, "w")
            levels = cfg.levels

            expect = brute_force_indices(values, qt.scales, levels, 8)
            assert np.array_equal(qt.indices, expect), (bits, schedule)

            rec = dequantize(qt).astype(np.float64)
            gaps = np.diff(levels)
            half = np.maximum(np.concatenate([[gaps[0]], gaps]),
                              np.concatenate([gaps, [gaps[-1]]])) / 2.0
            per = np.repeat(qt.scales.astype(np.float64), 8)[:values.size]
            bound = per * half[qt.indices]
            # float32 reconstruction adds at most its half-ulp to the bound
            slack = np.abs(rec) * 2.0 ** -23 + 2.0 ** -149
            assert np.all(np.abs(values - rec) <= bound * (1 + 1e-9) + slack)

            again = quantize_tensor(rec, cfg, "w")
            assert np.array_equal(again.indices, qt.indices)
            assert np.array_equal(again.scales, qt.scales)


@pytest.mark.criterion("C06", "rtn: worked example, sign symmetry, s/2 bound")
def test_round_to_nearest_baseline():
    ints = level_table(Schedule.RTN, 4)
    assert list(ints) == list(range(-8, 8))
    group = quantize_tensor(np.array([1.0, -0.5, 0.1]),
                            QuantConfig(bits=4, group_size=3, schedule=Schedule.RTN))
    assert list(ints[group.indices]) == [7, -4, 1]
    assert group.scales[0] == np.float16(1.0 / 7.0)

    cfg = QuantConfig(bits=4, group_size=8, schedule=Schedule.RTN)
    values = broad_groups(seed=99)
    qt = quantize_tensor(values, cfg, "w")
    mirrored = quantize_tensor(-values, cfg, "w")
    assert np.array_equal(mirrored.scales, qt.scales)
    assert np.array_equal(ints[mirrored.indices], -ints[qt.indices])

    per = np.repeat(qt.scales.astype(np.float64), 8)[:values.size]
    rec = dequantize(qt).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(per > 0, values / per, 0.0)
    raw = np.copysign(np.floor(np.abs(t) + 0.5), t)
    unclamped = raw == ints[qt.indices]
    slack = np.abs(rec) * 2.0 ** -23 + 2.0 ** -149
    err = np.abs(values - rec)
    assert np.all(err[unclamped] <= (per / 2)[unclamped] * (1 + 1e-9)
                  + slack[unclamped])

    one = quantize_tensor(np.array([0.37]),
                          QuantConfig(bits=4, group_size=1, schedule=Schedule.RTN))
    s1 = float(one.scales[0])
    assert abs(0.37 - ints[one.indices[0]] * s1) <= s1 / 2


def _schedule_mses(data):
    cfgs = [QuantConfig(bits=4, group_size=8, schedule=s)
            for s in (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)]
    return {r["schedule"]: r["mse"] for r in compare_schedules(data, cfgs)}


BROAD = synth_tensor("loguniform(5,100000)", seed=0)
NARROW = (0.3 + 0.1 * rng.uniform01(0, 0, 100000)).astype(np.float32)


@pytest.mark.criterion("C07a", "broad magnitudes: log MSE below rtn MSE")
def test_broad_tensor_log_schedule_beats_rtn():
    mses = _schedule_mses(BROAD)
    assert mses["log"] < mses["rtn"]


@pytest.mark.criterion("C07b", "broad magnitudes: log MSE below linear MSE")
def test_broad_tensor_log_schedule_beats_linear():
    mses = _schedule_mses(BROAD)
    assert mses["log"] < mses["linear"]


@pytest.mark.criterion("C07c", "narrow magnitudes: rtn MSE below log MSE")
def test_narrow_tensor_rtn_beats_log_schedule():
    mses = _schedule_mses(NARROW)
    assert mses["rtn"] < mses["log"]


@pytest.mark.criterion("C08", ".benq round trip lossless; 3-bit packs to 4")
def test_packed_format_losslessness(tmp_path):
    model = tensor_set({"w": synth_tensor("loguniform(4,37)", seed=3),   # tail group of 5
                        "v": synth_tensor("gaussian(0.1,64)", seed=4)})
    for bits in (2, 3, 4, 8):
        for schedule in (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN):
            cfg = QuantConfig(bits=bits, group_size=8, schedule=schedule)
            path = tmp_path / f"{bits}-{schedule.value}.benq"
            entries = save_benq(path, model, QUANTIZE_ALL, cfg)
            _, _, back = load_benq(path)
            for name, (_, qt) in entries.items():
                _, got = back[name]
                assert got.indices.tobytes() == qt.indices.tobytes()
                assert got.scales.tobytes() == qt.scales.tobytes()
                assert got.shape == qt.shape

    import json
    blob = (tmp_path / "3-log.benq").read_bytes()
    header = json.loads(blob[12:12 + int.from_bytes(blob[4:12], "little")])
    spans = {e["name"]: e["indices"][1] for e in header["tensors"]}
    assert spans["w"] == -(-37 // 2)  # two 3-bit indices per byte, 4b each
    assert spans["v"] == 32


@pytest.mark.criterion("C09", "policy quantizes linears, preserves the rest")
def test_default_policy_layer_selection(tmp_path):
    shapes = {
        "model.embed_tokens.weight": ("lognormal(0,1,96)", False),
        "model.layers.0.self_attn.q_proj.weight": ("loguniform(4,64)", True),
        "model.layers.0.self_attn.o_proj.weight": ("gaussian(0.02,64)", True),
        "model.layers.0.mlp.gate_proj.weight": ("loguniform(3,48)", True),
        "model.layers.0.mlp.gate_proj.bias": ("gaussian(0.01,12)", False),
        "model.layers.0.input_layernorm.weight": ("lognormal(0,0.05,16)", False),
        "lm_head.weight": ("gaussian(0.05,96)", False),
    }
    model = tensor_set({n: synth_tensor(spec, rng.derive_seed(0, n))
                        for n, (spec, _) in shapes.items()})
    entries = quantize_model(model, DEFAULT_POLICY, QuantConfig())

    for name, (_, expect_quantized) in shapes.items():
        _, got = entries[name]
        assert isinstance(got, QuantizedTensor) == expect_quantized, name
        if not expect_quantized:
            assert got is model[name][1]  # untouched, hence byte-identical

    quantized = [t for _, t in entries.values() if isinstance(t, QuantizedTensor)]
    q_numel = sum(model[n][1].size for n, (_, q) in shapes.items() if q)
    total = sum(t.size for _, t in model.values())
    assert len(quantized) == 3
    assert len(entries) - len(quantized) == 4
    assert sum(t.numel for t in quantized) / total == pytest.approx(q_numel / total)

    path = tmp_path / "m.benq"
    save_benq(path, model, DEFAULT_POLICY, QuantConfig())
    _, _, back = load_benq(path)
    for name, (_, expect_quantized) in shapes.items():
        if not expect_quantized:
            assert np.array_equal(back[name][1], model[name][1])


@pytest.mark.criterion("C10", "checkpoint: norm family least digit-compliant")
@pytest.mark.skipif(not os.environ.get("BENQ_CHECKPOINT"),
                    reason="set BENQ_CHECKPOINT to a safetensors file")
def test_real_checkpoint_family_dichotomy():
    with read_container(os.environ["BENQ_CHECKPOINT"]) as (_, tensors):
        report = model_report(tensors, DEFAULT_POLICY, source="checkpoint")
    by_family = {}
    for r in report["per_tensor"]:
        if r["mad"] is not None:
            by_family.setdefault(r["family"], []).append(r["mad"])
    norm = by_family.get(Family.NORM.value, [])
    linear = by_family.get(Family.ATTENTION_LINEAR.value, []) \
        + by_family.get(Family.MLP_LINEAR.value, [])
    assert norm and linear, "checkpoint lacks norm or linear tensors"
    assert np.mean(norm) > np.mean(linear)


def test_family_classification_supports_the_dichotomy():
    # not a tagged criterion: sanity that the names used above classify
    # the way the policy tests assume
    assert classify_family("model.layers.3.input_layernorm.weight") \
        is Family.NORM
    assert classify_family("model.layers.3.self_attn.k_proj.weight") \
        is Family.ATTENTION_LINEAR
    assert classify_family("model.layers.3.mlp.down_proj.weight") \
        is Family.MLP_LINEAR
    assert classify_family("model.embed_tokens.weight") is Family.EMBEDDING

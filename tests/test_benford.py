import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from benq import benford, rng
from benq.benford import (DigitHistogram, Family, classify_family, digit_histogram,
                          first_digit, mad_from_probs, mad_score, model_report,
                          signed_deviations, tensor_report)
from benq.errors import DataError
from benq.levels import BENFORD_PROBS
from benq.quantizer import QuantPolicy
from conftest import stream

MAD_UNIFORM_DIGITS = 0.05971703510991756
MAD_SINGLE_DIGIT = 0.1944580585314889  # all mass on digit 3


def decimal_digit(x: float) -> int:
    """Exact leading digit via the decimal module (binary->decimal is exact)."""
    d = Decimal(abs(x))
    return int(d.scaleb(-d.adjusted()))


class TestFirstDigit:
    @pytest.mark.parametrize("value,digit", [
        (0.0042, 4), (-350.0, 3), (1.0, 1), (9.99, 9), (0.1, 1),
        (1e308, 1), (5e-324, 4), (7.0, 7), (-0.07, 7),
        # the double nearest 1e-308 is 9.9999...e-309; its true digit is 9
        (1e-308, 9),
        # doubles within an ulp of a decimal boundary d * 10**k
        (7e-111, 7), (7e70, 7), (1e-307, 9), (2e-307, 1),
    ])
    def test_examples(self, value, digit):
        assert first_digit(value) == digit
        assert decimal_digit(value) == digit

    def test_zero_has_no_digit(self):
        assert first_digit(0.0) is None
        assert first_digit(-0.0) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite(self, bad):
        with pytest.raises(DataError):
            first_digit(bad)

    # frac >= 1 keeps values strictly inside a digit bin; with frac = 0 the
    # nearest double to d.0e k can fall on either side of the decimal boundary
    @given(lead=st.integers(1, 9), frac=st.integers(1, 999999),
           exp=st.integers(-250, 250), neg=st.booleans())
    def test_matches_decimal_oracle(self, lead, frac, exp, neg):
        x = float(f"{'-' if neg else ''}{lead}.{frac:06d}e{exp}")
        assert first_digit(x) == lead
        assert decimal_digit(x) == lead

    @given(lead=st.integers(1, 9), frac=st.integers(1, 9999), exp=st.integers(-20, 20))
    def test_scale_invariance_by_decades(self, lead, frac, exp):
        x = float(f"{lead}.{frac:04d}")
        assert first_digit(x * 10.0 ** exp) == first_digit(x)


def exact_boundaries(dtype) -> np.ndarray:
    """Smallest positive `dtype` float >= d * 10**k for every digit d and every
    decade k from the smallest subnormal's to the largest finite float's."""
    info = np.finfo(dtype)
    top = Fraction(float(info.max))
    up, down = dtype(np.inf), dtype(0.0)
    out = []
    for k in range(Decimal(float(info.smallest_subnormal)).adjusted(),
                   Decimal(float(info.max)).adjusted() + 1):
        for d in range(1, 10):
            target = d * Fraction(10) ** k
            if target > top:
                break
            f = dtype(float(target))
            while Fraction(float(f)) < target:
                f = np.nextafter(f, up)
            while (p := np.nextafter(f, down)) > 0 and Fraction(float(p)) >= target:
                f = p
            out.append(f)
    return np.array(out, dtype=dtype)


def oracle_counts(values: np.ndarray) -> np.ndarray:
    """Zeros (slot 0) and digits 1..9 by the decimal oracle."""
    return np.bincount([decimal_digit(float(v)) for v in values], minlength=10)


class TestDigitBoundaries:
    """Every decimal boundary of float32 and float64, exhaustively."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_boundary_matches_decimal_oracle(self, dtype):
        info = np.finfo(dtype)
        b = exact_boundaries(dtype)
        near = np.concatenate([b, np.nextafter(b, dtype(np.inf)), np.nextafter(b, dtype(0.0)),
                               [0.0, info.smallest_subnormal, info.max]]).astype(dtype)
        values = np.concatenate([near, -near])
        assert np.all(np.isfinite(values))
        expected = oracle_counts(values)
        for v in values:
            assert (first_digit(v) or 0) == decimal_digit(float(v)), v
        # more than two blocks, the last one partly filled
        reps = 2 * benford._BLOCK_ELEMS // values.size + 1
        h = digit_histogram(np.tile(values, reps))
        assert h.counts.tolist() == (reps * expected[1:]).tolist()
        assert h.zeros_skipped == reps * expected[0]


class TestDigitKernel:
    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    @given(data=st.data())
    def test_random_bit_patterns_match_decimal_oracle(self, dtype, uint, data):
        n_bits = 8 * np.dtype(uint).itemsize
        patterns = data.draw(st.lists(st.integers(0, 2 ** n_bits - 1), min_size=1, max_size=64))
        values = np.array(patterns, dtype=uint).view(dtype)
        assume(np.all(np.isfinite(values)))
        expected = oracle_counts(values)
        h = digit_histogram(values)
        assert h.counts.tolist() == expected[1:].tolist()
        assert h.zeros_skipped == expected[0]
        for v in values:
            assert (first_digit(v) or 0) == decimal_digit(float(v))

    @pytest.mark.parametrize("dtype,bad_bits", [
        (np.float32, 0x7FC00000), (np.float32, 0xFFC00000),   # quiet NaN, sign set
        (np.float32, 0x7F800001), (np.float32, 0xFFBFFFFF),   # payload NaNs
        (np.float32, 0x7F800000), (np.float32, 0xFF800000),   # +inf, -inf
        (np.float64, 0x7FF8000000000000), (np.float64, 0xFFF8000000000000),
        (np.float64, 0x7FF0000000000001), (np.float64, 0xFFFFFFFFFFFFFFFF),
        (np.float64, 0x7FF0000000000000), (np.float64, 0xFFF0000000000000),
    ])
    def test_non_finite_in_last_block_rejected(self, dtype, bad_bits):
        values = np.ones(2 * benford._BLOCK_ELEMS + 5, dtype=dtype)
        uint = np.dtype(f"u{values.itemsize}")
        values.view(uint)[-1] = bad_bits
        assert not np.isfinite(values[-1])
        with pytest.raises(DataError):
            digit_histogram(values)

    def test_every_float16_matches_decimal_oracle(self):
        values = np.arange(2 ** 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        values = values[np.isfinite(values)]
        expected = oracle_counts(values)
        h = digit_histogram(values)
        assert h.counts.tolist() == expected[1:].tolist()
        assert h.zeros_skipped == expected[0]

    @pytest.mark.parametrize("values", [
        np.append(np.arange(-1000, 1001), [-(2 ** 63), 2 ** 63 - 1]),
        np.array([0, 7, 10 ** 18, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
        np.arange(-128, 128, dtype=np.int8),
        [0.0042, -350.0, 0.0, 7e-111, 1e-307, 3, True],
    ], ids=["int64", "uint64", "int8", "list"])
    def test_non_float_inputs_read_as_float64(self, values):
        as_float = np.asarray(values, dtype=np.float64)
        expected = oracle_counts(as_float)
        h = digit_histogram(values)
        assert h.counts.tolist() == expected[1:].tolist()
        assert h.zeros_skipped == expected[0]

    @pytest.mark.parametrize("values", [np.array([]), [], np.zeros((0, 3), dtype=np.float32)])
    def test_empty_input_has_zero_counts(self, values):
        h = digit_histogram(values)
        assert h.counts.tolist() == [0] * 9
        assert h.zeros_skipped == 0


class TestHistogram:
    def test_counts_and_zero_skipping(self):
        h = digit_histogram(np.array([0.1, 0.11, 0.2, 0.0]))
        assert h.counts.tolist() == [2, 1, 0, 0, 0, 0, 0, 0, 0]
        assert h.total == 3
        assert h.zeros_skipped == 1

    def test_constant_tensor(self):
        h = digit_histogram(np.full(1000, 0.35))
        assert h.counts.tolist() == [0, 0, 1000, 0, 0, 0, 0, 0, 0]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            digit_histogram(np.array([1.0, float("nan")]))

    def test_empty_histogram(self):
        h = digit_histogram(np.zeros(5))
        assert h.total == 0 and h.zeros_skipped == 5
        with pytest.raises(DataError):
            mad_score(h)

    def test_shape_agnostic(self):
        flat = np.array([1.5, 2.5, 3.5, 4.5])
        assert np.array_equal(digit_histogram(flat).counts,
                              digit_histogram(flat.reshape(2, 2)).counts)

    def test_validation(self):
        with pytest.raises(DataError):
            DigitHistogram(np.array([1, 2, 3]))
        with pytest.raises(DataError):
            DigitHistogram(np.array([-1] + [0] * 8))

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9999), st.integers(-15, 15)),
                    min_size=1, max_size=50),
           st.integers(-6, 6))
    def test_decade_scaling_preserves_counts(self, parts, k):
        # values built from decimal digits (frac >= 1) sit well inside their
        # digit bin, so rescaling by exact powers of ten cannot flip a digit
        a = np.array([float(f"{lead}.{frac:04d}e{exp}") for lead, frac, exp in parts])
        h1 = digit_histogram(a)
        h2 = digit_histogram(a * 10.0 ** k)
        assert np.array_equal(h1.counts, h2.counts)

    def test_million_log_uniform_samples_track_benford(self):
        u = rng.uniform01(7, 0, 1_000_000)
        values = 10.0 ** (6.0 * (u - 1.0))
        probs = digit_histogram(values).probs()
        assert np.abs(probs - BENFORD_PROBS).max() < 3.0 / math.sqrt(1_000_000)


class TestMad:
    def test_perfect_probabilities_score_zero(self):
        assert mad_from_probs(BENFORD_PROBS) == 0.0

    def test_uniform_digit_probabilities(self):
        oracle = math.fsum(abs(1 / 9 - benford.BENFORD_PROBS[d]) for d in range(9)) / 9
        assert mad_from_probs(np.full(9, 1 / 9)) == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(MAD_UNIFORM_DIGITS, abs=1e-12)

    def test_single_digit_mass(self):
        h = digit_histogram(np.full(123, 0.35))
        closed_form = (2 / 9) * (1 - math.log10(4 / 3))
        assert mad_score(h) == pytest.approx(closed_form, abs=1e-15)
        assert closed_form == pytest.approx(MAD_SINGLE_DIGIT, abs=1e-12)

    def test_signed_deviations_sum_to_zero(self):
        h = digit_histogram(rng.uniform01(3, 0, 5000) + 0.5)
        dev = signed_deviations(h)
        assert abs(dev.sum()) < 1e-12
        assert mad_score(h) == pytest.approx(np.abs(dev).sum() / 9, abs=1e-15)

    @given(st.lists(st.integers(0, 10_000), min_size=9, max_size=9).filter(lambda c: sum(c) > 0),
           st.integers(2, 50))
    def test_invariant_under_count_scaling(self, counts, k):
        h1 = DigitHistogram(np.array(counts))
        h2 = DigitHistogram(np.array(counts) * k)
        assert mad_score(h1) == pytest.approx(mad_score(h2), abs=1e-15)

    def test_bad_prob_vector(self):
        with pytest.raises(DataError):
            mad_from_probs(np.ones(5))


class TestFamilies:
    @pytest.mark.parametrize("name,family", [
        ("model.layers.3.self_attn.q_proj.weight", Family.ATTENTION_LINEAR),
        ("model.layers.0.self_attn.o_proj.weight", Family.ATTENTION_LINEAR),
        ("transformer.h.5.attn.c_attn.weight", Family.ATTENTION_LINEAR),
        ("model.layers.3.mlp.down_proj.weight", Family.MLP_LINEAR),
        ("transformer.h.0.mlp.c_fc.weight", Family.MLP_LINEAR),
        ("decoder.block.2.layer.1.DenseReluDense.wi.weight", Family.MLP_LINEAR),
        ("model.layers.0.input_layernorm.weight", Family.NORM),
        ("transformer.ln_f.weight", Family.NORM),
        ("model.norm.weight", Family.NORM),
        ("model.embed_tokens.weight", Family.EMBEDDING),
        ("transformer.wte.weight", Family.EMBEDDING),
        ("transformer.wpe.weight", Family.EMBEDDING),
        ("lm_head.weight", Family.EMBEDDING),
        ("model.layers.1.self_attn.q_proj.bias", Family.BIAS),
        ("transformer.ln_1.bias", Family.BIAS),
        ("rotary.inv_freq", Family.OTHER),
    ])
    def test_default_table(self, name, family):
        assert classify_family(name) is family

    def test_policy_override(self):
        policy = QuantPolicy(family_patterns=(("norm", ("gamma",)),
                                              ("mlp_linear", ("w1", "w2"))))
        assert classify_family("blocks.0.gamma_scale", policy) is Family.NORM
        assert classify_family("blocks.0.w1", policy) is Family.MLP_LINEAR
        assert classify_family("blocks.0.q_proj.weight", policy) is Family.OTHER
        assert classify_family("blocks.0.w1.bias", policy) is Family.BIAS


class TestModelReport:
    def _toy(self):
        return stream({
            "layers.0.attn.q_proj.weight": 10.0 ** (5 * (rng.uniform01(1, 0, 4000) - 1)),
            "layers.0.mlp.fc.weight": 10.0 ** (5 * (rng.uniform01(2, 0, 4000) - 1)),
            "layers.0.input_layernorm.weight": np.full(256, 0.35),
            "dead.weight": np.zeros(64),
        })

    def test_ordering_and_families(self):
        rep = model_report(self._toy(), source="toy")
        names = [r.name for r in rep.per_tensor]
        assert names[0] == "layers.0.input_layernorm.weight"  # largest mad first
        assert names[-1] == "dead.weight"                     # no MAD, last
        assert rep.per_tensor[-1].mad is None
        assert rep.source == "toy"

    def test_family_summaries(self):
        rep = model_report(self._toy())
        by_family = {s.family: s for s in rep.per_family}
        assert by_family[Family.NORM].mean_mad > 10 * by_family[Family.MLP_LINEAR].mean_mad
        assert Family.OTHER not in by_family  # the only OTHER tensor has no MAD

    def test_threads_do_not_change_result(self):
        a = model_report(self._toy(), threads=1).to_dict()
        b = model_report(self._toy(), threads=4).to_dict()
        assert a == b

    def test_to_dict_schema(self):
        d = model_report(self._toy(), source="s").to_dict()
        assert set(d) == {"source", "per_tensor", "per_family"}
        row = d["per_tensor"][0]
        assert {"name", "family", "numel", "counts", "zeros_skipped",
                "mad", "signed_deviations"} <= set(row)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_report_counts_every_element(self, monkeypatch, dtype):
        # 5003 elements in blocks of 1000: five full blocks and a short one
        monkeypatch.setattr(benford, "_BLOCK_ELEMS", 1000)
        data = (10.0 ** (-6 * rng.uniform01(5, 0, 5003))).astype(dtype)
        data[::7] = 0.0
        rep = tensor_report("big", data.reshape(-1, 1))
        want = digit_histogram(data)
        oracle = np.bincount([decimal_digit(float(x)) for x in data if x], minlength=10)[1:]
        assert np.array_equal(rep.histogram.counts, want.counts)
        assert np.array_equal(rep.histogram.counts, oracle)
        assert rep.histogram.zeros_skipped == want.zeros_skipped == 715
        assert rep.histogram.total + rep.histogram.zeros_skipped == rep.numel == 5003
        assert "subsample_seed" not in rep.to_dict()

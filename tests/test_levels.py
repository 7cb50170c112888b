import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benq.errors import ConfigError
from benq.cli import main
from benq.levels import BENFORD_PROBS, Schedule, level_table

LOG, LINEAR, RTN = Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN


def positive(levels):
    """The positive half of a log or linear level table."""
    return levels[levels.size // 2:]


class TestBenfordProbs:
    def test_known_digits(self):
        assert BENFORD_PROBS[0] == pytest.approx(math.log10(2), abs=1e-15)
        assert BENFORD_PROBS[8] == pytest.approx(math.log10(10 / 9), abs=1e-15)
        assert BENFORD_PROBS[2] == pytest.approx(math.log10(4 / 3), abs=1e-15)

    def test_sums_to_one(self):
        # telescoping product of (d+1)/d; float sum lands within 1e-12
        assert abs(math.fsum(BENFORD_PROBS) - 1.0) < 1e-12

    def test_monotone_decreasing(self):
        assert np.all(np.diff(BENFORD_PROBS) < 0)

    def test_table_is_frozen(self):
        with pytest.raises(ValueError):
            BENFORD_PROBS[0] = 0.5


class TestLogUniform:
    def test_default_four_bit_is_one_level_per_decade(self):
        levels = level_table(LOG, 4, 1e-7)
        expected = 10.0 ** -np.arange(7, -1, -1, dtype=np.float64)
        rel = np.abs(positive(levels) - expected) / expected
        assert rel.max() < 1e-12

    def test_three_bit_levels(self):
        levels = level_table(LOG, 3, 1e-7)
        expected = np.array([1e-7, 10.0 ** (-14 / 3), 10.0 ** (-7 / 3), 1.0])
        assert positive(levels) == pytest.approx(expected, rel=1e-12)

    def test_endpoints_exact(self):
        for bits in range(2, 9):
            levels = level_table(LOG, bits)
            assert levels[-1] == 1.0
            assert levels[0] == -1.0
            assert positive(levels)[0] == pytest.approx(1e-7, rel=1e-12)

    def test_constant_log_spacing(self):
        for bits in range(2, 9):
            steps = np.diff(np.log10(positive(level_table(LOG, bits))))
            assert np.ptp(steps) < 1e-9 if steps.size else True

    @pytest.mark.parametrize("bad_bits", [1, 9, 0, -3, 3.5])
    def test_bits_validation(self, bad_bits):
        with pytest.raises(ConfigError):
            level_table(LOG, bad_bits)

    @pytest.mark.parametrize("bad_eps", [0.0, 1.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_epsilon_validation(self, bad_eps):
        with pytest.raises(ConfigError):
            level_table(LOG, 4, bad_eps)


class TestLinear:
    def test_four_bit_grid(self):
        assert np.array_equal(positive(level_table(LINEAR, 4)), np.arange(1, 9) / 8.0)

    def test_exact_rationals(self):
        for bits in range(2, 9):
            n = 2 ** (bits - 1)
            assert np.array_equal(positive(level_table(LINEAR, bits)),
                                  np.arange(1, n + 1) / n)


@given(bits=st.integers(2, 8),
       epsilon=st.floats(1e-100, 0.9, exclude_max=True),
       schedule=st.sampled_from([LOG, LINEAR]))
def test_codebook_invariants(bits, epsilon, schedule):
    levels = level_table(schedule, bits, epsilon)
    assert levels.size == 2 ** bits
    assert np.all(np.diff(levels) > 0)            # strictly ascending
    assert not np.any(levels == 0.0)              # zero is never a level
    assert levels[-1] == 1.0 and levels[0] == -1.0
    assert np.array_equal(levels, -levels[::-1])  # exact symmetry


def test_level_table_rtn_is_integer_table():
    for bits in range(2, 9):
        levels = level_table(RTN, bits)
        assert levels.dtype == np.float64
        assert levels.tolist() == list(range(-2 ** (bits - 1), 2 ** (bits - 1)))
    with pytest.raises(ConfigError):
        level_table(RTN, 9)


def test_level_table_is_shared_and_read_only():
    levels = level_table(LOG, 4, 1e-7)
    assert level_table(LOG, 4, 1e-7) is levels
    with pytest.raises(ValueError):
        levels[0] = 0.0
    for _ in range(2):  # a rejected request is rejected every time
        with pytest.raises(ConfigError):
            level_table(LOG, 4, 1.5)


def test_schedule_parse():
    assert Schedule.parse("log") is Schedule.LOG_UNIFORM
    assert Schedule.parse("linear") is Schedule.LINEAR
    assert Schedule.parse("rtn") is Schedule.RTN
    with pytest.raises(ConfigError):
        Schedule.parse("cosine")


def test_codebook_levels_read_only():
    for schedule in Schedule:
        with pytest.raises(ValueError):
            level_table(schedule, 4)[0] = 0.0


def test_describe_round_trips_through_json(capsys):
    assert main(["levels", "--bits", "3"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["schedule"] == "log" and d["bits"] == 3 and len(d["levels"]) == 8
    assert d["levels"] == level_table(LOG, 3).tolist()

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from benq import rng, synth
from benq.benford import digit_histogram, mad_score
from benq.errors import ConfigError
from benq.synth import SynthSpec, parse_spec, synth_blocks, synth_tensor

MASK = (1 << 64) - 1


def splitmix_reference(seed: int, counter: int) -> int:
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_raw64(seed: int, counter: int, n: int) -> np.ndarray:
    """SplitMix64 over a whole array at once, with full-size temporaries."""
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_float64(spec: SynthSpec, seed: int) -> np.ndarray:
    """A spec's float64 values by the whole-array formulas of the synth docstring."""
    def unit(r, open_low=False):
        u = (r >> np.uint64(11)).astype(np.float64)
        if open_low:
            u += 1.0
        return u * 2.0 ** -53

    def sign(r):
        return 1.0 - 2.0 * (r >> np.uint64(63)).astype(np.float64)

    def box_muller(r1, r2):
        return np.sqrt(-2.0 * np.log(unit(r1, open_low=True))) * np.cos(2.0 * np.pi * unit(r2))

    n = spec.n
    if spec.dist == "loguniform":
        r = reference_raw64(seed, 0, 2 * n)
        vals = sign(r[1::2]) * np.power(10.0, spec.params[0] * (unit(r[0::2]) - 1.0))
    elif spec.dist == "lognormal":
        mu, sigma = spec.params
        r = reference_raw64(seed, 0, 3 * n)
        vals = sign(r[2::3]) * np.exp(mu + sigma * box_muller(r[0::3], r[1::3]))
    elif spec.dist == "gaussian":
        r = reference_raw64(seed, 0, 2 * n)
        vals = spec.params[0] * box_muller(r[0::2], r[1::2])
    else:
        vals = np.full(n, spec.params[0], dtype=np.float64)
    return vals


class TestRaw64:
    def test_published_seed0_sequence(self):
        # first outputs of splitmix64 with seed 0, widely reproduced
        got = [int(v) for v in rng.raw64(0, 0, 3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @given(seed=st.integers(0, MASK), counter=st.integers(0, 1 << 40), n=st.integers(1, 64))
    def test_matches_pure_python_reference(self, seed, counter, n):
        got = [int(v) for v in rng.raw64(seed, counter, n)]
        assert got == [splitmix_reference(seed, counter + i) for i in range(n)]

    def test_counters_are_stateless(self):
        s = 99
        assert np.array_equal(rng.raw64(s, 5, 10), rng.raw64(s, 0, 15)[5:])
        assert np.array_equal(np.concatenate([rng.raw64(s, 0, 3), rng.raw64(s, 3, 4)]),
                              rng.raw64(s, 0, 7))

    def test_matches_whole_array_reference(self):
        # seeds near 2**64 wrap the state's addition as well as its multiplication
        for seed, counter in ((0, 0), (MASK - 5, 1 << 40), (0x0123456789ABCDEF, 77)):
            assert np.array_equal(rng.raw64(seed, counter, 100_003),
                                  reference_raw64(seed, counter, 100_003))

    def test_empty_draw(self):
        assert rng.raw64(1, 0, 0).size == 0
        with pytest.raises(ValueError):
            rng.raw64(1, 0, -1)


class TestMappings:
    def test_uniform01_range_and_moments(self):
        u = rng.uniform01(42, 0, 100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_uniform01_uses_top_53_bits(self):
        r = rng.raw64(42, 0, 1000)
        assert np.array_equal(rng.uniform01(42, 0, 1000),
                              (r >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)

    def test_signs_balanced(self):
        s = rng.signs(7, 0, 100_000)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) < 0.02

    def test_normals_moments(self):
        z = rng.normals(3, 0, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert np.all(np.isfinite(z))

    def test_normals_counter_layout(self):
        # sample i consumes counters 2i and 2i+1 (cosine Box-Muller branch)
        r = rng.raw64(5, 0, 8)
        u1 = rng.unit_from_raw(r[0::2], open_low=True)
        u2 = rng.unit_from_raw(r[1::2])
        want = np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)
        assert np.array_equal(rng.normals(5, 0, 4), want)

    def test_mappings_write_into_out_and_keep_their_input(self):
        r = rng.raw64(9, 0, 3000)
        kept = r.copy()
        for fn, kwargs in ((rng.unit_from_raw, {}), (rng.unit_from_raw, {"open_low": True}),
                           (rng.sign_from_raw, {})):
            out = np.empty(1000)
            assert fn(r[1::3], out=out, **kwargs) is out
            assert np.array_equal(out, fn(r[1::3], **kwargs))
        out, scratch = np.empty(1000), np.empty(1000)
        assert rng.normal_from_raw(r[0::3], r[2::3], out, scratch) is out
        assert np.array_equal(out, rng.normal_from_raw(r[0::3], r[2::3]))
        assert np.array_equal(r, kept)

    def test_derive_seed(self):
        assert rng.derive_seed(0, "a") == rng.derive_seed(0, "a")
        assert rng.derive_seed(0, "a") != rng.derive_seed(0, "b")
        assert rng.derive_seed(0, "a") != rng.derive_seed(1, "a")
        assert 0 <= rng.derive_seed(12345, "layer.weight") <= MASK


class TestParseSpec:
    def test_valid(self):
        s = parse_spec("loguniform(6,1000000)")
        assert s == SynthSpec("loguniform", (6.0,), 1_000_000)
        assert parse_spec(" lognormal( -3 , 1.2 , 500 ) ") == SynthSpec(
            "lognormal", (-3.0, 1.2), 500)
        assert parse_spec("constant(0.35,256)").params == (0.35,)
        assert parse_spec("GAUSSIAN(0.02,16)").dist == "gaussian"

    @pytest.mark.parametrize("bad", [
        "uniform(1,2)", "loguniform(6)", "loguniform(6,7,8)", "loguniform(0,100)",
        "loguniform(-2,100)", "gaussian(-1,100)", "constant(1,0)", "constant(1,-5)",
        "lognormal(0,1.5)", "notafunc", "loguniform(a,100)", "()", "",
    ])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            parse_spec(bad)

    def test_describe_round_trips(self):
        s = parse_spec("lognormal(-3,1.2,500)")
        assert parse_spec(s.describe()) == s


class TestSynth:
    def test_deterministic(self):
        a = synth_tensor("loguniform(5,1000)", seed=1)
        b = synth_tensor("loguniform(5,1000)", seed=1)
        c = synth_tensor("loguniform(5,1000)", seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.dtype == np.float32

    def test_loguniform_counter_layout(self):
        n, decades, seed = 64, 5.0, 11
        r = rng.raw64(seed, 0, 2 * n)
        u = rng.unit_from_raw(r[0::2])
        want = (rng.sign_from_raw(r[1::2]) * 10.0 ** (decades * (u - 1.0))).astype(np.float32)
        assert np.array_equal(synth_tensor(f"loguniform({decades},{n})", seed), want)

    def test_loguniform_magnitude_range(self):
        v = np.abs(synth_tensor("loguniform(4,20000)", seed=0).astype(np.float64))
        assert v.min() >= 10.0 ** -4 * (1 - 1e-6)
        assert v.max() < 1.0

    def test_lognormal_counter_layout(self):
        n, mu, sigma, seed = 32, -2.0, 1.5, 3
        r = rng.raw64(seed, 0, 3 * n)
        u1 = rng.unit_from_raw(r[0::3], open_low=True)
        u2 = rng.unit_from_raw(r[1::3])
        z = np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)
        want = (rng.sign_from_raw(r[2::3]) * np.exp(mu + sigma * z)).astype(np.float32)
        assert np.array_equal(synth_tensor(f"lognormal({mu},{sigma},{n})", seed), want)

    def test_gaussian_matches_normals(self):
        want = (0.02 * rng.normals(8, 0, 100)).astype(np.float32)
        assert np.array_equal(synth_tensor("gaussian(0.02,100)", 8), want)

    def test_constant(self):
        v = synth_tensor("constant(0.35,10)", 0)
        assert np.array_equal(v, np.full(10, 0.35, dtype=np.float32))

    def test_signs_present(self):
        v = synth_tensor("loguniform(3,2000)", 0)
        assert (v > 0).any() and (v < 0).any()

    def test_loguniform_is_benford_compliant(self):
        v = synth_tensor("loguniform(6,1000000)", seed=0)
        assert mad_score(digit_histogram(v)) < 0.005

    def test_gaussian_is_less_compliant_than_loguniform(self):
        broad = mad_score(digit_histogram(synth_tensor("loguniform(6,1000000)", 0)))
        gauss = mad_score(digit_histogram(synth_tensor("gaussian(1.0,1000000)", 0)))
        assert gauss > broad


SPEC_TEMPLATES = ["loguniform(5,{n})", "lognormal(-2,1.5,{n})", "gaussian(0.02,{n})",
                  "constant(0.35,{n})"]


class TestChunks:
    """Chunked generation gives the whole-array formulas' values at any chunk size."""

    @staticmethod
    def check(spec: SynthSpec, seed: int, chunk: int) -> None:
        want = reference_float64(spec, seed).astype(np.float32).tobytes()
        blocks = list(synth_blocks(spec, seed))
        assert [b.size for b in blocks] == [min(chunk, spec.n - s)
                                            for s in range(0, spec.n, chunk)]
        assert all(b.dtype == np.float32 for b in blocks)
        assert np.concatenate(blocks).tobytes() == want, spec
        assert synth_tensor(spec, seed).tobytes() == want, spec

    @pytest.mark.parametrize("chunk, sizes", [
        (1, [1, 2, 5]),
        (7, [1, 6, 7, 8, 13, 14, 15, 50]),
        (1000, [1, 999, 1000, 1001, 2003]),
    ])
    @pytest.mark.parametrize("template", SPEC_TEMPLATES)
    def test_every_chunk_size_gives_the_same_values(self, monkeypatch, chunk, sizes, template):
        monkeypatch.setattr(synth, "_CHUNK", chunk)
        for n in sizes:
            self.check(parse_spec(template.format(n=n)), 11, chunk)

    @pytest.mark.parametrize("template", SPEC_TEMPLATES)
    def test_default_chunk_boundaries(self, template):
        n = 2 * synth._CHUNK + 5
        self.check(parse_spec(template.format(n=n)), 12, synth._CHUNK)

    @pytest.mark.parametrize("template", SPEC_TEMPLATES)
    def test_float64_values_of_every_chunk(self, template):
        # a last-ulp change in float64 seldom shows after the float32 cast, so compare before it
        spec = parse_spec(template.format(n=3000))
        want = reference_float64(spec, 13)
        out, scratch = np.empty(1000), np.empty(1000)
        for start in (0, 1000, 2000):
            synth._fill(spec, 13, start, out, scratch)
            assert out.tobytes() == want[start:start + 1000].tobytes(), (spec, start)

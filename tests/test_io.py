"""Container formats: safetensors subset, nibble packing, .benq round trips."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benq import rng
from benq.benford import model_report
from benq.cli import main
from benq.errors import ConfigError, DataError, FormatError
from benq.io import (BENQ_MAGIC, BENQ_VERSION, TensorSpec, _benq_header, _demote, _promote,
                     pack_indices, packed_size, read_benq, read_container, unpack_indices,
                     write_benq, write_container)
from benq.levels import Schedule
from benq.quantizer import (_FAMILIES, DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig,
                            QuantizedTensor, QuantPolicy, dequantize)
from benq.synth import synth_tensor
from conftest import (content_digest, load_benq, load_container, save_benq, save_container,
                      tensor_set)

SCHEDULES = (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)


def build_safetensors(path, entries, payload):
    header = json.dumps(entries, separators=(",", ":")).encode() \
        if isinstance(entries, dict) else entries
    path.write_bytes(len(header).to_bytes(8, "little") + header + payload)


def build_stored(path, tensors):
    """A safetensors file of {name: (dtype, float32 values)}, each tensor stored as its dtype."""
    entries, payload = {}, b""
    for name, (dtype, values) in tensors.items():
        raw = _demote(values, dtype)
        entries[name] = {"dtype": dtype, "shape": list(np.shape(values)),
                         "data_offsets": [len(payload), len(payload) + len(raw)]}
        payload += raw
    build_safetensors(path, entries, payload)


class TestSafetensors:
    def test_f32_round_trip(self, tmp_path):
        tensors = tensor_set({
            "a": np.arange(12, dtype=np.float32).reshape(3, 4),
            "b": np.array(-1.5, dtype=np.float32),          # zero-dim
            "c": np.zeros((2, 0), dtype=np.float32),        # empty
        })
        p = tmp_path / "t.safetensors"
        save_container(p, tensors)
        got = load_container(p)
        assert set(got) == {"a", "b", "c"}
        for name, (spec, arr) in tensors.items():
            got_spec, got_arr = got[name]
            assert got_spec == spec and spec.dtype == "F32"
            assert got_arr.shape == arr.shape
            assert np.array_equal(got_arr, arr)

    def test_f16_fixture_promotes_exactly(self, tmp_path):
        vals = np.array([1.0, -2.5, 2.0 ** -9, 65504.0], dtype=np.float16)
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"w": {"dtype": "F16", "shape": [4],
                                    "data_offsets": [0, 8]}}, vals.tobytes())
        spec, arr = load_container(p)["w"]
        assert spec.dtype == "F16"
        assert np.array_equal(arr, vals.astype(np.float32))

    def test_bf16_fixture_promotes_exactly(self, tmp_path):
        # bit patterns: 1.0, -3.0, max bf16, smallest normal
        bits = np.array([0x3F80, 0xC040, 0x7F7F, 0x0080], dtype="<u2")
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"w": {"dtype": "BF16", "shape": [2, 2],
                                    "data_offsets": [0, 8]}}, bits.tobytes())
        spec, arr = load_container(p)["w"]
        expect = (bits.astype(np.uint32) << 16).view(np.float32).reshape(2, 2)
        assert spec.dtype == "BF16"
        assert np.array_equal(arr, expect)

    def test_stored16_blocks_are_the_stored_bits(self, tmp_path):
        tensors = {name: (spec.dtype, values) for name, (spec, values) in toy_model().items()}
        p = tmp_path / "t.safetensors"
        build_stored(p, tensors)
        seen = set()
        with read_container(str(p), 5, stored16=True) as (_, stored):
            for spec, blocks in stored:
                blocks = list(blocks)
                assert all(b.size <= 5 for b in blocks)
                dtype, values = tensors[spec.name]
                assert spec.dtype == dtype
                seen.add(dtype)
                if dtype == "F32":
                    assert all(b.dtype == np.float32 for b in blocks)
                    assert np.array_equal(np.concatenate(blocks), values.ravel())
                else:
                    assert all(b.dtype == np.uint16 for b in blocks)
                    assert np.concatenate(blocks).tobytes() == _demote(values, dtype)
        assert seen == {"F32", "F16", "BF16"}

    def test_analyze_counts_stored_bits_as_their_values(self, tmp_path, capsys):
        def stored(dtype, spec):
            return dtype, _promote(_demote(synth_tensor(spec, 3), dtype), dtype)

        p = tmp_path / "t.safetensors"
        build_stored(p, {"layers.0.mlp.fc.weight": ("F32", synth_tensor("loguniform(6,4000)", 1)),
                         "layers.0.attn.q_proj.weight": stored("F16", "loguniform(6,4000)"),
                         "layers.0.norm.weight": stored("F16", "lognormal(0,0.05,4000)"),
                         "layers.1.attn.q_proj.weight": stored("BF16", "loguniform(9,4000)"),
                         "layers.1.norm.weight": stored("BF16", "gaussian(0.5,4000)")})
        assert main(["analyze", str(p), "--out", str(tmp_path / "r.json")]) == 0
        with read_container(str(p)) as (_, widened):
            want = model_report(widened, DEFAULT_POLICY, source="t.safetensors")
        assert json.loads((tmp_path / "r.json").read_text()) == want

    def test_metadata_entry_skipped(self, tmp_path):
        payload = np.ones(2, dtype=np.float32).tobytes()
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"__metadata__": {"format": "pt"},
                              "w": {"dtype": "F32", "shape": [2],
                                    "data_offsets": [0, 8]}}, payload)
        assert set(load_container(p)) == {"w"}

    def test_write_is_deterministic(self, tmp_path):
        tensors = tensor_set({"a": np.linspace(0, 1, 7, dtype=np.float32)})
        p1, p2 = tmp_path / "1.st", tmp_path / "2.st"
        save_container(p1, tensors)
        save_container(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_header_is_padded_to_alignment(self, tmp_path):
        p = tmp_path / "t.safetensors"
        save_container(p, tensor_set({"abc": np.ones(3, dtype=np.float32)}))
        hlen = int.from_bytes(p.read_bytes()[:8], "little")
        assert (8 + hlen) % 8 == 0

    def test_file_permissions_respect_umask(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        p = tmp_path / "t.safetensors"
        save_container(p, tensor_set({"a": np.ones(1, dtype=np.float32)}))
        assert (p.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_empty_container_warns(self, tmp_path):
        p = tmp_path / "t.safetensors"
        save_container(p, {})
        with pytest.warns(UserWarning, match="no tensors"):
            assert load_container(p) == {}

    def test_truncated_header_length(self, tmp_path):
        p = tmp_path / "bad.st"
        p.write_bytes(b"\x01\x02\x03")
        with pytest.raises(FormatError, match="truncated"):
            load_container(p)

    def test_header_length_beyond_file(self, tmp_path):
        p = tmp_path / "bad.st"
        p.write_bytes((1 << 20).to_bytes(8, "little") + b"{}")
        with pytest.raises(FormatError, match="exceeds file size"):
            load_container(p)

    def test_malformed_header_json(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, b"{not json", b"")
        with pytest.raises(FormatError, match="malformed header JSON"):
            load_container(p)

    def test_header_not_an_object(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, b"[1,2]", b"")
        with pytest.raises(FormatError, match="not a JSON object"):
            load_container(p)

    def test_duplicate_header_keys(self, tmp_path):
        entry = b'{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
        p = tmp_path / "bad.st"
        build_safetensors(p, b'{"a":' + entry + b',"a":' + entry + b"}",
                          b"\0" * 4)
        with pytest.raises(FormatError, match="duplicate keys"):
            load_container(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "I64", "shape": [1],
                                    "data_offsets": [0, 8]}}, b"\0" * 8)
        with pytest.raises(FormatError, match="unsupported dtype 'I64'"):
            load_container(p)

    def test_offsets_outside_payload(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": [1],
                                    "data_offsets": [0, 100]}}, b"\0" * 4)
        with pytest.raises(FormatError, match=r"w: offsets span 100 bytes, expected 4"):
            load_container(p)

    def test_offsets_span_wrong_size(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": [2],
                                    "data_offsets": [0, 4]}}, b"\0" * 8)
        with pytest.raises(FormatError, match="span 4 bytes, expected 8"):
            load_container(p)

    def test_entry_missing_fields(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32"}}, b"")
        with pytest.raises(FormatError, match="malformed header entry"):
            load_container(p)


class TestDtypePromotion:
    def test_f16_promote_demote_identity(self):
        raw = np.arange(0, 60000, 7, dtype=np.uint16).tobytes()
        arr = _promote(raw, "F16")
        # skip nan patterns: they do not compare equal but also never
        # arise from finite weights
        finite = np.isfinite(arr)
        back = np.frombuffer(_demote(arr, "F16"), dtype=np.uint16)
        orig = np.frombuffer(raw, dtype=np.uint16)
        assert np.array_equal(back[finite], orig[finite])

    def test_bf16_promote_demote_identity(self):
        raw = np.arange(0, 60000, 11, dtype=np.uint16).tobytes()
        arr = _promote(raw, "BF16")
        finite = np.isfinite(arr)
        back = np.frombuffer(_demote(arr, "BF16"), dtype=np.uint16)
        orig = np.frombuffer(raw, dtype=np.uint16)
        assert np.array_equal(back[finite], orig[finite])

    def test_bf16_demote_rounds_to_nearest_even(self):
        # 1 + 2^-8 sits exactly between bf16 neighbours 1.0 and 1.0078125;
        # round-to-even keeps the even significand (1.0).
        mid = np.array([1.0 + 2.0 ** -8], dtype=np.float32)
        assert _demote(mid, "BF16") == np.uint16(0x3F80).tobytes()
        above = np.array([1.0 + 2.0 ** -8 + 2.0 ** -16], dtype=np.float32)
        assert _demote(above, "BF16") == np.uint16(0x3F81).tobytes()


class TestPacking:
    def test_low_nibble_first(self):
        assert pack_indices(np.array([1, 2]), 4) == bytes([0x21])
        assert pack_indices(np.array([0xF]), 4) == bytes([0x0F])

    def test_odd_count_pads_high_nibble(self):
        assert pack_indices(np.array([1, 2, 3]), 4) == bytes([0x21, 0x03])

    def test_three_bit_occupies_four_on_disk(self):
        assert packed_size(7, 3) == packed_size(7, 4) == 4
        assert len(pack_indices(np.array([7] * 7), 3)) == 4

    def test_wide_bits_one_byte_each(self):
        v = np.array([0, 255, 17], dtype=np.uint8)
        assert pack_indices(v, 8) == v.tobytes()
        assert packed_size(3, 8) == 3

    def test_empty(self):
        assert pack_indices(np.array([], dtype=np.uint8), 4) == b""
        assert unpack_indices(b"", 4, 0).size == 0

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=200)
    def test_round_trip(self, bits, data):
        vals = np.array(data.draw(st.lists(
            st.integers(0, 2 ** bits - 1), max_size=33)), dtype=np.uint8)
        got = unpack_indices(pack_indices(vals, bits), bits, vals.size)
        assert np.array_equal(got, vals)

    def test_exhaustive_small_counts(self):
        rng = np.random.default_rng(5)
        for bits in range(2, 9):
            for count in range(0, 18):
                vals = rng.integers(0, 1 << bits, count).astype(np.uint8)
                got = unpack_indices(pack_indices(vals, bits), bits, count)
                assert np.array_equal(got, vals), (bits, count)

    def test_oversized_index_rejected(self):
        with pytest.raises(ConfigError, match="does not fit"):
            pack_indices(np.array([4]), 2)

    def test_wrong_packed_length_rejected(self):
        with pytest.raises(FormatError, match="expected 2"):
            unpack_indices(b"\x00", 4, 3)

    def test_bits_out_of_range(self):
        with pytest.raises(ConfigError):
            pack_indices(np.array([0]), 1)
        with pytest.raises(ConfigError):
            unpack_indices(b"", 9, 0)


def toy_model():
    return {
        **tensor_set({"model.layers.0.mlp.up_proj.weight": synth_tensor("loguniform(4,37)", 1),
                      "model.layers.0.self_attn.q_proj.weight":
                      synth_tensor("gaussian(0.5,64)", 2)}),
        **tensor_set({"model.norm.weight":
                      np.float16(np.linspace(0.9, 1.1, 6)).astype(np.float32)}, "F16"),
        **tensor_set({"model.embed_tokens.weight":
                      _promote(np.arange(100, 116, dtype="<u2").tobytes(), "BF16").reshape(4, 4)},
                     "BF16"),
    }


def read_benq_header(path):
    blob = path.read_bytes()
    assert blob[:4] == BENQ_MAGIC
    hlen = int.from_bytes(blob[4:12], "little")
    return json.loads(blob[12:12 + hlen].decode()), hlen, blob


class TestBenqRoundTrip:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.value)
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_all_grids(self, tmp_path, schedule, bits):
        cfg = QuantConfig(bits=bits, group_size=8, schedule=schedule)
        p = tmp_path / "m.benq"
        entries = save_benq(p, toy_model(), QUANTIZE_ALL, cfg)
        config, policy, got = load_benq(p)
        assert config == cfg
        assert policy == QUANTIZE_ALL
        assert list(got) == list(entries)
        for name, (spec, qt) in entries.items():
            got_spec, g = got[name]
            assert got_spec == spec
            assert isinstance(qt, QuantizedTensor)
            assert g.shape == qt.shape
            assert g.indices.dtype == qt.indices.dtype
            assert np.array_equal(g.indices, qt.indices)
            assert np.array_equal(g.scales, qt.scales)
            assert np.array_equal(dequantize(g), dequantize(qt))

    def test_preserved_tensors_byte_identical(self, tmp_path):
        cfg = QuantConfig()
        p = tmp_path / "m.benq"
        entries = save_benq(p, toy_model(), DEFAULT_POLICY, cfg)
        _, _, got = load_benq(p)
        for name in ("model.norm.weight", "model.embed_tokens.weight"):
            (orig_spec, orig), (spec, back) = entries[name], got[name]
            assert not isinstance(back, QuantizedTensor)
            assert spec.dtype == orig_spec.dtype
            assert np.array_equal(back, orig)
            assert _demote(back, spec.dtype) == _demote(orig, orig_spec.dtype)

    def test_write_read_write_is_byte_stable(self, tmp_path):
        cfg = QuantConfig(bits=3, group_size=4)
        p1, p2 = tmp_path / "a.benq", tmp_path / "b.benq"
        save_benq(p1, toy_model(), DEFAULT_POLICY, cfg)
        with read_benq(str(p1)) as (config, policy, specs, entries):
            write_benq(str(p2), config, policy, specs, (t for _, t in entries))
        assert p1.read_bytes() == p2.read_bytes()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rewrite_of_what_is_read_is_the_file(self, tmp_path, data):
        schedule = data.draw(st.sampled_from(SCHEDULES))
        cfg = QuantConfig(bits=data.draw(st.integers(2, 8)),
                          group_size=data.draw(st.integers(1, 9)), schedule=schedule,
                          epsilon=data.draw(st.sampled_from([1e-7, 1e-3, 0.01])))
        families = st.lists(st.sampled_from(_FAMILIES), unique=True, max_size=4)
        patterns = st.lists(st.tuples(st.sampled_from(_FAMILIES),
                                      st.lists(st.text("abmpx._", max_size=4), max_size=2)),
                            max_size=3)
        policy = data.draw(st.one_of(st.just(DEFAULT_POLICY), st.builds(
            lambda p, q: QuantPolicy(family_patterns=p, quantize_families=q), patterns,
            families)))
        names = st.sampled_from(["layers.0.mlp.up_proj.weight", "layers.1.self_attn.q_proj.weight",
                                 "model.norm.weight", "lm_head.bias", "embed_tokens.weight",
                                 "ab", "x"])
        shapes = st.lists(st.integers(0, 9), max_size=3)
        drawn = data.draw(st.dictionaries(names, st.tuples(
            shapes, st.sampled_from(["F32", "F16", "BF16"]),
            st.sampled_from([0.0, 1e-3, 1.0, 300.0]), st.integers(0, 2 ** 32 - 1)),
            min_size=1, max_size=4))
        tensors = {name: (TensorSpec(name, tuple(shape), dtype),
                          (np.random.default_rng(seed).standard_normal(shape) * scale)
                          .astype(np.float32))
                   for name, (shape, dtype, scale, seed) in drawn.items()}
        p1, p2 = tmp_path / "a.benq", tmp_path / "b.benq"
        save_benq(p1, tensors, policy, cfg)
        with read_benq(str(p1)) as (config, got_policy, specs, entries):
            write_benq(str(p2), config, got_policy, specs, (t for _, t in entries))
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_offsets_and_sizes(self, tmp_path):
        cfg = QuantConfig(bits=3, group_size=8)
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), QUANTIZE_ALL, cfg)
        header, hlen, blob = read_benq_header(p)
        assert (4 + 8 + hlen) % 8 == 0
        total = 0
        for entry in header["tensors"]:
            numel = int(np.prod(entry["shape"])) if entry["shape"] else 1
            spans = [entry["indices"], entry["scales"]] if entry["quantized"] \
                else [entry["data"]]
            for off, length in spans:
                assert off % 8 == 0
                total += length + (-length % 8)
            if entry["quantized"]:
                assert entry["indices"][1] == packed_size(numel, cfg.bits)
                assert entry["scales"][1] == 2 * entry["n_groups"]
        assert len(blob) - 12 - hlen == total

    def test_three_and_four_bit_payloads_same_size(self, tmp_path):
        sizes = {}
        for bits in (3, 4):
            cfg = QuantConfig(bits=bits, group_size=8)
            p = tmp_path / f"{bits}.benq"
            save_benq(p, toy_model(), QUANTIZE_ALL, cfg)
            header, hlen, blob = read_benq_header(p)
            sizes[bits] = [e["indices"][1] for e in header["tensors"]]
        assert sizes[3] == sizes[4]


def tampered(blob, old, new):
    assert blob.count(old) == 1, old
    return blob.replace(old, new)


# sha256 of the .benq files the writer produces for pinned_model().  Their
# content digests (config, directory, payload) are unchanged since rtn codes
# were stored as offset signed integers; version 2 changed only the version,
# policy and policy_digest fields.  A change here is a change of the file format.
PINNED_SHA256 = {
    ("log", 3): "190fabdb523429e628e44bc8263b07ee6b5d7d22b38af56ac1cb2f354ed27d6a",
    ("log", 4): "164bfe646f2158af2876e3ea43bf8efe5218b075857537891404bb685c2611a0",
    ("log", 8): "e75d5aedd0ef35b615b9b5a75bac14c77a70415ca13665d9ad6fbe9d4e4ec2c4",
    ("linear", 3): "9cd2205b0668bd2b7ac75fff8afbdab64964e7fa82f2a4a47bdc52d3110cdb27",
    ("linear", 4): "ee2c8e8d7d404461417c269ec917299d4eb1e457297b40703d4d2cbbe94754a4",
    ("linear", 8): "e506ba395574d52b859da0d3a1f9d751b63efd895def2246c64acef99b0ec1fc",
    ("rtn", 3): "881a5b87026aa144fc984bc695719ddeb6a50f0399448d09ee070c227005268c",
    ("rtn", 4): "9b20b3a8a1e8ab537e516f79ce2009f24c6cac6fd8651a0335d2944444121e06",
    ("rtn", 8): "381e8b0722898d54194f0a4fe10a4085f684f966d7e0ea3aa0c6bdfbbc287f54",
}


def pinned_model():
    """Three quantized linears (one all-zero, one with a tail of 3) and two preserved tensors."""
    specs = {
        "model.embed_tokens.weight": "gaussian(0.05,256)",
        "model.layers.0.self_attn.q_proj.weight": "loguniform(6,1003)",
        "model.layers.0.self_attn.o_proj.weight": "constant(0,20)",
        "model.layers.0.mlp.down_proj.weight": "gaussian(0.02,512)",
        "model.layers.0.input_layernorm.weight": "lognormal(0,0.05,64)",
    }
    return tensor_set({n: synth_tensor(s, rng.derive_seed(0, n)) for n, s in specs.items()})


@pytest.mark.parametrize("schedule,bits", sorted(PINNED_SHA256))
def test_benq_bytes_pinned(tmp_path, schedule, bits):
    p = tmp_path / "m.benq"
    cfg = QuantConfig(bits=bits, schedule=Schedule(schedule))
    save_benq(p, pinned_model(), DEFAULT_POLICY, cfg)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_SHA256[(schedule, bits)]


class TestBenqValidation:
    @pytest.fixture
    def written(self, tmp_path):
        cfg = QuantConfig(bits=4, group_size=8)
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, cfg)
        return p, p.read_bytes()

    def expect_reject(self, tmp_path, blob, pattern):
        p = tmp_path / "bad.benq"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=pattern):
            load_benq(p)

    def test_bits_field_tamper(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, tampered(blob, b'"bits":4', b'"bits":8'),
                           "content digest mismatch")

    def test_payload_flip(self, tmp_path, written):
        _, blob = written
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        self.expect_reject(tmp_path, flipped, "content digest mismatch")

    def test_bad_magic(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, b"XXXX" + blob[4:], "not a .benq file")

    def test_unsupported_version(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path,
                           tampered(blob, b'"version":2', b'"version":1'),
                           "unsupported version")

    def test_policy_digest_tamper(self, tmp_path, written):
        _, blob = written
        header, _, _ = read_benq_header(written[0])
        old = header["policy_digest"].encode()
        new = (b"0" * 64) if old != b"0" * 64 else (b"1" * 64)
        self.expect_reject(tmp_path, blob.replace(old, new),
                           "header is not the one the writer gives")

    def test_truncated_prefix(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, blob[:6], "truncated")
        self.expect_reject(tmp_path, blob[:40], "exceeds file size")

    def test_truncated_payload(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, blob[:-20], "content digest mismatch")

    def test_safetensors_is_not_benq(self, tmp_path):
        p = tmp_path / "t.safetensors"
        save_container(p, tensor_set({"a": np.ones(2, np.float32)}))
        with pytest.raises(FormatError, match="not a .benq file"):
            load_benq(p)


def build_benq(path, cfg, policy, directory, payload):
    """Handcraft a structurally valid file with a correct content digest."""
    header = _benq_header(cfg, policy, directory, content_digest(cfg, directory, payload))
    path.write_bytes(BENQ_MAGIC + len(header).to_bytes(8, "little")
                     + header + payload)


def f32_entry(name, offset):
    """The directory entry of a preserved 2-element F32 tensor at payload `offset`."""
    return {"name": name, "shape": [2], "quantized": False, "dtype": "F32", "data": [offset, 8]}


class TestBenqCrafted:
    """Digest-valid files whose directory or payload is still wrong."""

    CFG = QuantConfig(bits=2, group_size=4, schedule=Schedule.LOG_UNIFORM)

    def test_stored_value_outside_bit_range(self, tmp_path):
        # nibble 0x05 cannot come from a 2-bit quantizer
        payload = bytes([0x05]) + b"\0" * 7 + np.float16(1.0).tobytes() + b"\0" * 6
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 1, "tail_len": 1,
                      "indices": [0, 1], "scales": [8, 2]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match="outside the 2-bit range"):
            load_benq(p)

    def test_span_outside_payload(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 1, "tail_len": 1,
                      "indices": [0, 1], "scales": [8, 1000]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="header is not the one the writer gives"):
            load_benq(p)

    def test_misaligned_offset(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 1, "tail_len": 1,
                      "indices": [1, 1], "scales": [8, 2]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="header is not the one the writer gives"):
            load_benq(p)

    def test_duplicate_tensor_name(self, tmp_path):
        entry = {"name": "w", "shape": [1], "quantized": True,
                 "n_groups": 1, "tail_len": 1,
                 "indices": [0, 1], "scales": [8, 2]}
        payload = bytes([0x01]) + b"\0" * 7 + np.float16(1.0).tobytes() + b"\0" * 6
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, [entry, dict(entry)], payload)
        with pytest.raises(FormatError, match="duplicate tensor name"):
            load_benq(p)

    def test_group_count_mismatch(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 9, "tail_len": 1,
                      "indices": [0, 1], "scales": [8, 2]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="header is not the one the writer gives"):
            load_benq(p)

    @pytest.mark.parametrize("directory,payload,message", [
        ([f32_entry("a", 0), f32_entry("b", 0)], bytes(8),
         "header is not the one the writer gives"),
        ([f32_entry("a", 0), f32_entry("b", 16)], bytes(24),
         "header is not the one the writer gives"),
        ([{"name": "w", "shape": [1], "quantized": True, "n_groups": 1, "tail_len": 1,
           "indices": [8, 1], "scales": [0, 2]}],
         np.float16(1.0).tobytes() + bytes(6) + bytes([0x01]) + bytes(7),
         "header is not the one the writer gives"),
        ([f32_entry("a", 0)], bytes(8 + 64), "payload is 72 bytes, not 8"),
    ], ids=["overlap", "hole", "scales-before-indices", "trailing-bytes"])
    def test_layout_not_the_writers(self, tmp_path, capsys, directory, payload, message):
        # each span lies inside the payload and is 8-byte aligned, yet the
        # writer lays the spans out one way only
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match=message):
            load_benq(p)
        assert main(["dequantize", str(p), "--out", str(tmp_path / "d.st")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "d.st").exists()

    def test_entry_missing_field(self, tmp_path):
        directory = [{"name": "w", "quantized": True}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, b"")
        with pytest.raises(FormatError, match="malformed tensor directory"):
            load_benq(p)

    def test_preserved_unsupported_dtype(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": False,
                      "dtype": "I8", "data": [0, 1]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(8))
        with pytest.raises(FormatError, match="unsupported dtype 'I8'"):
            load_benq(p)


# a 2-bit tensor of one element, its index and its group's scale each padded to 8 bytes
ONE_INDEX = {"name": "w", "shape": [1], "quantized": True, "n_groups": 1, "tail_len": 1,
             "indices": [0, 1], "scales": [8, 2]}
ONE_F16 = {"name": "a", "shape": [1], "quantized": False, "dtype": "F16", "data": [0, 2]}


def one_index(index=0x01, index_pad=bytes(7), scale=1.0, scale_pad=bytes(6)):
    """The payload of ONE_INDEX."""
    return bytes([index]) + index_pad + np.float16(scale).tobytes() + scale_pad


def reserialized(**kwargs):
    """A header edit: the same JSON written by json.dumps(**kwargs)."""
    return lambda raw: json.dumps(json.loads(raw), **kwargs).encode()


NOT_THE_HEADER = "header is not the one the writer gives"


class TestNotTheWritersBytes:
    """Digest-valid files that differ from what the writer writes only in bytes it fixes."""

    def expect_one_error_line(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("directory,payload,edit,message", [
        ([ONE_INDEX], one_index(index_pad=b"hidden!"), None, "w: nonzero bits past its indices"),
        ([ONE_INDEX], one_index(scale_pad=b"secret"), None, "w: nonzero bits past its scales"),
        ([ONE_INDEX], one_index(index=0x31), None, "w: nonzero bits past its indices"),
        ([ONE_F16], np.float16(1.0).tobytes() + b"extra!", None, "a: nonzero bits past its data"),
        *[([ONE_INDEX], one_index(scale=scale), None,
           "w: a scale is not a finite non-negative float16")
          for scale in (np.nan, np.inf, -np.inf, -1.0, -0.0)],
        ([ONE_INDEX], one_index(), reserialized(indent=1), NOT_THE_HEADER),
        ([ONE_INDEX], one_index(), reserialized(sort_keys=True, separators=(",", ":")),
         NOT_THE_HEADER),
        ([ONE_INDEX], one_index(),
         lambda raw: tampered(raw, b'"epsilon":1e-07', b'"epsilon":1.0000e-7'), NOT_THE_HEADER),
    ], ids=["index-padding", "scale-padding", "unused-nibble", "data-padding", "scale-nan",
            "scale-inf", "scale-minus-inf", "scale-negative", "scale-minus-zero",
            "header-indented", "header-sorted", "header-epsilon-spelling"])
    def test_benq(self, tmp_path, capsys, directory, payload, edit, message):
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, payload)
        if edit is not None:
            _, hlen, blob = read_benq_header(p)
            raw = edit(blob[12:12 + hlen].rstrip(b" "))
            raw += b" " * (-(4 + 8 + len(raw)) % 8)
            p.write_bytes(BENQ_MAGIC + len(raw).to_bytes(8, "little") + raw + blob[12 + hlen:])
        with pytest.raises(FormatError, match=message):
            load_benq(p)
        self.expect_one_error_line(capsys, ["dequantize", str(p), "--out", str(tmp_path / "d.st")])
        assert not (tmp_path / "d.st").exists()

    @pytest.mark.parametrize("offsets,payload,message", [
        ([[0, 8], [0, 8]], bytes(8), r"b: data offsets \[0, 8\] do not start at byte 8"),
        ([[0, 8], [16, 24]], bytes(24), r"b: data offsets \[16, 24\] do not start at byte 8"),
        ([[0, 8], [8, 16]], bytes(24), "tensors end at payload byte 16, not at its end, 24"),
    ], ids=["overlap", "hole", "trailing-bytes"])
    def test_safetensors(self, tmp_path, capsys, offsets, payload, message):
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {name: {"dtype": "F32", "shape": [2], "data_offsets": span}
                              for name, span in zip("ab", offsets)}, payload)
        with pytest.raises(FormatError, match=message):
            load_container(p)
        self.expect_one_error_line(capsys, ["analyze", str(p)])

    def test_empty_tensors_tile_the_payload_too(self, tmp_path):
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {name: {"dtype": "F32", "shape": shape, "data_offsets": span}
                              for name, shape, span in [("a", [0], [0, 0]), ("b", [2], [0, 8]),
                                                        ("c", [3, 0], [8, 8])]},
                          np.float32([1, 2]).tobytes())
        got = load_container(p)
        assert [a.shape for _, a in got.values()] == [(0,), (2,), (3, 0)]
        assert got["b"][1].tolist() == [1.0, 2.0]


def rewrite_header(path, edit):
    """Apply `edit` to a .benq header in place, without re-signing the file."""
    header, hlen, blob = read_benq_header(path)
    edit(header)
    raw = json.dumps(header, separators=(",", ":")).encode()
    raw += b" " * (-(4 + 8 + len(raw)) % 8)
    path.write_bytes(BENQ_MAGIC + len(raw).to_bytes(8, "little") + raw + blob[12 + hlen:])


# policies a header (or a --policy file) may hold that name no valid policy
HOSTILE_POLICIES = pytest.mark.parametrize("policy", [
    5, None, "norm", [], {"family_patterns": 5},
    {"family_patterns": [["foo", ["x"]]]},
    {"family_patterns": [["norm", "ln"]]},
    {"family_patterns": [["norm"]]},
    {"family_patterns": [["norm", [1]]]},
    {"family_patterns": [[["norm"], ["ln"]]]},
    {"quantize_families": "mlp_linear"},
    {"quantize_families": [5]},
    {"quantize_families": [["norm"]]},
    {"quantize_patterns": "norm"},
], ids=["int", "null", "string", "list", "patterns-int", "unknown-family",
        "bare-substring", "not-a-pair", "int-substring", "list-family",
        "bare-families", "int-family", "list-in-families", "old-field"])


class TestHostilePolicy:
    """The header's policy is outside the content digest: any shape must give ConfigError."""

    @HOSTILE_POLICIES
    def test_header_policy_rejected(self, tmp_path, policy):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig())
        rewrite_header(p, lambda h: h.update(policy=policy))
        with pytest.raises(ConfigError, match="policy|family"):
            load_benq(p)


# configs a header may hold: the whole value, or fields merged into a valid one
HOSTILE_CONFIGS = pytest.mark.parametrize("config", [
    5, None, "log", [], {"bits": "x"}, {"group_size": "a"}, {"epsilon": "e"},
    {"group_size": True}, {"bits": True}, {"bits": 4.0}, {"group_size": 8.5},
    {"epsilon": None}, {"epsilon": False}, {"schedule": 5}, {"group_size": None},
], ids=["int", "null", "string", "list", "bits-string", "group-string", "epsilon-string",
        "group-bool", "bits-bool", "bits-float", "group-fraction", "epsilon-null",
        "epsilon-bool", "schedule-int", "group-null"])


def set_config(config):
    def edit(header):
        header["config"] = ({**header["config"], **config} if isinstance(config, dict)
                            else config)
    return edit


class TestHostileConfig:
    """The config is parsed before the content digest is checked: a bad one gives ConfigError."""

    @HOSTILE_CONFIGS
    def test_header_config_rejected(self, tmp_path, config):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig())
        rewrite_header(p, set_config(config))
        with pytest.raises(ConfigError, match="config|schedule"):
            load_benq(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig())
        rewrite_header(p, lambda h: h["config"].pop("group_size"))
        with pytest.raises(ConfigError, match="missing field 'group_size'"):
            load_benq(p)


class TestAtomicity:
    def test_failed_replace_leaves_target_and_no_debris(self, tmp_path, monkeypatch):
        import benq.io as io_mod
        p = tmp_path / "m.benq"
        cfg = QuantConfig()
        save_benq(p, toy_model(), DEFAULT_POLICY, cfg)
        before = p.read_bytes()

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(io_mod.os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            save_benq(p, toy_model(), QUANTIZE_ALL, cfg)
        assert p.read_bytes() == before
        assert [f for f in os.listdir(tmp_path) if f.startswith(".benq-tmp")] == []

    def test_failed_writer_cleans_temp(self, tmp_path, monkeypatch):
        import benq.io as io_mod

        def broken_writer(f):
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            io_mod._atomic_write(str(tmp_path / "out.bin"), broken_writer)
        assert os.listdir(tmp_path) == []


# specs whose file the matching reader would reject
REFUSED = {
    "duplicate-name": [TensorSpec("a", (2,), "F32"), TensorSpec("a", (2,), "F32")],
    "int-name": [TensorSpec(3, (2,), "F32")],
    "int64-shape": [TensorSpec("a", (np.int64(2),), "F32")],
    "negative-shape": [TensorSpec("a", (-2,), "F32")],
}
REFUSED_BENQ = {**REFUSED, "f64": [TensorSpec("a", (2,), "F64")],
                "i8": [TensorSpec("a", (2,), "I8")]}
REFUSED_SAFETENSORS = {**REFUSED, "metadata-name": [TensorSpec("__metadata__", (2,), "F32")]}


def blocks_of(specs):
    return (iter([np.ones(2, dtype=np.float32)]) for _ in specs)


class TestWritersRefuseWhatTheirReadersReject:
    @pytest.mark.parametrize("specs", REFUSED_SAFETENSORS.values(), ids=REFUSED_SAFETENSORS)
    def test_safetensors(self, tmp_path, specs):
        with pytest.raises(DataError):
            write_container(str(tmp_path / "m.st"), specs, blocks_of(specs))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("specs", REFUSED_BENQ.values(), ids=REFUSED_BENQ)
    def test_benq(self, tmp_path, specs):
        with pytest.raises(DataError):
            write_benq(str(tmp_path / "m.benq"), QuantConfig(), QUANTIZE_ALL, specs,
                       blocks_of(specs))
        assert os.listdir(tmp_path) == []


# each shape with the element count an int()/int64 reading takes from it,
# sized so that every other check of the entry passes
HOSTILE_SHAPES = pytest.mark.parametrize(
    "shape,n", [([-2, -2], 4), ([2.5], 2), ([2 ** 40, 2 ** 40], 0)],
    ids=["negative", "fractional", "overflowing"])

# anything JSON can hold where a shape belongs, plausible shapes most of all
SHAPES = st.one_of(
    st.lists(st.integers(-3, 70), max_size=3),
    st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=3),
    st.lists(st.one_of(st.integers(0, 40), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=2), st.lists(st.integers(0, 4), max_size=2)),
             max_size=3),
    st.integers(-3, 40), st.floats(), st.text(max_size=3), st.none(), st.booleans(),
)


class TestHostileShapes:
    """Shapes are outside input: only non-negative ints whose product fits the span."""

    @HOSTILE_SHAPES
    def test_safetensors_rejects(self, tmp_path, shape, n):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": shape,
                                    "data_offsets": [0, 4 * n]}}, bytes(16))
        with pytest.raises(FormatError, match="shape|span"):
            load_container(p)

    @HOSTILE_SHAPES
    def test_benq_quantized_rejects(self, tmp_path, shape, n):
        n_groups = -(-n // 4)  # two-bit codes, two per byte, groups of 4
        payload = bytes(8) + np.float16(1.0).tobytes() * n_groups + bytes(8 - 2 * n_groups)
        directory = [{"name": "w", "shape": shape, "quantized": True,
                      "n_groups": n_groups, "tail_len": n % 4,
                      "indices": [0, -(-n // 2)], "scales": [8, 2 * n_groups]}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match="shape|span"):
            load_benq(p)

    @HOSTILE_SHAPES
    def test_benq_preserved_rejects(self, tmp_path, shape, n):
        directory = [{"name": "w", "shape": shape, "quantized": False,
                      "dtype": "F32", "data": [0, 4 * n]}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="shape|span"):
            load_benq(p)

    @given(shape=SHAPES, which=st.integers(0, 3))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_safetensors_shape(self, tmp_path, shape, which):
        p = tmp_path / "m.st"
        save_container(p, tensor_set({"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                      "b": np.ones(5, np.float32), "c": np.float32(2.0),
                                      "d": np.zeros(0, np.float32)}))
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8:8 + hlen])
        header[sorted(header)[which]]["shape"] = shape
        build_safetensors(p, header, blob[8 + hlen:])
        try:
            load_container(p)
        except (FormatError, ConfigError):
            pass

    @given(shape=SHAPES, which=st.integers(0, 3))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_benq_shape(self, tmp_path, shape, which):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig(bits=3, group_size=8))
        header, hlen, blob = read_benq_header(p)
        header["tensors"][which]["shape"] = shape
        # re-sign the content digest so that the directory parser is reached
        build_benq(p, QuantConfig.from_dict(header["config"]),
                   QuantPolicy.from_dict(header["policy"]), header["tensors"],
                   blob[12 + hlen:])
        try:
            load_benq(p)
        except (FormatError, ConfigError):
            pass


# offset pairs an int() reading took for [0, 8], [1, 9] and [0, -8]
HOSTILE_PAIRS = pytest.mark.parametrize(
    "pair", [[0.9, 8.7], [True, 9], [0, -8]], ids=["fractional", "boolean", "negative"])


class TestHostileOffsets:
    """Offsets and spans are outside input too: pairs of non-negative ints only."""

    @HOSTILE_PAIRS
    def test_safetensors_rejects(self, tmp_path, pair):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": [2],
                                    "data_offsets": pair}}, bytes(16))
        with pytest.raises(FormatError, match="data_offsets .* not a list of 2 non-negative"):
            load_container(p)

    @HOSTILE_PAIRS
    def test_benq_preserved_rejects(self, tmp_path, pair):
        directory = [{"name": "w", "shape": [2], "quantized": False,
                      "dtype": "F32", "data": pair}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="data .* not a list of 2 non-negative"):
            load_benq(p)

    @HOSTILE_PAIRS
    def test_benq_quantized_rejects(self, tmp_path, pair):
        # 32 two-bit codes fill 8 bytes; their 8 scales follow
        payload = bytes(8) + np.float16(1.0).tobytes() * 8
        directory = [{"name": "w", "shape": [32], "quantized": True,
                      "n_groups": 8, "tail_len": 0,
                      "indices": pair, "scales": [8, 16]}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match="indices .* not a list of 2 non-negative"):
            load_benq(p)


def one_quantized_entry(n):
    """(directory, payload) of one 2-bit tensor of n <= 8 elements, groups of 4, no tail."""
    n_groups = n // 4
    entry = {"name": "w", "shape": [n], "quantized": True, "n_groups": n_groups,
             "tail_len": 0, "indices": [0, n // 2], "scales": [8, 2 * n_groups]}
    payload = bytes(8) + np.float16(1.0).tobytes() * n_groups + bytes(8 - 2 * n_groups)
    return [entry], payload


def header_bytes(path, header):
    """A .benq file whose header is the raw bytes `header`, with no payload."""
    path.write_bytes(BENQ_MAGIC + len(header).to_bytes(8, "little") + header)


# headers no JSON reader may turn into a traceback
DEEP = b"[" * 200_000 + b"]" * 200_000
HUGE_INT = b"1" * 5000  # past Python's 4300-digit int conversion limit


class TestHeaderSchema:
    """Each header field has one exact JSON type: a bool is never an int, nor a float an int."""

    @pytest.mark.parametrize("directory", [[5], [["a"]], ["s"], [None]],
                             ids=["int", "list", "string", "null"])
    def test_entry_not_an_object(self, tmp_path, directory):
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(8))
        with pytest.raises(FormatError, match="tensors .* not a list of JSON objects"):
            load_benq(p)

    @pytest.mark.parametrize("n,key,value", [
        (8, "quantized", "yes"), (8, "quantized", 1), (8, "n_groups", 2.0),
        (4, "n_groups", True), (8, "tail_len", False), (8, "tail_len", 0.0),
    ], ids=["quantized-string", "quantized-int", "groups-float", "groups-bool",
            "tail-bool", "tail-float"])
    def test_quantized_entry_field_type(self, tmp_path, n, key, value):
        directory, payload = one_quantized_entry(n)
        directory[0][key] = value
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match=f"malformed tensor directory entry 0: .*{key}"):
            load_benq(p)

    @pytest.mark.parametrize("value", [0, None, "", []], ids=["int", "null", "string", "list"])
    def test_preserved_entry_quantized_flag(self, tmp_path, value):
        directory = [{"name": "w", "shape": [2], "quantized": value,
                      "dtype": "F32", "data": [0, 8]}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(8))
        with pytest.raises(FormatError, match="quantized .* not true or false"):
            load_benq(p)

    def test_float_version(self, tmp_path):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig())
        rewrite_header(p, lambda h: h.update(version=float(BENQ_VERSION)))
        with pytest.raises(FormatError, match="unsupported version"):
            load_benq(p)

    def test_unknown_header_key(self, tmp_path):
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig())
        rewrite_header(p, lambda h: h.update(comment="hi"))
        with pytest.raises(FormatError, match=r"header: unknown fields \['comment'\]"):
            load_benq(p)

    @pytest.mark.parametrize("quantized", [True, False])
    def test_unknown_entry_key(self, tmp_path, quantized):
        if quantized:
            directory, payload = one_quantized_entry(8)
        else:
            directory = [{"name": "w", "shape": [2], "quantized": False,
                          "dtype": "F32", "data": [0, 8]}]
            payload = bytes(8)
        directory[0]["comment"] = "hi"
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, payload)
        with pytest.raises(FormatError, match=r"unknown fields \['comment'\]"):
            load_benq(p)

    @pytest.mark.parametrize("schedule,extra", [
        (Schedule.LOG_UNIFORM, {"comment": "hi"}), (Schedule.LINEAR, {"epsilon": 0.5}),
        (Schedule.RTN, {"epsilon": 1e-7})], ids=["log-comment", "linear-epsilon", "rtn-epsilon"])
    def test_unknown_config_key(self, tmp_path, schedule, extra):
        # the content digest covers the parsed config, so the extra key is unsigned
        p = tmp_path / "m.benq"
        save_benq(p, toy_model(), DEFAULT_POLICY, QuantConfig(schedule=schedule))
        rewrite_header(p, set_config(extra))
        with pytest.raises(ConfigError, match="quantization config"):
            load_benq(p)

    @pytest.mark.parametrize("header", [
        DEEP, b'{"w":{"dtype":"F32","shape":[' + HUGE_INT + b'],"data_offsets":[0,4]}}'],
        ids=["deep", "huge-int"])
    def test_safetensors_unreadable_json(self, tmp_path, header):
        p = tmp_path / "bad.st"
        build_safetensors(p, header, bytes(4))
        with pytest.raises(FormatError, match="malformed header JSON"):
            load_container(p)

    @pytest.mark.parametrize("header", [DEEP, b'{"version":' + HUGE_INT + b"}"],
                             ids=["deep", "huge-int"])
    def test_benq_unreadable_json(self, tmp_path, header):
        p = tmp_path / "c.benq"
        header_bytes(p, header)
        with pytest.raises(FormatError, match="malformed header JSON"):
            load_benq(p)


# any JSON value, the plausible small ints and strings most of all
JSON_VALUES = st.recursive(
    st.one_of(st.integers(-2, 70), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.floats(),
              st.text(max_size=3), st.sampled_from(["F32", "BF16", "log", "norm"]), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def json_paths(obj, prefix=()):
    """The key path of every value below the root of a JSON object or list."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def replaced(obj, path, value):
    """A copy of `obj` with the value at `path` replaced."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    st_path, benq_path = d / "m.st", d / "m.benq"
    save_container(st_path, tensor_set({"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                        "b": np.ones(5, np.float32), "c": np.float32(2.0)}))
    save_benq(benq_path, toy_model(), DEFAULT_POLICY, QuantConfig(bits=3, group_size=8))
    return st_path.read_bytes(), read_benq_header(benq_path)


class TestHostileHeaders:
    """Any field at any depth replaced by any JSON value: FormatError, ConfigError or a read."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_safetensors_header(self, tmp_path, valid_files, data):
        blob = valid_files[0]
        hlen = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8:8 + hlen])
        path = data.draw(st.sampled_from(list(json_paths(header))))
        p = tmp_path / "m.st"
        build_safetensors(p, replaced(header, path, data.draw(JSON_VALUES)), blob[8 + hlen:])
        try:
            load_container(p)
        except (FormatError, ConfigError):
            pass

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_benq_header(self, tmp_path, valid_files, data):
        header, hlen, blob = valid_files[1]
        path = data.draw(st.sampled_from(list(json_paths(header))))
        header = replaced(header, path, data.draw(JSON_VALUES))
        payload = blob[12 + hlen:]
        if path[0] != "config":  # the config is parsed before the digest is checked
            header["content_digest"] = content_digest(QuantConfig.from_dict(header["config"]),
                                                      header["tensors"], payload)
        raw = json.dumps(header, separators=(",", ":")).encode()
        raw += b" " * (-(4 + 8 + len(raw)) % 8)
        p = tmp_path / "m.benq"
        p.write_bytes(BENQ_MAGIC + len(raw).to_bytes(8, "little") + raw + payload)
        try:
            load_benq(p)
        except (FormatError, ConfigError):
            pass

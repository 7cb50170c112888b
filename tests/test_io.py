"""Container formats: safetensors subset, nibble packing, .benq round trips."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benq import rng
from benq.errors import ConfigError, FormatError
from benq.io import (BENQ_MAGIC, WeightTensor, _content_digest, _demote,
                     _promote, pack_indices, packed_size, read_benq,
                     read_container, unpack_indices, write_benq,
                     write_container)
from benq.levels import Schedule
from benq.quantizer import (DEFAULT_POLICY, QUANTIZE_ALL, QuantConfig,
                            QuantPolicy, apply_policy, dequantize)
from benq.synth import synth_tensor

SCHEDULES = (Schedule.LOG_UNIFORM, Schedule.LINEAR, Schedule.RTN)


def build_safetensors(path, entries, payload):
    header = json.dumps(entries, separators=(",", ":")).encode() \
        if isinstance(entries, dict) else entries
    path.write_bytes(len(header).to_bytes(8, "little") + header + payload)


class TestSafetensors:
    def test_f32_round_trip(self, tmp_path):
        tensors = {
            "a": np.arange(12, dtype=np.float32).reshape(3, 4),
            "b": np.array(-1.5, dtype=np.float32),          # zero-dim
            "c": np.zeros((2, 0), dtype=np.float32),        # empty
        }
        p = tmp_path / "t.safetensors"
        write_container(str(p), tensors)
        got = read_container(str(p))
        assert set(got) == {"a", "b", "c"}
        for name, arr in tensors.items():
            wt = got[name]
            assert wt.source_dtype == "F32"
            assert wt.data.shape == arr.shape
            assert np.array_equal(wt.data, arr)

    def test_f16_fixture_promotes_exactly(self, tmp_path):
        vals = np.array([1.0, -2.5, 2.0 ** -9, 65504.0], dtype=np.float16)
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"w": {"dtype": "F16", "shape": [4],
                                    "data_offsets": [0, 8]}}, vals.tobytes())
        wt = read_container(str(p))["w"]
        assert wt.source_dtype == "F16"
        assert np.array_equal(wt.data, vals.astype(np.float32))

    def test_bf16_fixture_promotes_exactly(self, tmp_path):
        # bit patterns: 1.0, -3.0, max bf16, smallest normal
        bits = np.array([0x3F80, 0xC040, 0x7F7F, 0x0080], dtype="<u2")
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"w": {"dtype": "BF16", "shape": [2, 2],
                                    "data_offsets": [0, 8]}}, bits.tobytes())
        wt = read_container(str(p))["w"]
        expect = (bits.astype(np.uint32) << 16).view(np.float32).reshape(2, 2)
        assert wt.source_dtype == "BF16"
        assert np.array_equal(wt.data, expect)

    def test_metadata_entry_skipped(self, tmp_path):
        payload = np.ones(2, dtype=np.float32).tobytes()
        p = tmp_path / "t.safetensors"
        build_safetensors(p, {"__metadata__": {"format": "pt"},
                              "w": {"dtype": "F32", "shape": [2],
                                    "data_offsets": [0, 8]}}, payload)
        assert set(read_container(str(p))) == {"w"}

    def test_write_is_deterministic(self, tmp_path):
        tensors = {"a": np.linspace(0, 1, 7, dtype=np.float32)}
        p1, p2 = tmp_path / "1.st", tmp_path / "2.st"
        write_container(str(p1), tensors)
        write_container(str(p2), tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_header_is_padded_to_alignment(self, tmp_path):
        p = tmp_path / "t.safetensors"
        write_container(str(p), {"abc": np.ones(3, dtype=np.float32)})
        hlen = int.from_bytes(p.read_bytes()[:8], "little")
        assert (8 + hlen) % 8 == 0

    def test_file_permissions_respect_umask(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        p = tmp_path / "t.safetensors"
        write_container(str(p), {"a": np.ones(1, dtype=np.float32)})
        assert (p.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_empty_container_warns(self, tmp_path):
        p = tmp_path / "t.safetensors"
        write_container(str(p), {})
        with pytest.warns(UserWarning, match="no tensors"):
            assert read_container(str(p)) == {}

    def test_truncated_header_length(self, tmp_path):
        p = tmp_path / "bad.st"
        p.write_bytes(b"\x01\x02\x03")
        with pytest.raises(FormatError, match="truncated"):
            read_container(str(p))

    def test_header_length_beyond_file(self, tmp_path):
        p = tmp_path / "bad.st"
        p.write_bytes((1 << 20).to_bytes(8, "little") + b"{}")
        with pytest.raises(FormatError, match="exceeds file size"):
            read_container(str(p))

    def test_malformed_header_json(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, b"{not json", b"")
        with pytest.raises(FormatError, match="malformed header JSON"):
            read_container(str(p))

    def test_header_not_an_object(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, b"[1,2]", b"")
        with pytest.raises(FormatError, match="not a JSON object"):
            read_container(str(p))

    def test_duplicate_header_keys(self, tmp_path):
        entry = b'{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
        p = tmp_path / "bad.st"
        build_safetensors(p, b'{"a":' + entry + b',"a":' + entry + b"}",
                          b"\0" * 4)
        with pytest.raises(FormatError, match="duplicate keys"):
            read_container(str(p))

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "I64", "shape": [1],
                                    "data_offsets": [0, 8]}}, b"\0" * 8)
        with pytest.raises(FormatError, match="unsupported dtype 'I64'"):
            read_container(str(p))

    def test_offsets_outside_payload(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": [1],
                                    "data_offsets": [0, 100]}}, b"\0" * 4)
        with pytest.raises(FormatError, match="outside payload"):
            read_container(str(p))

    def test_offsets_span_wrong_size(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32", "shape": [2],
                                    "data_offsets": [0, 4]}}, b"\0" * 8)
        with pytest.raises(FormatError, match="span 4 bytes, expected 8"):
            read_container(str(p))

    def test_entry_missing_fields(self, tmp_path):
        p = tmp_path / "bad.st"
        build_safetensors(p, {"w": {"dtype": "F32"}}, b"")
        with pytest.raises(FormatError, match="malformed header entry"):
            read_container(str(p))


class TestDtypePromotion:
    def test_f16_promote_demote_identity(self):
        raw = np.arange(0, 60000, 7, dtype=np.uint16).tobytes()
        arr = _promote(raw, "F16", (len(raw) // 2,), "w")
        # skip nan patterns: they do not compare equal but also never
        # arise from finite weights
        finite = np.isfinite(arr)
        back = np.frombuffer(_demote(arr, "F16"), dtype=np.uint16)
        orig = np.frombuffer(raw, dtype=np.uint16)
        assert np.array_equal(back[finite], orig[finite])

    def test_bf16_promote_demote_identity(self):
        raw = np.arange(0, 60000, 11, dtype=np.uint16).tobytes()
        arr = _promote(raw, "BF16", (len(raw) // 2,), "w")
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

    def test_weight_tensor_rejects_unknown_dtype(self):
        with pytest.raises(FormatError, match="unsupported dtype"):
            WeightTensor("w", np.ones(2), "F64")


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
        "model.layers.0.mlp.up_proj.weight": synth_tensor("loguniform(4,37)", 1),
        "model.layers.0.self_attn.q_proj.weight": synth_tensor("gaussian(0.5,64)", 2),
        "model.norm.weight": WeightTensor(
            "model.norm.weight",
            np.float16(np.linspace(0.9, 1.1, 6)).astype(np.float32), "F16"),
        "model.embed_tokens.weight": WeightTensor(
            "model.embed_tokens.weight",
            _promote(np.arange(100, 116, dtype="<u2").tobytes(), "BF16",
                     (4, 4), "e"), "BF16"),
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
        mq = apply_policy(toy_model(), QUANTIZE_ALL, cfg)
        p = tmp_path / "m.benq"
        write_benq(str(p), mq)
        got = read_benq(str(p))
        assert got.config == cfg
        assert got.policy == QUANTIZE_ALL
        assert list(got.entries) == list(mq.entries)
        for name, qt in mq.quantized().items():
            g = got.entries[name]
            assert g.shape == qt.shape
            assert g.indices.dtype == qt.indices.dtype
            assert np.array_equal(g.indices, qt.indices)
            assert np.array_equal(g.scales, qt.scales)
            assert np.array_equal(dequantize(g), dequantize(qt))

    def test_preserved_tensors_byte_identical(self, tmp_path):
        cfg = QuantConfig()
        mq = apply_policy(toy_model(), DEFAULT_POLICY, cfg)
        p = tmp_path / "m.benq"
        write_benq(str(p), mq)
        got = read_benq(str(p))
        for name in ("model.norm.weight", "model.embed_tokens.weight"):
            orig, back = mq.entries[name], got.entries[name]
            assert isinstance(back, WeightTensor)
            assert back.source_dtype == orig.source_dtype
            assert np.array_equal(back.data, orig.data)
            assert _demote(back.data, back.source_dtype) == \
                _demote(orig.data, orig.source_dtype)

    def test_write_read_write_is_byte_stable(self, tmp_path):
        cfg = QuantConfig(bits=3, group_size=4)
        mq = apply_policy(toy_model(), DEFAULT_POLICY, cfg)
        p1, p2 = tmp_path / "a.benq", tmp_path / "b.benq"
        write_benq(str(p1), mq)
        write_benq(str(p2), read_benq(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout_offsets_and_sizes(self, tmp_path):
        cfg = QuantConfig(bits=3, group_size=8)
        mq = apply_policy(toy_model(), QUANTIZE_ALL, cfg)
        p = tmp_path / "m.benq"
        write_benq(str(p), mq)
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
            write_benq(str(p), apply_policy(toy_model(), QUANTIZE_ALL, cfg))
            header, hlen, blob = read_benq_header(p)
            sizes[bits] = [e["indices"][1] for e in header["tensors"]]
        assert sizes[3] == sizes[4]


def tampered(blob, old, new):
    assert blob.count(old) == 1, old
    return blob.replace(old, new)


# sha256 of the .benq files the writer produced for pinned_model() when rtn
# codes were still stored as offset signed integers; a change here is a
# change of the file format.
PINNED_SHA256 = {
    ("log", 3): "09615f59303bb3a9585e0a846ec032cca64cbcd9d723533c1cf9ff7a5a002ae3",
    ("log", 4): "9da1c28b4bf8b6f21210dc165d38f845dac3eb78edcd61971a3ecca25100a3f3",
    ("log", 8): "7b05425da34937f80b59118c2f8ca3adc794f418755324a42d281b22dcdcc07d",
    ("linear", 3): "2fafd36bad5381ce39e846c387252a0dc4d61183cbcc77d23dee93c40c54615e",
    ("linear", 4): "fa1c73b496e743f62f821491c71a289b47c2d3b205ec9c1e08cebce07e0c8b32",
    ("linear", 8): "fd12e27a86bcc79b8d6a55b488cb3035076e54e10b4562b693298616217d1ca7",
    ("rtn", 3): "000a61767bc06de4156a83509f38d15ee6e0d96c25e7e95c143f6ab172f1d6ce",
    ("rtn", 4): "06f240ef8617794698f0bd34262b06288e26b3736adb08737d3871d4ae5f2206",
    ("rtn", 8): "b933fa13f1044cbdafddd888876980f625e38588064500ccc230ec65f2df6443",
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
    return {n: synth_tensor(s, rng.derive_seed(0, n)) for n, s in specs.items()}


@pytest.mark.parametrize("schedule,bits", sorted(PINNED_SHA256))
def test_benq_bytes_pinned(tmp_path, schedule, bits):
    p = tmp_path / "m.benq"
    cfg = QuantConfig(bits=bits, schedule=Schedule(schedule))
    write_benq(str(p), apply_policy(pinned_model(), DEFAULT_POLICY, cfg))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_SHA256[(schedule, bits)]


class TestBenqValidation:
    @pytest.fixture
    def written(self, tmp_path):
        cfg = QuantConfig(bits=4, group_size=8)
        mq = apply_policy(toy_model(), DEFAULT_POLICY, cfg)
        p = tmp_path / "m.benq"
        write_benq(str(p), mq)
        return p, p.read_bytes()

    def expect_reject(self, tmp_path, blob, pattern):
        p = tmp_path / "bad.benq"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match=pattern):
            read_benq(str(p))

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
                           tampered(blob, b'"version":1', b'"version":2'),
                           "unsupported version")

    def test_policy_digest_tamper(self, tmp_path, written):
        _, blob = written
        header, _, _ = read_benq_header(written[0])
        old = header["policy_digest"].encode()
        new = (b"0" * 64) if old != b"0" * 64 else (b"1" * 64)
        self.expect_reject(tmp_path, blob.replace(old, new),
                           "policy digest mismatch")

    def test_truncated_prefix(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, blob[:6], "truncated")
        self.expect_reject(tmp_path, blob[:40], "exceeds file size")

    def test_truncated_payload(self, tmp_path, written):
        _, blob = written
        self.expect_reject(tmp_path, blob[:-20], "content digest mismatch")

    def test_safetensors_is_not_benq(self, tmp_path):
        p = tmp_path / "t.safetensors"
        write_container(str(p), {"a": np.ones(2, np.float32)})
        with pytest.raises(FormatError, match="not a .benq file"):
            read_benq(str(p))


def build_benq(path, cfg, policy, directory, payload):
    """Handcraft a structurally valid file with a correct content digest."""
    header_obj = {
        "version": 1,
        "config": cfg.to_dict(),
        "policy": policy.to_dict(),
        "policy_digest": policy.digest(),
        "content_digest": _content_digest(cfg, directory, payload),
        "tensors": directory,
    }
    header = json.dumps(header_obj, separators=(",", ":")).encode()
    header += b" " * (-(4 + 8 + len(header)) % 8)
    path.write_bytes(BENQ_MAGIC + len(header).to_bytes(8, "little")
                     + header + payload)


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
            read_benq(str(p))

    def test_span_outside_payload(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 1, "tail_len": 1,
                      "indices": [0, 1], "scales": [8, 1000]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="outside payload"):
            read_benq(str(p))

    def test_misaligned_offset(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 1, "tail_len": 1,
                      "indices": [1, 1], "scales": [8, 2]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="not 8-byte aligned"):
            read_benq(str(p))

    def test_duplicate_tensor_name(self, tmp_path):
        entry = {"name": "w", "shape": [1], "quantized": True,
                 "n_groups": 1, "tail_len": 1,
                 "indices": [0, 1], "scales": [8, 2]}
        payload = bytes([0x01]) + b"\0" * 7 + np.float16(1.0).tobytes() + b"\0" * 6
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, [entry, dict(entry)], payload)
        with pytest.raises(FormatError, match="duplicate tensor name"):
            read_benq(str(p))

    def test_group_count_mismatch(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": True,
                      "n_groups": 9, "tail_len": 1,
                      "indices": [0, 1], "scales": [8, 2]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="claims 9 groups"):
            read_benq(str(p))

    def test_entry_missing_field(self, tmp_path):
        directory = [{"name": "w", "quantized": True}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, b"")
        with pytest.raises(FormatError, match="malformed tensor directory"):
            read_benq(str(p))

    def test_preserved_unsupported_dtype(self, tmp_path):
        directory = [{"name": "w", "shape": [1], "quantized": False,
                      "dtype": "I8", "data": [0, 1]}]
        p = tmp_path / "c.benq"
        build_benq(p, self.CFG, QUANTIZE_ALL, directory, bytes(8))
        with pytest.raises(FormatError, match="unsupported dtype 'I8'"):
            read_benq(str(p))


class TestAtomicity:
    def test_failed_replace_leaves_target_and_no_debris(self, tmp_path, monkeypatch):
        import benq.io as io_mod
        p = tmp_path / "m.benq"
        cfg = QuantConfig()
        write_benq(str(p), apply_policy(toy_model(), DEFAULT_POLICY, cfg))
        before = p.read_bytes()

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(io_mod.os, "replace", boom)
        other = apply_policy(toy_model(), QUANTIZE_ALL, cfg)
        with pytest.raises(OSError, match="disk gone"):
            write_benq(str(p), other)
        assert p.read_bytes() == before
        assert [f for f in os.listdir(tmp_path) if f.startswith(".benq-tmp")] == []

    def test_failed_writer_cleans_temp(self, tmp_path, monkeypatch):
        import benq.io as io_mod

        def broken_writer(f):
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            io_mod._atomic_write(str(tmp_path / "out.bin"), broken_writer)
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
            read_container(str(p))

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
            read_benq(str(p))

    @HOSTILE_SHAPES
    def test_benq_preserved_rejects(self, tmp_path, shape, n):
        directory = [{"name": "w", "shape": shape, "quantized": False,
                      "dtype": "F32", "data": [0, 4 * n]}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="shape|span"):
            read_benq(str(p))

    @given(shape=SHAPES, which=st.integers(0, 3))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_safetensors_shape(self, tmp_path, shape, which):
        p = tmp_path / "m.st"
        write_container(str(p), {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                 "b": np.ones(5, np.float32), "c": np.float32(2.0),
                                 "d": np.zeros(0, np.float32)})
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8:8 + hlen])
        header[sorted(header)[which]]["shape"] = shape
        build_safetensors(p, header, blob[8 + hlen:])
        try:
            read_container(str(p))
        except (FormatError, ConfigError):
            pass

    @given(shape=SHAPES, which=st.integers(0, 3))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_benq_shape(self, tmp_path, shape, which):
        p = tmp_path / "m.benq"
        write_benq(str(p), apply_policy(toy_model(), DEFAULT_POLICY,
                                        QuantConfig(bits=3, group_size=8)))
        header, hlen, blob = read_benq_header(p)
        header["tensors"][which]["shape"] = shape
        # re-sign the content digest so that the directory parser is reached
        build_benq(p, QuantConfig.from_dict(header["config"]),
                   QuantPolicy.from_dict(header["policy"]), header["tensors"],
                   blob[12 + hlen:])
        try:
            read_benq(str(p))
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
            read_container(str(p))

    @HOSTILE_PAIRS
    def test_benq_preserved_rejects(self, tmp_path, pair):
        directory = [{"name": "w", "shape": [2], "quantized": False,
                      "dtype": "F32", "data": pair}]
        p = tmp_path / "c.benq"
        build_benq(p, TestBenqCrafted.CFG, QUANTIZE_ALL, directory, bytes(16))
        with pytest.raises(FormatError, match="data .* not a list of 2 non-negative"):
            read_benq(str(p))

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
            read_benq(str(p))

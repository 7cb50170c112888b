"""Every single-byte change, truncation and extension of small files, through the readers.

Each byte of each file is XORed with each of MASKS in turn.  A mutated
.benq file is re-signed whenever its header still parses, so that the
content digest does not hide what the other checks would miss; it must
then either raise a BenqError from `read_benq` and its blocks, or read back
and rewrite to its own bytes.  A mutated safetensors file goes through
`analyze` and `quantize`: each run exits 0, or exits 1 with one `error:`
line.  Every truncation and four extensions of each file exit 1 with one
line.  Deterministic; the whole sweep is some 20,000 reads.
"""

import json

import numpy as np
import pytest

from benq import cli
from benq.errors import BenqError
from benq.io import read_benq, write_benq
from benq.levels import Schedule
from benq.quantizer import DEFAULT_POLICY, QuantConfig
from benq.synth import synth_tensor
from conftest import content_digest, save_benq, save_container, tensor_set

MASKS = (0x01, 0x10, 0x80, 0xFF)
EXTENSIONS = (b"\0", bytes(8), b"\x01", b"benq-tail")
BENQ_CONFIGS = {"log4-G8": QuantConfig(bits=4, group_size=8, schedule=Schedule.LOG_UNIFORM),
                "rtn8-G4": QuantConfig(bits=8, group_size=4, schedule=Schedule.RTN),
                "linear3-G5": QuantConfig(bits=3, group_size=5, schedule=Schedule.LINEAR)}


def mutations(blob):
    for i in range(len(blob)):
        for mask in MASKS:
            yield blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]


def cut_and_extended(blob):
    return [blob[:n] for n in range(len(blob))] + [blob + tail for tail in EXTENSIONS]


def re_signed(blob):
    """`blob` with its content digest recomputed, when its header still parses."""
    hlen = int.from_bytes(blob[4:12], "little")
    raw, payload = blob[12:12 + hlen], blob[12 + hlen:]
    try:
        header = json.loads(raw)
        old = header["content_digest"]
        new = content_digest(QuantConfig.from_dict(header["config"]), header["tensors"], payload)
    except (ValueError, TypeError, KeyError, BenqError):
        return blob
    if not isinstance(old, str) or raw.count(old.encode()) != 1:
        return blob
    return blob[:12] + raw.replace(old.encode(), new.encode()) + payload


@pytest.fixture
def run(monkeypatch, capsys):
    """`cli.main` on argv, with its parser built once: (exit code, stderr)."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)

    def go(*argv):
        code = cli.main([*argv, "--threads", "1"])
        return code, capsys.readouterr().err
    return go


def one_error_line(code, err):
    return code == 1 and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.fixture(scope="module")
def benq_files(tmp_path_factory):
    """Three .benq files of about 1 KB: two quantized linears and a preserved F16 gain."""
    d = tmp_path_factory.mktemp("benq")
    model = {**tensor_set({"layers.0.mlp.up_proj.weight": synth_tensor("loguniform(4,37)", 1),
                           "layers.0.self_attn.q_proj.weight":
                           synth_tensor("gaussian(0.5,24)", 2)}),
             **tensor_set({"layers.0.input_layernorm.weight":
                           np.float16(np.linspace(0.9, 1.1, 6)).astype(np.float32)}, "F16")}
    blobs = {}
    for name, cfg in BENQ_CONFIGS.items():
        save_benq(d / name, model, DEFAULT_POLICY, cfg)
        blobs[name] = (d / name).read_bytes()
    assert all(900 <= len(b) <= 1200 for b in blobs.values()), [len(b) for b in blobs.values()]
    return blobs


@pytest.fixture(scope="module")
def safetensors_file(tmp_path_factory):
    """A safetensors file of about 300 bytes: two linears and an F16 norm gain."""
    p = tmp_path_factory.mktemp("st") / "m.safetensors"
    save_container(p, {**tensor_set({"a.up_proj": synth_tensor("loguniform(4,11)", 3),
                                     "a.q_proj": synth_tensor("gaussian(0.5,8)", 4)}),
                       **tensor_set({"a.norm": np.float32([0.5, 2.0, 1.25])}, "F16")})
    blob = p.read_bytes()
    assert 250 <= len(blob) <= 400, len(blob)
    return blob


@pytest.mark.parametrize("name", BENQ_CONFIGS)
def test_benq_byte_changes_are_rejected_or_read_exactly(tmp_path, benq_files, name):
    p, back = tmp_path / "m.benq", tmp_path / "back.benq"
    read = 0
    for blob in map(re_signed, mutations(benq_files[name])):
        p.write_bytes(blob)
        try:
            with read_benq(str(p)) as (config, policy, specs, entries):
                write_benq(str(back), config, policy, specs, (b for _, b in entries))
        except BenqError:
            continue
        assert back.read_bytes() == blob
        read += 1
    assert read  # re-signing lets payload changes past the digest


@pytest.mark.parametrize("command", ["analyze", "quantize"])
def test_safetensors_byte_changes_exit_zero_or_one_error_line(tmp_path, run, safetensors_file,
                                                                command):
    p = tmp_path / "m.safetensors"
    failed = []
    for i, blob in enumerate(mutations(safetensors_file)):
        p.write_bytes(blob)
        code, err = run(command, str(p), "--out", str(tmp_path / "out"))
        if code != 0 and not one_error_line(code, err):
            failed.append((i // len(MASKS), MASKS[i % len(MASKS)], code, err[-200:]))
    assert not failed, failed[:5]


def test_truncated_or_extended_files_exit_one_error_line(tmp_path, run, benq_files,
                                                         safetensors_file):
    cases = [("analyze", "m.safetensors", b) for b in cut_and_extended(safetensors_file)]
    cases += [("dequantize", "m.benq", b) for blob in benq_files.values()
              for b in cut_and_extended(blob)]
    failed = []
    for command, name, blob in cases:
        (tmp_path / name).write_bytes(blob)
        code, err = run(command, str(tmp_path / name), "--out", str(tmp_path / "out"))
        if not one_error_line(code, err):
            failed.append((command, len(blob), code, err[-200:]))
    assert not failed, failed[:5]

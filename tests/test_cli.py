"""In-process exercises of the benq command line."""

import csv
import hashlib
import io as stdio
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from benq.cli import main
from benq.io import BENQ_MAGIC, TensorSpec, write_container
from benq.quantizer import _BLOCK_ELEMS, QuantConfig, QuantizedTensor, dequantize
from benq.rng import derive_seed
from benq.synth import _CHUNK, parse_spec, synth_tensor
from conftest import content_digest, load_benq, load_container

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_model(capsys, tmp_path, name="model.safetensors"):
    path = tmp_path / name
    code, _, _ = run(
        capsys, "synth",
        "--tensor", "layers.0.mlp.up_proj.weight=loguniform(4,600)",
        "--tensor", "layers.0.self_attn.q_proj.weight=gaussian(0.02,400)",
        "--tensor", "layers.0.input_layernorm.weight=lognormal(0,0.05,64)",
        "--out", str(path))
    assert code == 0
    return path


class TestLevels:
    def test_log_codebook_json(self, capsys):
        code, out, _ = run(capsys, "levels", "--bits", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["schedule"] == "log"
        assert obj["bits"] == 3
        assert obj["epsilon"] == 1e-7
        pos = obj["levels"][4:]
        expect = [1e-7, 10.0 ** (-14 / 3), 10.0 ** (-7 / 3), 1.0]
        assert pos == pytest.approx(expect, rel=1e-12)
        assert obj["levels"][:4] == pytest.approx([-v for v in expect[::-1]],
                                                  rel=1e-12)

    def test_linear_codebook_json(self, capsys):
        code, out, _ = run(capsys, "levels", "--schedule", "linear",
                           "--bits", "4")
        assert code == 0
        obj = json.loads(out)
        assert "epsilon" not in obj
        assert obj["levels"] == pytest.approx(
            [k / 8 for k in range(-8, 0)] + [k / 8 for k in range(1, 9)])

    def test_rtn_codebook_json(self, capsys):
        code, out, _ = run(capsys, "levels", "--schedule", "rtn", "--bits", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"schedule": "rtn", "bits": 3,
                       "levels": [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]}


class TestSynth:
    def test_writes_requested_tensors(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        got = load_container(p)
        assert set(got) == {"layers.0.mlp.up_proj.weight",
                            "layers.0.self_attn.q_proj.weight",
                            "layers.0.input_layernorm.weight"}
        assert got["layers.0.mlp.up_proj.weight"][1].size == 600

    def test_deterministic_across_runs(self, capsys, tmp_path):
        a = make_model(capsys, tmp_path, "a.safetensors")
        b = make_model(capsys, tmp_path, "b.safetensors")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_data(self, capsys, tmp_path):
        args = ["synth", "--tensor", "w=gaussian(1,64)"]
        p0, p1 = tmp_path / "s0.st", tmp_path / "s1.st"
        assert main(args + ["--out", str(p0)]) == 0
        assert main(args + ["--seed", "1", "--out", str(p1)]) == 0
        capsys.readouterr()
        assert not np.array_equal(load_container(p0)["w"][1], load_container(p1)["w"][1])

    def test_same_spec_different_names_differ(self, capsys, tmp_path):
        p = tmp_path / "t.st"
        code, _, _ = run(capsys, "synth", "--tensor", "a=gaussian(1,64)",
                         "--tensor", "b=gaussian(1,64)", "--out", str(p))
        assert code == 0
        got = load_container(p)
        assert not np.array_equal(got["a"][1], got["b"][1])

    def test_streamed_output_is_the_whole_tensors_written(self, capsys, tmp_path):
        specs = {"a": f"loguniform(5,{2 * _CHUNK + 5})", "b": "lognormal(0,1,1001)",
                 "c": f"gaussian(0.02,{_CHUNK})", "d": "constant(0.35,7)"}
        p, want = tmp_path / "s.st", tmp_path / "w.st"
        tensors = [a for name, spec in specs.items() for a in ("--tensor", f"{name}={spec}")]
        assert main(["synth", "--seed", "4", "--out", str(p), *tensors]) == 0
        capsys.readouterr()
        write_container(str(want), [TensorSpec(name, (parse_spec(spec).n,), "F32")
                                    for name, spec in specs.items()],
                        [iter([synth_tensor(spec, derive_seed(4, name))])
                         for name, spec in specs.items()])
        assert p.read_bytes() == want.read_bytes()

    def test_malformed_tensor_argument(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--tensor", "nospec",
                           "--out", str(tmp_path / "t.st"))
        assert code == 1
        assert "NAME=DIST" in err

    def test_duplicate_name_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--tensor", "w=gaussian(1,8)",
                           "--tensor", "w=gaussian(1,8)",
                           "--out", str(tmp_path / "t.st"))
        assert code == 1
        assert "duplicate" in err

    def test_every_spec_is_checked_before_the_write(self, capsys, tmp_path, monkeypatch):
        import benq.cli as cli_mod
        writes = []
        monkeypatch.setattr(cli_mod, "write_container", lambda *args: writes.append(args))
        for bad in ("nospec", "w=wat(1,8)", "w=gaussian(1)", "v=gaussian(1,8)"):
            code, _, _ = run(capsys, "synth", "--tensor", "v=gaussian(1,8)", "--tensor", bad,
                             "--out", str(tmp_path / "t.st"))
            assert code == 1, bad
        assert writes == []


class TestAnalyze:
    def test_report_schema(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        code, out, err = run(capsys, "analyze", str(p))
        assert code == 0
        rep = json.loads(out)
        assert rep["source"] == "model.safetensors"
        names = {r["name"] for r in rep["per_tensor"]}
        assert "layers.0.mlp.up_proj.weight" in names
        for r in rep["per_tensor"]:
            assert len(r["counts"]) == 9
            assert sum(r["counts"]) + r["zeros_skipped"] == r["numel"]
            assert r["mad"] is None or 0.0 <= r["mad"] <= 1.0
        fams = {f["family"]: f for f in rep["per_family"]}
        assert fams["mlp_linear"]["n_tensors"] == 1
        assert fams["attention_linear"]["n_tensors"] == 1
        assert fams["norm"]["n_tensors"] == 1
        # stdout carries the report, so the manifest lands on stderr
        assert '"command": "analyze"' in err

    def test_out_file_and_csv(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        rep_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, out, _ = run(capsys, "analyze", str(p), "--out", str(rep_path),
                           "--csv", str(csv_path))
        assert code == 0
        assert out == ""
        rep = json.loads(rep_path.read_text())
        rows = list(csv.DictReader(stdio.StringIO(csv_path.read_text())))
        assert len(rows) == len(rep["per_tensor"])
        by_name = {r["name"]: r for r in rep["per_tensor"]}
        for row in rows:
            r = by_name[row["name"]]
            assert int(row["numel"]) == r["numel"]
            mad = None if row["mad"] == "" else float(row["mad"])
            assert mad == r["mad"]
        assert (tmp_path / "report.json.manifest.json").exists()


class TestQuantizePipeline:
    def test_policy_split_and_round_trip(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        out = tmp_path / "model.benq"
        code, _, err = run(capsys, "quantize", str(p), "--bits", "4",
                           "--group-size", "8", "--out", str(out))
        assert code == 0
        assert "quantize pass" in err
        _, _, entries = load_benq(out)
        assert isinstance(entries["layers.0.mlp.up_proj.weight"][1], QuantizedTensor)
        assert isinstance(entries["layers.0.self_attn.q_proj.weight"][1], QuantizedTensor)
        _, norm = entries["layers.0.input_layernorm.weight"]
        assert not isinstance(norm, QuantizedTensor)
        _, src = load_container(p)["layers.0.input_layernorm.weight"]
        assert np.array_equal(norm, src)

    def test_no_policy_quantizes_everything(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        out = tmp_path / "all.benq"
        code, _, _ = run(capsys, "quantize", str(p), "--no-policy",
                         "--out", str(out))
        assert code == 0
        _, _, entries = load_benq(out)
        assert all(isinstance(t, QuantizedTensor) for _, t in entries.values())

    def test_default_output_name(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        code, _, _ = run(capsys, "quantize", str(p))
        assert code == 0
        assert (tmp_path / "model.benq").exists()
        assert (tmp_path / "model.benq.manifest.json").exists()

    def test_policy_file_override(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"quantize_families": ["norm"]}))
        out = tmp_path / "odd.benq"
        code, _, _ = run(capsys, "quantize", str(p), "--policy", str(pol),
                         "--out", str(out))
        assert code == 0
        _, _, entries = load_benq(out)
        assert isinstance(entries["layers.0.input_layernorm.weight"][1], QuantizedTensor)
        assert not isinstance(entries["layers.0.mlp.up_proj.weight"][1], QuantizedTensor)

    def test_dequantize_round_trip(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        benq_path = tmp_path / "model.benq"
        assert main(["quantize", str(p), "--out", str(benq_path)]) == 0
        deq_path = tmp_path / "restored.safetensors"
        assert main(["dequantize", str(benq_path), "--out", str(deq_path)]) == 0
        capsys.readouterr()
        _, _, entries = load_benq(benq_path)
        restored = load_container(deq_path)
        assert set(restored) == set(entries)
        for name, (_, t) in entries.items():
            expect = dequantize(t) if isinstance(t, QuantizedTensor) else t
            assert np.array_equal(restored[name][1], expect), name

    def test_dequantize_default_output_name(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        assert main(["quantize", str(p)]) == 0
        assert main(["dequantize", str(tmp_path / "model.benq")]) == 0
        capsys.readouterr()
        assert (tmp_path / "model.dequant.safetensors").exists()


class TestCompare:
    def test_rows_and_csv_round_trip(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        csv_path = tmp_path / "cmp.csv"
        code, out, _ = run(capsys, "compare", str(p), "--bits", "4",
                           "--csv", str(csv_path))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["rows"]) == 3 * 3  # three tensors, three schedules
        assert [r["schedule"] for r in obj["rows"][:3]] == \
            ["log", "linear", "rtn"]
        rows = list(csv.DictReader(stdio.StringIO(csv_path.read_text())))
        assert len(rows) == len(obj["rows"])
        # repr round-trips floats exactly
        for csv_row, json_row in zip(rows, obj["rows"]):
            assert float(csv_row["mse"]) == json_row["mse"]
            assert int(csv_row["bits"]) == 4

    def test_schedule_subset(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        code, out, _ = run(capsys, "compare", str(p), "--schedules", "log")
        assert code == 0
        assert {r["schedule"] for r in json.loads(out)["rows"]} == {"log"}

    def test_empty_schedules_rejected(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        code, _, err = run(capsys, "compare", str(p), "--schedules", " , ")
        assert code == 1
        assert "at least one schedule" in err


class TestManifest:
    def test_contents_and_determinism(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        manifests = []
        for out_name in ("a.benq", "b.benq"):
            out = tmp_path / out_name
            argv = ["quantize", str(p), "--bits", "3", "--out", str(out)]
            assert main(argv) == 0
            man = json.loads((tmp_path / (out_name + ".manifest.json"))
                             .read_text())
            assert man["command"] == "quantize"
            assert man["argv"] == argv
            assert man["config"]["bits"] == 3
            assert str(p) in man["inputs"]
            assert len(man["inputs"][str(p)]) == 64
            assert set(man["timings"]) == {"read", "quantize", "write", "total"}
            del man["timings"]
            man["argv"].remove(str(out))
            manifests.append(man)
        capsys.readouterr()
        assert manifests[0] == manifests[1]

    def test_input_digests_are_the_files_sha256(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps({"quantize_families": ["mlp_linear"]}))
        b = tmp_path / "m.benq"
        runs = {"m.benq": ["quantize", str(p), "--policy", str(pol), "--out", str(b)],
                "r.st": ["dequantize", str(b), "--out", str(tmp_path / "r.st")],
                "c.json": ["compare", str(p), "--out", str(tmp_path / "c.json")],
                "a.json": ["analyze", str(p), "--policy", str(pol),
                           "--out", str(tmp_path / "a.json")]}
        for out, argv in runs.items():
            assert main(argv) == 0
            inputs = [p, pol] if "--policy" in argv else [b if out == "r.st" else p]
            man = json.loads((tmp_path / (out + ".manifest.json")).read_text())
            assert man["inputs"] == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
                                     for f in inputs}
        capsys.readouterr()

    def test_synth_manifest_records_specs(self, capsys, tmp_path):
        p = tmp_path / "t.st"
        assert main(["synth", "--tensor", "w=gaussian(1,8)",
                     "--out", str(p)]) == 0
        capsys.readouterr()
        man = json.loads((tmp_path / "t.st.manifest.json").read_text())
        assert man["config"]["tensors"] == {"w": "gaussian(1,8)"}
        assert man["seed"] == 0

    def test_seed_only_where_it_is_read(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        b = tmp_path / "m.benq"
        assert main(["quantize", str(p), "--out", str(b)]) == 0
        assert main(["dequantize", str(b), "--out", str(tmp_path / "r.st")]) == 0
        assert main(["compare", str(p), "--out", str(tmp_path / "c.json")]) == 0
        assert main(["analyze", str(p), "--out", str(tmp_path / "a.json")]) == 0
        assert main(["synth", "--tensor", "w=gaussian(1,8)", "--seed", "3",
                     "--out", str(tmp_path / "s.st")]) == 0
        capsys.readouterr()
        seeds = {out: json.loads((tmp_path / (out + ".manifest.json")).read_text())["seed"]
                 for out in ("m.benq", "r.st", "c.json", "a.json", "s.st")}
        assert seeds == {"m.benq": None, "r.st": None, "c.json": None, "a.json": None,
                         "s.st": 3}
        for argv in (["analyze", str(p)], ["quantize", str(p)], ["dequantize", str(b)],
                     ["compare", str(p)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "1"])
            assert exc.value.code == 2


class TestExitCodes:
    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.st"))
        assert code == 1
        assert err.startswith("error:")

    def test_bad_bits(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        code, _, err = run(capsys, "quantize", str(p), "--bits", "1")
        assert code == 1
        assert "bits" in err

    def test_bad_spec(self, capsys, tmp_path):
        code, _, err = run(capsys, "synth", "--tensor", "w=wat(1,8)",
                           "--out", str(tmp_path / "t.st"))
        assert code == 1
        assert "unknown distribution" in err

    def test_non_finite_spec(self, capsys, tmp_path):
        out = tmp_path / "t.st"
        code, _, err = run(capsys, "synth", "--tensor", "w=gaussian(nan,8)", "--out", str(out))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["lognormal(0,30,1000)", "constant(1e39,4)"])
    def test_spec_beyond_float32(self, tmp_path, spec):
        # finite parameters whose float32 values overflow; a process of its own,
        # so that a raw numpy warning from any thread would reach stderr
        out = tmp_path / "t.st"
        done = run_process("synth", "--tensor", f"layers.0.mlp.up_proj.weight={spec}",
                           "--out", str(out))
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
        assert "layers.0.mlp.up_proj.weight" in lines[0] and "float32" in lines[0]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["analyze", "quantize"])
    @pytest.mark.parametrize("policy", [
        5, {"family_patterns": 5}, {"family_patterns": [["foo", ["x"]]]},
        {"quantize_patterns": "norm"}, {"quantize_families": "norm"}],
        ids=["int", "patterns-int", "unknown-family", "old-field", "bare-families"])
    def test_bad_policy_file(self, capsys, tmp_path, command, policy):
        p = make_model(capsys, tmp_path)
        pol = tmp_path / "policy.json"
        pol.write_text(json.dumps(policy))
        code, _, err = run(capsys, command, str(p), "--policy", str(pol),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {pol}: ")

    @pytest.mark.parametrize("config", [5, {"group_size": "a"}, {"group_size": True}],
                             ids=["int", "group-string", "group-bool"])
    def test_hostile_benq_config(self, capsys, tmp_path, config):
        p = make_model(capsys, tmp_path)
        q = tmp_path / "m.benq"
        assert run(capsys, "quantize", str(p), "--out", str(q))[0] == 0
        blob = q.read_bytes()
        hlen = int.from_bytes(blob[4:12], "little")
        header = json.loads(blob[12:12 + hlen])
        header["config"] = {**header["config"], **config} if isinstance(config, dict) else config
        raw = json.dumps(header).encode()
        raw += b" " * (-(4 + 8 + len(raw)) % 8)
        q.write_bytes(blob[:4] + len(raw).to_bytes(8, "little") + raw + blob[12 + hlen:])
        code, _, err = run(capsys, "dequantize", str(q), "--out", str(tmp_path / "d.st"))
        assert code == 1
        assert err.startswith("error: ") and "config" in err
        assert not (tmp_path / "d.st").exists()

    def test_usage_errors_exit_two(self, capsys, tmp_path):
        # levels has no groups and synth no threads, so neither takes those options
        for argv in (["frobnicate"], ["synth"], [], ["levels", "--group-size", "8"],
                     ["synth", "--tensor", "w=gaussian(1,8)", "--threads", "2",
                      "--out", str(tmp_path / "s.st")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert os.listdir(tmp_path) == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("benq ")


def truncated_model(capsys, tmp_path):
    """A safetensors file whose last tensor's bytes are cut off."""
    p = make_model(capsys, tmp_path)
    p.write_bytes(p.read_bytes()[:-16])
    return p


def flipped_benq(capsys, tmp_path):
    """A .benq with one payload byte flipped, so its content digest does not match."""
    q = tmp_path / "m.benq"
    assert run(capsys, "quantize", str(make_model(capsys, tmp_path)), "--out", str(q))[0] == 0
    blob = bytearray(q.read_bytes())
    blob[-1] ^= 0xFF
    q.write_bytes(bytes(blob))
    return q


class TestDigestThread:
    """The input digest runs on a thread of its own; it never outlives `main`."""

    @pytest.mark.parametrize("command", ["analyze", "quantize", "dequantize", "compare"])
    def test_success_leaves_no_thread(self, capsys, tmp_path, command):
        p = make_model(capsys, tmp_path)
        if command == "dequantize":
            assert run(capsys, "quantize", str(p), "--out", str(tmp_path / "m.benq"))[0] == 0
            p = tmp_path / "m.benq"
        before = threading.active_count()
        code, _, err = run(capsys, command, str(p), "--threads", "2",
                           "--out", str(tmp_path / "out"))
        assert code == 0, err
        assert threading.active_count() == before

    @pytest.mark.parametrize("command", ["analyze", "quantize", "dequantize", "compare"])
    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_bad_input_exits_one_with_one_error_line(self, capsys, tmp_path, command, damage):
        if damage == "missing":
            p = tmp_path / "nope"
        else:
            p = (flipped_benq if command == "dequantize" else truncated_model)(capsys, tmp_path)
        before = threading.active_count()
        code, _, err = run(capsys, command, str(p), "--threads", "2",
                           "--out", str(tmp_path / "out"))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "Exception in thread" not in err
        assert threading.active_count() == before

    def test_digest_error_surfaces_when_the_manifest_is_written(self, capsys, tmp_path,
                                                                 monkeypatch):
        import benq.cli as cli_mod

        def unreadable(path, stopped):
            raise OSError(f"{path}: unreadable")

        monkeypatch.setattr(cli_mod, "_sha256", unreadable)
        p = make_model(capsys, tmp_path)
        before = threading.active_count()
        code, _, err = run(capsys, "analyze", str(p), "--out", str(tmp_path / "a.json"))
        assert code == 1
        assert err == f"error: {p}: unreadable\n"
        assert (tmp_path / "a.json").exists() and not (tmp_path / "a.json.manifest.json").exists()
        assert threading.active_count() == before


def run_process(*argv):
    """benq in a process of its own, so that a traceback would reach stderr."""
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-m", "benq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


DEEP = b"[" * 200_000 + b"]" * 200_000


def resigned_non_object_entry(capsys, tmp_path):
    """A .benq whose directory is [5], with its content digest re-signed."""
    q = tmp_path / "m.benq"
    assert run(capsys, "quantize", str(make_model(capsys, tmp_path)), "--out", str(q))[0] == 0
    blob = q.read_bytes()
    hlen = int.from_bytes(blob[4:12], "little")
    header = json.loads(blob[12:12 + hlen])
    header["tensors"] = [5]
    header["content_digest"] = content_digest(QuantConfig.from_dict(header["config"]),
                                              [5], blob[12 + hlen:])
    raw = json.dumps(header).encode()
    q.write_bytes(BENQ_MAGIC + len(raw).to_bytes(8, "little") + raw + blob[12 + hlen:])
    return ["dequantize", str(q), "--out", str(tmp_path / "d.st")]


def safetensors_header(header):
    def build(capsys, tmp_path):
        p = tmp_path / "bad.st"
        p.write_bytes(len(header).to_bytes(8, "little") + header + bytes(4))
        return ["analyze", str(p)]
    return build


def policy_file(blob):
    def build(capsys, tmp_path):
        pol = tmp_path / "policy.json"
        pol.write_bytes(blob)
        return ["analyze", str(make_model(capsys, tmp_path)), "--policy", str(pol)]
    return build


class TestHostileFileExits:
    """A hostile header or policy file exits 1 with one `error:` line, never a traceback."""

    @pytest.mark.parametrize("build", [
        resigned_non_object_entry,
        safetensors_header(DEEP),
        safetensors_header(b'{"w":{"dtype":"F32","shape":[' + b"1" * 5000
                           + b'],"data_offsets":[0,4]}}'),
        policy_file(b'{"quantize_families":["norm\xff"]}'),
        policy_file(DEEP),
        policy_file(b'{"quantize_families":["norm"],"quantize_families":["norm"]}'),
    ], ids=["resigned-non-object-entry", "deep-header", "huge-int-header",
            "policy-not-utf8", "policy-deep", "policy-duplicate-key"])
    def test_exit_one(self, capsys, tmp_path, build):
        done = run_process(*build(capsys, tmp_path))
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


class TestThreads:
    def test_env_override_works(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BENQ_THREADS", "2")
        p = make_model(capsys, tmp_path)
        assert main(["analyze", str(p), "--out",
                     str(tmp_path / "r.json")]) == 0
        capsys.readouterr()

    def test_env_garbage_is_an_error(self, capsys, tmp_path, monkeypatch):
        p = make_model(capsys, tmp_path)
        monkeypatch.setenv("BENQ_THREADS", "many")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "BENQ_THREADS" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_env_below_one_is_an_error(self, capsys, tmp_path, monkeypatch, threads):
        p = make_model(capsys, tmp_path)
        monkeypatch.setenv("BENQ_THREADS", threads)
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert err.startswith("error: BENQ_THREADS")

    def test_synth_output_is_independent_of_the_thread_count(self, capsys, tmp_path,
                                                             monkeypatch):
        specs = (f"loguniform(5,{3 * _CHUNK + 7})", f"gaussian(1,{_CHUNK})",
                 f"lognormal(0,1,{2 * _CHUNK - 1})", "constant(2,5)")
        tensors = [a for i, spec in enumerate(specs) for a in ("--tensor", f"w{i}={spec}")]
        outs = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("BENQ_THREADS", threads)
            out = tmp_path / f"s{threads}.st"
            assert main(["synth", "--seed", "5", "--out", str(out), *tensors]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("threads", ["many", "0"])
    def test_synth_env_garbage_is_an_error(self, capsys, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("BENQ_THREADS", threads)
        code, _, err = run(capsys, "synth", "--tensor", "w=gaussian(1,8)",
                           "--out", str(tmp_path / "s.st"))
        assert code == 1
        assert err == ("error: BENQ_THREADS: expected an integer of at least 1, "
                       f"got {threads!r}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_flag_below_one_is_a_usage_error(self, capsys, tmp_path, threads):
        for command in ("analyze", "quantize", "dequantize", "compare"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(tmp_path / "m"), "--threads", threads])
            assert exc.value.code == 2
            assert "--threads" in capsys.readouterr().err

    def test_explicit_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        p = make_model(capsys, tmp_path)
        monkeypatch.setenv("BENQ_THREADS", "many")
        code, _, _ = run(capsys, "analyze", str(p), "--threads", "1")
        assert code == 0

    def test_threaded_quantize_matches_serial(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        outs = []
        for threads, name in ((1, "serial.benq"), (4, "pool.benq")):
            out = tmp_path / name
            assert main(["quantize", str(p), "--threads", str(threads),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_threaded_dequantize_matches_serial(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        q = tmp_path / "m.benq"
        assert main(["quantize", str(p), "--no-policy", "--out", str(q)]) == 0
        outs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"d{threads}.safetensors"
            assert main(["dequantize", str(q), "--threads", str(threads),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    def test_threaded_analyze_and_quantize_match_serial_across_tensors(self, capsys, tmp_path):
        # three tensors of about 2.5 blocks, so the thread map's window spans tensor ends
        n = 2 * _BLOCK_ELEMS + _BLOCK_ELEMS // 2 + 3
        p = tmp_path / "three.safetensors"
        assert main(["synth", *[a for i in range(3) for a in
                                ("--tensor", f"layers.{i}.mlp.up_proj.weight=loguniform(5,{n})")],
                     "--tensor", "layers.0.input_layernorm.weight=lognormal(0,0.05,64)",
                     "--out", str(p)]) == 0
        outs = []
        for threads in ("1", "2", "4"):
            report, table, benq = (tmp_path / f"{name}{threads}"
                                   for name in ("a.json", "a.csv", "q.benq"))
            assert main(["analyze", str(p), "--threads", threads, "--out", str(report),
                         "--csv", str(table)]) == 0
            assert main(["quantize", str(p), "--threads", threads, "--out", str(benq)]) == 0
            outs.append([f.read_bytes() for f in (report, table, benq)])
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]
        assert len(json.loads(outs[0][0])["per_tensor"]) == 4

    def test_threaded_compare_matches_serial(self, capsys, tmp_path):
        # three group-aligned blocks at G=8, the last one ending in a 3-element group
        n = 2 * _BLOCK_ELEMS + 8 * 5 + 3
        p = tmp_path / "big.safetensors"
        assert main(["synth", "--tensor", f"layers.0.mlp.up_proj.weight=loguniform(5,{n})",
                     "--tensor", "layers.0.input_layernorm.weight=lognormal(0,0.05,64)",
                     "--out", str(p)]) == 0
        outs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"cmp{threads}.json"
            assert main(["compare", str(p), "--group-size", "8", "--threads", str(threads),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]
        assert len(json.loads(outs[0])["rows"]) == 2 * 3

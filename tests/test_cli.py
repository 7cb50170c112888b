"""In-process exercises of the benq command line."""

import csv
import io as stdio
import json

import numpy as np
import pytest

from benq.cli import main
from benq.io import read_benq, read_container
from benq.quantizer import _BLOCK_ELEMS, QuantizedTensor, dequantize


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

    def test_rtn_has_no_codebook(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["levels", "--schedule", "rtn"])
        assert exc.value.code == 2


class TestSynth:
    def test_writes_requested_tensors(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        got = read_container(str(p))
        assert set(got) == {"layers.0.mlp.up_proj.weight",
                            "layers.0.self_attn.q_proj.weight",
                            "layers.0.input_layernorm.weight"}
        assert got["layers.0.mlp.up_proj.weight"].data.size == 600

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
        assert not np.array_equal(read_container(str(p0))["w"].data,
                                  read_container(str(p1))["w"].data)

    def test_same_spec_different_names_differ(self, capsys, tmp_path):
        p = tmp_path / "t.st"
        code, _, _ = run(capsys, "synth", "--tensor", "a=gaussian(1,64)",
                         "--tensor", "b=gaussian(1,64)", "--out", str(p))
        assert code == 0
        got = read_container(str(p))
        assert not np.array_equal(got["a"].data, got["b"].data)

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
        mq = read_benq(str(out))
        assert isinstance(mq.entries["layers.0.mlp.up_proj.weight"],
                          QuantizedTensor)
        assert isinstance(mq.entries["layers.0.self_attn.q_proj.weight"],
                          QuantizedTensor)
        norm = mq.entries["layers.0.input_layernorm.weight"]
        assert not isinstance(norm, QuantizedTensor)
        src = read_container(str(p))["layers.0.input_layernorm.weight"]
        assert np.array_equal(norm.data, src.data)

    def test_no_policy_quantizes_everything(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        out = tmp_path / "all.benq"
        code, _, _ = run(capsys, "quantize", str(p), "--no-policy",
                         "--out", str(out))
        assert code == 0
        mq = read_benq(str(out))
        assert all(isinstance(t, QuantizedTensor) for t in mq.entries.values())

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
        mq = read_benq(str(out))
        assert isinstance(mq.entries["layers.0.input_layernorm.weight"],
                          QuantizedTensor)
        assert not isinstance(mq.entries["layers.0.mlp.up_proj.weight"],
                              QuantizedTensor)

    def test_dequantize_round_trip(self, capsys, tmp_path):
        p = make_model(capsys, tmp_path)
        benq_path = tmp_path / "model.benq"
        assert main(["quantize", str(p), "--out", str(benq_path)]) == 0
        deq_path = tmp_path / "restored.safetensors"
        assert main(["dequantize", str(benq_path), "--out", str(deq_path)]) == 0
        capsys.readouterr()
        mq = read_benq(str(benq_path))
        restored = read_container(str(deq_path))
        assert set(restored) == set(mq.entries)
        for name, t in mq.entries.items():
            expect = dequantize(t) if isinstance(t, QuantizedTensor) else t.data
            assert np.array_equal(restored[name].data, expect), name

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
        assert main(["analyze", str(p), "--seed", "3", "--out", str(tmp_path / "a.json")]) == 0
        capsys.readouterr()
        seeds = {out: json.loads((tmp_path / (out + ".manifest.json")).read_text())["seed"]
                 for out in ("m.benq", "r.st", "c.json", "a.json")}
        assert seeds == {"m.benq": None, "r.st": None, "c.json": None, "a.json": 3}
        for argv in (["quantize", str(p)], ["dequantize", str(b)], ["compare", str(p)]):
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

    def test_usage_errors_exit_two(self, capsys):
        for argv in (["frobnicate"], ["synth"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("benq ")


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

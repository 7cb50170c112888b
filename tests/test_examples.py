"""The README's library example and the scripts under scripts/ run as documented,
and the benchmark's tracer finds every function it wraps."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

from benq.quantizer import DEFAULT_POLICY, QuantPolicy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    path = filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def readme_block(lang):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme[readme.index("## Library"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_block(capsys):
    code = readme_block("python")
    exec(compile(code, "README.md", "exec"), {})
    mad, max_err = map(float, capsys.readouterr().out.split())
    assert 0 <= mad < 1 and max_err > 0


def test_readme_policy_is_the_default():
    assert QuantPolicy.from_dict(json.loads(readme_block("json"))) == DEFAULT_POLICY


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "toy.safetensors"
    done = run_script("make_toy_model.py", "--out", str(path), "--hidden", "16", "--layers", "1")
    assert done.returncode == 0, done.stderr
    assert "wrote" in done.stdout
    return path


@pytest.mark.parametrize("script", ["run_dichotomy.py", "run_schedule_ablation.py"])
def test_script_runs_on_toy_model(toy, script):
    done = run_script(script, str(toy))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_perfbench_tracer_targets_resolve():
    # perfbench/tracing.py wraps these by module attribute; one gone would
    # break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert tracing.TARGETS
    for module, attr, key, rate in tracing.TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} ({key})"
        if rate is not None:
            params = list(inspect.signature(fn).parameters.values())
            assert rate[1] < len(params) and params[rate[1]].kind in positional, \
                f"{module}.{attr} has no positional parameter {rate[1]}"

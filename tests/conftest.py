"""Shared fixtures, whole-set helpers and a terminal summary for the acceptance criteria.

Acceptance tests carry @pytest.mark.criterion("Cxx", "description"); after
the run a one-line PASS/FAIL/SKIP verdict is printed per criterion.

benq's readers and writers stream a tensor at a time; the helpers below
hold a whole small tensor set in a dict, which is what most tests want.
"""

import numpy as np
import pytest

from benq.io import _spec, read_benq, read_container, write_benq, write_container
from benq.quantizer import apply_policy


def load_container(path):
    """{name: WeightTensor} of a safetensors file."""
    with read_container(str(path)) as (_, tensors):
        return dict(tensors)


def save_container(path, tensors):
    """Write {name: array or WeightTensor} as an F32 safetensors file."""
    write_container(str(path), [_spec(n, t) for n, t in tensors.items()], tensors.values())


def quantize_model(tensors, policy, config, threads=1):
    """{name: QuantizedTensor or the tensor itself} of apply_policy over a dict."""
    return dict(zip(tensors, apply_policy(tensors.items(), policy, config, threads)))


def save_benq(path, tensors, policy, config):
    """Quantize {name: tensor} as quantize_model does, write it as a .benq file
    and return the entries."""
    entries = quantize_model(tensors, policy, config)
    write_benq(str(path), config, policy, [_spec(n, t) for n, t in entries.items()],
               entries.values())
    return entries


def load_benq(path):
    """(config, policy, {name: QuantizedTensor or WeightTensor}) of a .benq file."""
    with read_benq(str(path)) as (config, policy, _, entries):
        return config, policy, dict(entries)


_verdicts: dict[str, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(tag, description): acceptance criterion metadata")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    tag, description = marker.args
    if rep.when == "call":
        verdict = "SKIP" if rep.skipped else ("PASS" if rep.passed else "FAIL")
        _verdicts[tag] = (verdict, description)
    elif rep.when == "setup" and rep.skipped:
        _verdicts[tag] = ("SKIP", description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    tr = terminalreporter
    tr.write_sep("-", "acceptance criteria")
    for tag in sorted(_verdicts):
        verdict, description = _verdicts[tag]
        dots = "." * max(2, 58 - len(tag) - len(description))
        tr.write_line(f"[{tag}] {description} {dots} {verdict}")


@pytest.fixture
def rng_np():
    return np.random.default_rng(1234)

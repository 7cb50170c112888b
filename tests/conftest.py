"""Shared fixtures, whole-set helpers and a terminal summary for the acceptance criteria.

Acceptance tests carry @pytest.mark.criterion("Cxx", "description"); after
the run a one-line PASS/FAIL/SKIP verdict is printed per criterion.

benq's readers and writers stream a block at a time; the helpers below
hold a whole small tensor set in a dict, which is what most tests want.
"""

import numpy as np
import pytest

from benq.io import (TensorSpec, WeightTensor, read_benq, read_container, write_benq,
                     write_container)
from benq.quantizer import QuantizedTensor, apply_policy


def spec_of(name, t):
    """The TensorSpec of an in-memory tensor: a QuantizedTensor, a WeightTensor or an array."""
    if isinstance(t, QuantizedTensor):
        return TensorSpec(name, t.shape, None)
    return TensorSpec(name, np.shape(getattr(t, "data", t)), getattr(t, "source_dtype", "F32"))


def stream(tensors):
    """(spec, blocks) pairs of {name: array or WeightTensor}, each tensor a single block."""
    return [(spec_of(n, t), iter([t])) for n, t in tensors.items()]


def joined(blocks, dtype=np.float32):
    """The flat blocks of a streamed tensor as one array."""
    return np.concatenate([np.empty(0, dtype), *blocks])


def load_container(path):
    """{name: WeightTensor} of a safetensors file."""
    with read_container(str(path)) as (_, tensors):
        return {s.name: WeightTensor(s.name, joined(blocks).reshape(s.shape), s.dtype)
                for s, blocks in tensors}


def save_container(path, tensors):
    """Write {name: array or WeightTensor} as an F32 safetensors file."""
    write_container(str(path), [spec_of(n, t) for n, t in tensors.items()], tensors.values())


def quantize_model(tensors, policy, config, threads=1):
    """{name: QuantizedTensor or the tensor itself} of apply_policy over a dict."""
    outputs = apply_policy(stream(tensors), policy, config, threads)
    return {name: next(blocks) for name, blocks in zip(tensors, outputs)}


def save_benq(path, tensors, policy, config):
    """Quantize {name: tensor} as quantize_model does, write it as a .benq file
    and return the entries."""
    entries = quantize_model(tensors, policy, config)
    write_benq(str(path), config, policy, [spec_of(n, t) for n, t in entries.items()],
               entries.values())
    return entries


def load_benq(path):
    """(config, policy, {name: QuantizedTensor or WeightTensor}) of a .benq file."""
    with read_benq(str(path)) as (config, policy, _, entries):
        out = {}
        for s, blocks in entries:
            if s.dtype is None:
                parts = list(blocks)
                out[s.name] = QuantizedTensor(s.name, s.shape,
                                              joined((q.indices for q in parts), np.ubyte),
                                              joined((q.scales for q in parts), np.float16),
                                              config)
            else:
                out[s.name] = WeightTensor(s.name, joined(blocks).reshape(s.shape), s.dtype)
        return config, policy, out


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

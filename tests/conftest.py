"""Shared fixtures, whole-set helpers and a terminal summary for the acceptance criteria.

Acceptance tests carry @pytest.mark.criterion("Cxx", "description"); after
the run a one-line PASS/FAIL/SKIP verdict is printed per criterion.

benq's readers and writers stream a block at a time; the helpers below
hold a whole small tensor set in memory, which is what most tests want.  A
tensor set is {name: (TensorSpec, whole tensor)}, the whole-tensor form of
the (spec, blocks) pairs benq streams: the tensor is an array, or a
QuantizedTensor where the spec's dtype is None.
"""

import numpy as np
import pytest

from benq.io import TensorSpec, read_benq, read_container, write_benq, write_container
from benq.quantizer import QuantizedTensor, apply_policy


def tensor_set(arrays, dtype="F32"):
    """The tensor set of {name: array}, every tensor stored as `dtype`."""
    return {name: (TensorSpec(name, np.shape(a), dtype), a) for name, a in arrays.items()}


def stream(tensors):
    """(spec, blocks) pairs of a tensor set, each tensor a single block."""
    return [(spec, iter([t])) for spec, t in tensors.values()]


def joined(blocks, dtype=np.float32):
    """The flat blocks of a streamed tensor as one array."""
    return np.concatenate([np.empty(0, dtype), *blocks])


def load_container(path):
    """The tensor set of a safetensors file."""
    with read_container(str(path)) as (_, tensors):
        return {s.name: (s, joined(blocks).reshape(s.shape)) for s, blocks in tensors}


def save_container(path, tensors):
    """Write a tensor set as an F32 safetensors file."""
    write_container(str(path), [s for s, _ in tensors.values()],
                    (blocks for _, blocks in stream(tensors)))


def quantize_model(tensors, policy, config, threads=1):
    """The tensor set of apply_policy over a tensor set: each tensor the policy
    selects as its QuantizedTensor, the others unchanged."""
    outputs = apply_policy(stream(tensors), policy, config, threads)
    out = {}
    for (spec, _), blocks in zip(tensors.values(), outputs):
        t = next(blocks)
        out[spec.name] = (spec._replace(dtype=None) if isinstance(t, QuantizedTensor) else spec, t)
    return out


def save_benq(path, tensors, policy, config):
    """Quantize a tensor set as quantize_model does, write it as a .benq file
    and return the quantized set."""
    entries = quantize_model(tensors, policy, config)
    write_benq(str(path), config, policy, [s for s, _ in entries.values()],
               (blocks for _, blocks in stream(entries)))
    return entries


def load_benq(path):
    """(config, policy, tensor set) of a .benq file."""
    with read_benq(str(path)) as (config, policy, _, entries):
        out = {}
        for s, blocks in entries:
            if s.dtype is None:
                parts = list(blocks)
                t = QuantizedTensor(s.name, s.shape, joined((q.indices for q in parts), np.ubyte),
                                    joined((q.scales for q in parts), np.float16), config)
            else:
                t = joined(blocks).reshape(s.shape)
            out[s.name] = (s, t)
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

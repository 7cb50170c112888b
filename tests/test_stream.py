"""Streaming: the bounded thread map, block-at-a-time commands and their memory bound."""

import importlib
import importlib.util
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from benq import _pool
from benq._pool import _QUEUED, _map
from benq.cli import main
from benq.errors import DataError, FormatError
from benq.io import (BENQ_MAGIC, TensorSpec, pack_indices, read_benq, read_container,
                     write_container)
from benq.levels import Schedule
from benq.quantizer import QuantConfig, dequantize, quantize_tensor
from benq.synth import _CHUNK, synth_tensor
from conftest import content_digest, load_container, save_container, tensor_set

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


class Counting:
    """0, 1, ... n-1, counting the items pulled and the most pulled ahead of the consumer."""

    def __init__(self, n):
        self.n = n
        self.pulled = 0
        self.taken = 0  # results the consumer has received
        self.most_ahead = 0
        self.lock = threading.Lock()

    def __iter__(self):
        for i in range(self.n):
            with self.lock:
                self.pulled += 1
                self.most_ahead = max(self.most_ahead, self.pulled - self.taken)
            yield i


def jittered_square(x):
    time.sleep(0.001 * ((x * 7) % 3))  # later items often finish first
    return x * x


def window(threads):
    """Items _map keeps in flight: one for plain map, else threads + _QUEUED."""
    return 1 if threads == 1 else threads + _QUEUED


class TestBoundedMap:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_results_keep_item_order(self, threads):
        assert list(_map(jittered_square, range(40), threads)) == [x * x for x in range(40)]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_never_pulls_more_than_threads_ahead(self, threads):
        """Exactly the window for `threads` is pulled ahead of the results taken."""
        items = Counting(30)
        for k, result in enumerate(_map(jittered_square, items, threads)):
            assert result == k * k
            assert items.pulled == min(k + window(threads), 30)
            with items.lock:
                items.taken += 1
        assert items.pulled == 30
        assert items.most_ahead == window(threads)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_lazy_until_consumed(self, threads):
        items = Counting(10)
        results = _map(jittered_square, items, threads)
        assert items.pulled == 0
        assert next(iter(results)) == 0
        assert items.pulled == window(threads)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("k", [0, 5])
    def test_exception_propagates_without_pulling_far(self, threads, k):
        items = Counting(50)
        calls = []

        def fn(x):
            calls.append(x)
            if x == k:
                raise ValueError(f"item {x}")
            return jittered_square(x)

        got = []
        with pytest.raises(ValueError, match=f"item {k}"):
            for result in _map(fn, items, threads):
                got.append(result)
        assert got == [x * x for x in range(k)]
        assert items.pulled == k + window(threads)
        assert len(calls) <= k + window(threads)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_closing_early_never_computes_queued_items(self, threads):
        """Closed after one result, the map computes only the items already running."""
        started = [threading.Event() for _ in range(threads)]
        release = threading.Event()
        calls = []

        def fn(x):
            calls.append(x)
            if 1 <= x <= threads:  # hold every worker until the map is closed
                started[x - 1].set()
                assert release.wait(10)
            return x

        results = _map(fn, range(50), threads)
        assert next(results) == 0
        assert all(e.wait(10) for e in started)  # items 1..threads run, the rest are queued
        timer = threading.Timer(0.3, release.set)
        timer.start()
        try:
            results.close()  # cancels the queued items, then waits for the running ones
        finally:
            timer.join(10)
        assert sorted(calls) == list(range(threads + 1))


class TestSharedPool:
    """Maps on one thread count share one pool of workers for the whole process."""

    THREADS = 3

    def test_successive_maps_start_no_threads(self):
        barrier = threading.Barrier(self.THREADS)

        def meet(x):  # every worker of the pool runs at once, so all of them exist
            barrier.wait(10)
            return x

        assert list(_map(meet, range(self.THREADS), self.THREADS)) == list(range(self.THREADS))
        before = threading.active_count()
        names = set()

        def square(x):
            names.add(threading.current_thread().name)
            return x * x

        for _ in range(100):
            assert list(_map(square, range(8), self.THREADS)) == [x * x for x in range(8)]
            assert threading.active_count() == before
        assert len(names) <= self.THREADS, names

    def test_interleaved_maps_keep_their_own_results(self):
        a = _map(jittered_square, range(30), self.THREADS)
        b = _map(lambda x: -x, range(30), self.THREADS)
        assert [(next(a), next(b)) for _ in range(30)] == [(x * x, -x) for x in range(30)]
        for rest in (a, b):
            with pytest.raises(StopIteration):
                next(rest)

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        """Eight callers at once, with a short switch interval: one pool of a thread
        count no other test uses, and every synthetic tensor keeps its bytes."""
        threads, spec = 7, "lognormal(0,1,300000)"
        monkeypatch.setenv("BENQ_THREADS", "1")
        want = synth_tensor(spec, 5).tobytes()
        monkeypatch.setenv("BENQ_THREADS", "2")
        workers, failures = set(), []

        def caller(k):
            try:
                got = list(_map(lambda x: (threading.get_ident(), x + k), range(40), threads))
                workers.update(ident for ident, _ in got)
                assert [x for _, x in got] == [x + k for x in range(40)]
                assert synth_tensor(spec, 5).tobytes() == want
            except BaseException as e:
                failures.append(e)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []
        assert len(workers) <= threads, len(workers)

    def test_synth_uses_one_pool_whatever_the_chunk_count(self, monkeypatch):
        monkeypatch.setenv("BENQ_THREADS", "5")
        monkeypatch.setattr(_pool, "_POOLS", {})
        try:
            for chunks in (1, 2, 3, 4, 6):
                synth_tensor(f"gaussian(1,{chunks * _CHUNK})", 1)
            assert list(_pool._POOLS) == [5]
        finally:
            for pool in _pool._POOLS.values():
                pool.shutdown()

    def test_closing_one_map_cancels_none_of_the_others_items(self):
        a = _map(jittered_square, range(50), self.THREADS)
        b = _map(jittered_square, range(100, 150), self.THREADS)
        assert next(a) == 0
        assert next(b) == 100 * 100  # b's next items are queued behind a's on the pool
        a.close()
        assert list(b) == [x * x for x in range(101, 150)]


def test_tracer_targets_resolve():
    """Every (module, attribute) perfbench's tracer wraps still exists."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


N = 1 << 21  # elements per tensor: well above the 2**18-element blocks' scratch


@pytest.fixture(scope="module")
def eight_tensors(tmp_path_factory):
    """A container of 8 equal float32 tensors, and a .benq of it at --threads 1."""
    d = tmp_path_factory.mktemp("stream")
    p = d / "m.safetensors"
    g = np.random.default_rng(0)
    save_container(p, tensor_set({f"layers.{i}.mlp.up_proj.weight":
                                  g.standard_normal(N, dtype=np.float32) * np.float32(0.02)
                                  for i in range(8)}))
    assert main(["quantize", str(p), "--threads", "1", "--out", str(d / "m.benq")]) == 0
    return d


@pytest.mark.parametrize("command", ["quantize", "dequantize", "analyze", "compare"])
def test_traced_peak_holds_one_tensor_at_a_time(eight_tensors, command, capsys):
    d = eight_tensors
    source = d / ("m.benq" if command == "dequantize" else "m.safetensors")
    tracemalloc.start()
    try:
        code = main([command, str(source), "--threads", "1", "--out", str(d / f"out.{command}")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    # the whole checkpoint is 8 tensors; one in flight plus its outputs and scratch fit in 3
    assert peak < 3 * 4 * N, f"{command}: traced peak {peak / 1e6:.1f} MB"


BIG = (1 << 23) + 17  # elements of one float32 tensor, 33.5 MB: 32 blocks and a short one
MB = 1 << 20


@pytest.fixture(scope="module")
def one_big_tensor(tmp_path_factory):
    """A container of one float32 tensor of BIG elements, and a .benq of it."""
    d = tmp_path_factory.mktemp("big")
    p = d / "m.safetensors"
    g = np.random.default_rng(2)
    save_container(p, tensor_set({"layers.0.mlp.up_proj.weight":
                                  g.standard_normal(BIG, dtype=np.float32) * np.float32(0.02)}))
    assert main(["quantize", str(p), "--threads", "1", "--out", str(d / "m.benq")]) == 0
    return d


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", ["quantize", "dequantize", "analyze", "compare"])
def test_traced_peak_holds_threads_blocks(one_big_tensor, command, threads, capsys):
    """At most `threads + _QUEUED` blocks are in flight, however large the tensor."""
    d = one_big_tensor
    source = d / ("m.benq" if command == "dequantize" else "m.safetensors")
    tracemalloc.start()
    try:
        code = main([command, str(source), "--threads", str(threads),
                     "--out", str(d / f"out.{command}")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    # a block's input, scratch and outputs fit in 8 MB; the tensor itself is 33.5 MB
    assert peak < (threads + 2) * 8 * MB, f"{command}: traced peak {peak / MB:.1f} MB"


SYNTH_N = (1 << 20) + 17  # a 4 MiB float32 tensor: 32 chunks and a short one
SYNTH_SPECS = ["loguniform(5,{n})", "lognormal(0,1,{n})", "gaussian(0.02,{n})",
               "constant(0.35,{n})"]


@pytest.mark.parametrize("spec", SYNTH_SPECS)
def test_synth_tensor_peak_is_its_result_and_one_chunk(spec):
    tracemalloc.start()
    try:
        values = synth_tensor(spec.format(n=SYNTH_N), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.size == SYNTH_N
    assert peak < 4 * SYNTH_N + 4 * MB, f"{spec}: traced peak {peak / MB:.1f} MB"


@pytest.mark.parametrize("spec", SYNTH_SPECS)
def test_synth_command_holds_one_chunk(spec, tmp_path, capsys):
    tracemalloc.start()
    try:
        code = main(["synth", "--tensor", "w=" + spec.format(n=SYNTH_N),
                     "--out", str(tmp_path / "s.safetensors")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 3 * MB, f"{spec}: traced peak {peak / MB:.1f} MB"  # below the tensor's 4 MiB


class TestOddBlockEdges:
    """G=3 makes a block 262143 elements, so at 3 bits a packed byte straddles two blocks."""

    CONFIG = QuantConfig(bits=3, group_size=3, schedule=Schedule.LINEAR)
    STEP = CONFIG.block_elems
    N = 3 * STEP + 3 * 5 + 2  # three blocks, then five groups and a short tail group

    @pytest.fixture(scope="class")
    def tensor(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("odd")
        w = np.random.default_rng(3).standard_normal(self.N, dtype=np.float32)
        save_container(d / "m.safetensors", tensor_set({"layers.0.mlp.up_proj.weight": w}))
        return d, w, quantize_tensor(w, self.CONFIG, "layers.0.mlp.up_proj.weight")

    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_benq_and_dequantize_match_whole_tensor(self, tensor, tmp_path, capsys, threads):
        d, w, qt = tensor
        assert self.STEP == 262143 and self.N % 3 == 2
        benq, restored = tmp_path / "m.benq", tmp_path / "m.dequant.safetensors"
        assert main(["quantize", str(d / "m.safetensors"), "--bits", "3", "--group-size", "3",
                     "--schedule", "linear", "--threads", threads, "--out", str(benq)]) == 0
        assert main(["dequantize", str(benq), "--threads", threads,
                     "--out", str(restored)]) == 0
        capsys.readouterr()
        blob = benq.read_bytes()
        hlen = int.from_bytes(blob[4:12], "little")
        (entry,) = json.loads(blob[12:12 + hlen])["tensors"]
        base = 12 + hlen

        def span(key):
            off, length = entry[key]
            return blob[base + off:base + off + length]

        assert span("indices") == pack_indices(qt.indices, 3)
        assert span("scales") == qt.scales.astype("<f2").tobytes()
        _, got = load_container(restored)["layers.0.mlp.up_proj.weight"]
        assert got.tobytes() == dequantize(qt).tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nan_in_second_block_leaves_no_output(self, tensor, tmp_path, capsys, threads):
        _, w, _ = tensor
        bad = w.copy()
        bad[self.STEP + 1234] = np.nan
        p = tmp_path / "m.safetensors"
        save_container(p, tensor_set({"layers.0.mlp.up_proj.weight": bad}))
        out = tmp_path / "m.benq"
        code = main(["quantize", str(p), "--bits", "3", "--group-size", "3",
                     "--threads", threads, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "non-finite" in err
        assert not out.exists()
        assert debris(tmp_path) == []


def debris(directory):
    return [f for f in os.listdir(directory) if f.startswith(".benq-tmp-")]


def small_model():
    g = np.random.default_rng(1)
    return {f"layers.{i}.mlp.up_proj.weight": g.standard_normal(5000).astype(np.float32)
            for i in range(3)}


def small_benq(tmp_path, capsys):
    """(path, bytes, payload start, header) of a 2-bit .benq of small_model()."""
    p = tmp_path / "m.safetensors"
    save_container(p, tensor_set(small_model()))
    benq = tmp_path / "m.benq"
    assert main(["quantize", str(p), "--bits", "2", "--out", str(benq)]) == 0
    capsys.readouterr()
    blob = benq.read_bytes()
    hlen = int.from_bytes(blob[4:12], "little")
    return benq, blob, 12 + hlen, json.loads(blob[12:12 + hlen])


class TestNoPartialOutput:
    """A command that fails midway keeps an existing target and leaves no temp file."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_quantize_nan_in_second_tensor(self, tmp_path, capsys, threads):
        tensors = small_model()
        tensors["layers.1.mlp.up_proj.weight"][4321] = np.nan
        p = tmp_path / "m.safetensors"
        save_container(p, tensor_set(tensors))
        out = tmp_path / "m.benq"
        out.write_bytes(b"previous contents")
        code = main(["quantize", str(p), "--out", str(out), "--threads", threads])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "non-finite" in err
        assert out.read_bytes() == b"previous contents"
        assert debris(tmp_path) == []

    def expect_dequantize_fails(self, tmp_path, capsys, benq, message):
        out = tmp_path / "restored.safetensors"
        out.write_bytes(b"previous contents")
        code = main(["dequantize", str(benq), "--out", str(out), "--threads", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and message in err
        assert out.read_bytes() == b"previous contents"
        assert debris(tmp_path) == []

    def test_dequantize_payload_corrupted_after_first_tensor(self, tmp_path, capsys):
        benq, blob, base, header = small_benq(tmp_path, capsys)
        at = base + header["tensors"][1]["indices"][0]
        benq.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
        self.expect_dequantize_fails(tmp_path, capsys, benq, "content digest mismatch")

    def test_dequantize_resigned_bad_second_tensor(self, tmp_path, capsys):
        # digest-valid, so the first tensor is written before the second fails
        benq, blob, base, header = small_benq(tmp_path, capsys)
        at = base + header["tensors"][1]["indices"][0]
        payload = bytearray(blob[base:])
        payload[at - base] = 0xFF  # a 2-bit index of 15
        digest = content_digest(QuantConfig.from_dict(header["config"]),
                                header["tensors"], bytes(payload))
        head = blob[:base].replace(header["content_digest"].encode(), digest.encode())
        benq.write_bytes(head + bytes(payload))
        assert head[:4] == BENQ_MAGIC and len(head) == base
        self.expect_dequantize_fails(tmp_path, capsys, benq, "outside the 2-bit range")


def test_stream_writer_rejects_a_tensor_unlike_its_header(tmp_path):
    target = tmp_path / "t.safetensors"
    a = [TensorSpec("a", (2,), "F32")]
    with pytest.raises(DataError, match="does not match"):
        write_container(str(target), a, [iter([np.ones(3)])])
    with pytest.raises(DataError, match="does not match"):  # a whole tensor, not its blocks
        write_container(str(target), a, [np.ones(2)])
    with pytest.raises(DataError, match="ended before 'b'"):
        write_container(str(target), a + [TensorSpec("b", (1,), "F32")], [iter([np.ones(2)])])
    with pytest.raises(DataError, match="more tensors"):
        write_container(str(target), a, [iter([np.ones(2)]), iter([np.ones(2)])])
    assert not target.exists() and debris(tmp_path) == []
    write_container(str(target), a, [iter([np.ones(2)])])
    assert load_container(target)["a"][1].tolist() == [1.0, 1.0]


class TestHeaderBeforeTensors:
    """Every entry of a header is checked before the first tensor's bytes are read."""

    def test_safetensors(self, tmp_path, monkeypatch):
        import benq.io as io_mod
        reads = []
        monkeypatch.setattr(io_mod, "_read_array", lambda *args: reads.append(args))
        header = {"a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                  "b": {"dtype": "F32", "shape": [2], "data_offsets": [8, 100]}}
        raw = json.dumps(header).encode()
        p = tmp_path / "t.safetensors"
        p.write_bytes(len(raw).to_bytes(8, "little") + raw + bytes(16))
        with pytest.raises(FormatError, match="b: offsets span 92 bytes"):
            with read_container(str(p)) as (_, tensors):
                list(tensors)
        assert reads == []

    def test_benq(self, tmp_path, monkeypatch, capsys):
        import benq.io as io_mod
        benq, blob, base, header = small_benq(tmp_path, capsys)
        header["tensors"][1]["shape"] = [7]  # no longer fills its indices span
        config = QuantConfig.from_dict(header["config"])
        header["content_digest"] = content_digest(config, header["tensors"], blob[base:])
        raw = json.dumps(header, separators=(",", ":")).encode()
        raw += b" " * (-(12 + len(raw)) % 8)
        benq.write_bytes(BENQ_MAGIC + len(raw).to_bytes(8, "little") + raw + blob[base:])
        reads = []
        monkeypatch.setattr(io_mod, "_read_benq_entry", lambda *args: reads.append(args))
        with pytest.raises(FormatError, match="header is not the one the writer gives"):
            with read_benq(str(benq)) as (_, _, _, entries):
                list(entries)
        assert reads == []

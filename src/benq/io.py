"""Tensor containers: safetensors ingestion/output and the packed .benq format.

safetensors layout (subset: F32, F16, BF16 tensors):

    u64 LE header length | header JSON | payload
    header: {name: {"dtype": "F32" | "F16" | "BF16", "shape": [uint, ...],
                    "data_offsets": [start uint, end uint]}, ..., "__metadata__"?: any}
    offsets are relative to the payload.  The format is external, so an
    entry may hold more keys and __metadata__ is skipped.

.benq layout (one quantization run over a tensor set):

    b"BNQ1" | u64 LE header length | header JSON (space-padded) | payload
    header: {
      "version": 2,
      "config":  {"bits": int, "group_size": int, "schedule": "log" | "linear" | "rtn",
                  "epsilon": number (log only; optional)},
      "policy":  {"family_patterns": [[family, [str, ...]], ...],
                  "quantize_families": [family, ...]},
      "policy_digest": sha256 hex str, "content_digest": sha256 hex str,
      "tensors": [
        {"name": str, "shape": [uint, ...], "quantized": true, "n_groups": int,
         "tail_len": int, "indices": [offset uint, length uint], "scales": [offset, length]},
        {"name": str, "shape": [uint, ...], "quantized": false,
         "dtype": "F32" | "F16" | "BF16", "data": [offset, length]},
      ]
    }

Every .benq object holds exactly the keys shown; an int or uint (>= 0) is
never a bool or a float.  Each object is checked against its table before any
value in it is used: a hostile header is a FormatError (ConfigError for the
config and the policy), never a traceback.

The payload holds every tensor's spans in directory order: a quantized
tensor's packed level indices and then its float16 group scales, a
preserved tensor's data.  Each span is padded with zero bytes to a
multiple of 8, the next span starts right after that padding, and the
payload ends with the last span's padding; offsets are relative to the
payload start, which is a multiple of 8 from the file start.  So every
span, n_groups and tail_len follows from the config and the shapes alone.
The reader rebuilds the directory from each entry's name, shape and dtype
with the writer's `_benq_directory`, and any other layout (overlapping,
gapped or reordered spans, trailing payload bytes) is a FormatError.

At 4 bits or less two packed indices share a byte, low nibble first, so
3-bit indices occupy 4 bits on disk.  Every schedule stores plain indices
into its codebook; the rtn codebook is the integers -2**(bits-1) ..
2**(bits-1) - 1, so rtn integer q is stored as index q + 2**(bits-1).
Preserved tensors store their original bytes in their source dtype.
content_digest covers the config, the tensor directory and the payload, so
any header tampering or payload corruption is rejected before a single
tensor is materialized.

Both formats are streamed a block at a time, and a streamed tensor is one
thing on both sides: its TensorSpec and an iterator of its blocks.  A reader
(`read_container`, `read_benq`) checks the whole header, and for .benq the
content digest, before it reads any tensor.  It then yields each tensor's
TensorSpec with a lazy iterator of its blocks, in header order: float32
blocks of a fixed element count (F16 and BF16 are widened a block at a
time), and for a quantized .benq tensor one QuantizedTensor per block of
whole groups (`QuantConfig.block_elems`), holding that block's indices and
scales.  A writer (`write_container`, `write_benq`) takes the specs and,
per tensor, an iterator of its blocks; it builds the header from the specs
alone and then writes each block's bytes as it arrives, so only the blocks
in flight are ever in memory; at 4 bits or less an odd-length block's last
index waits for the next block to share its byte.  All writes go through a
temp file and atomic rename, so a run that fails midway leaves no partial
output.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import math
import os
import tempfile
import warnings
from typing import Any, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (ANY, BOOL, INT, NONNEG, OBJECT, STR, ConfigError, DataError, FormatError,
                     checked, list_of, one_of, tuple_of)
from ._pool import _BLOCK_ELEMS, _END, TensorSpec
from .quantizer import QuantConfig, QuantizedTensor, QuantPolicy

SUPPORTED_DTYPES = ("F32", "F16", "BF16")
BENQ_MAGIC = b"BNQ1"
BENQ_VERSION = 2

_MAX_HEADER = 1 << 30
_CHUNK = 1 << 20  # bytes per read of the digest pass


def _promote(raw, dtype: str, shape: tuple[int, ...],
             out: np.ndarray | None = None) -> np.ndarray:
    """float32 values of the stored `dtype` bytes in the buffer `raw`.

    They fill a new array of `shape`, or the float32 array `out` when one is given.
    """
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    if dtype == "F32":
        flat[...] = np.frombuffer(raw, dtype=np.float32)
    elif dtype == "F16":
        flat[...] = np.frombuffer(raw, dtype=np.float16)
    else:  # BF16: the upper half of a float32
        u = flat.view(np.uint32)
        u[...] = np.frombuffer(raw, dtype=np.uint16)
        u <<= np.uint32(16)
    return out


def _demote(data: np.ndarray, dtype: str) -> bytes:
    """float32 array back to stored bytes; exact for previously promoted data."""
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if dtype == "F32":
        return arr.tobytes()
    if dtype == "F16":
        return arr.astype(np.float16).tobytes()
    # BF16 round-to-nearest-even on the upper 16 bits
    u = arr.view(np.uint32)
    rounded = (u + np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)
    return rounded.astype(np.uint16).tobytes()


def _itemsize(dtype: str) -> int:
    return 4 if dtype == "F32" else 2


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _read_at(f: BinaryIO, offset: int, n: int, what: str) -> bytes:
    f.seek(offset)
    return _read_exact(f, n, what)


def _read_into(f: BinaryIO, offset: int, out: np.ndarray, what: str) -> None:
    """Fill the flat array `out` with the file's bytes at `offset`."""
    view = memoryview(out.view(np.uint8))
    f.seek(offset)
    while view:
        n = f.readinto(view)
        if not n:
            raise FormatError(f"truncated file while reading {what}")
        view = view[n:]


def _read_array(f: BinaryIO, offset: int, dtype: str, n: int, what: str) -> np.ndarray:
    """The n float32 values stored as `dtype` at file `offset`.

    F32 bytes are read straight into the array; F16 and BF16 are read into
    a staging array of n 16-bit elements and widened into place.
    """
    out = np.empty(n, dtype=np.float32)
    if dtype == "F32":
        _read_into(f, offset, out, what)
        return out
    stage = np.empty(n, dtype=np.uint16)
    _read_into(f, offset, stage, what)
    return _promote(stage, dtype, stage.shape, out=out)


def _read_blocks(f: BinaryIO, offset: int, spec: TensorSpec, block: int,
                 what: str) -> Iterator[np.ndarray]:
    """The flat float32 blocks of `block` elements (the last may be short) of
    the tensor `spec` stored at file `offset`, each read when it is reached."""
    numel = math.prod(spec.shape)
    for start in range(0, numel, block):
        yield _read_array(f, offset + start * _itemsize(spec.dtype), spec.dtype,
                          min(block, numel - start), what)


def _as_bytes(arr: np.ndarray) -> np.ndarray:
    """An array's bytes in C order, without a copy when it is contiguous."""
    return arr.reshape(-1).view(np.uint8)


def _no_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate keys")
    return obj


def parse_json(blob: bytes, what: str) -> dict:
    """The JSON object `what` in `blob`; bad UTF-8 or JSON, a duplicate key, nesting
    past the recursion limit or an int past the digit limit is a FormatError."""
    try:
        obj = json.loads(blob.decode("utf-8"), object_pairs_hook=_no_duplicate_keys)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError and JSONDecodeError too
        raise FormatError(f"malformed {what} JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} is not a JSON object")
    return obj


# One table per header object kind, as in the module docstring; QuantConfig
# and QuantPolicy hold the tables of the config and the policy.
_DTYPE = one_of(*SUPPORTED_DTYPES)
_SHAPE = list_of(NONNEG, "non-negative integers")
_SPAN = tuple_of(NONNEG, NONNEG, expected="a list of 2 non-negative integers")
_SAFETENSORS_ENTRY = {"dtype": _DTYPE, "shape": _SHAPE, "data_offsets": _SPAN}
_BENQ_HEADER = {"version": one_of(BENQ_VERSION), "config": ANY, "policy": ANY,
                "policy_digest": STR, "content_digest": STR,
                "tensors": list_of(OBJECT, "JSON objects")}
_QUANTIZED_ENTRY = {"name": STR, "shape": _SHAPE, "quantized": BOOL,
                    "n_groups": INT, "tail_len": INT, "indices": _SPAN, "scales": _SPAN}
_PRESERVED_ENTRY = {"name": STR, "shape": _SHAPE, "quantized": BOOL,
                    "dtype": _DTYPE, "data": _SPAN}


def _atomic_write(path: str, writer) -> None:
    """Run writer(file) against a temp file, then rename over path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".benq-tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as f:
            writer(f)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _pull(it: Iterator, spec: TensorSpec) -> Any:
    item = next(it, _END)
    if item is _END:
        raise DataError(f"the tensor stream ended before {spec.name!r}")
    return item


def _stream(specs: Sequence[TensorSpec], items: Iterable, put) -> None:
    """put(spec, item) for every spec and the next of `items`, which must match in count.

    No name here holds an item between calls, so each is freed once put returns.
    """
    it = iter(items)
    for spec in specs:
        put(spec, _pull(it, spec))
    if next(it, _END) is not _END:
        raise DataError("more tensors than the header names")


def _mismatch(spec: TensorSpec, what: str) -> DataError:
    return DataError(f"{spec.name}: streamed tensor does not match its header entry ({what})")


def _blocks(spec: TensorSpec, blocks: Iterator) -> Iterator:
    """The blocks of one streamed tensor, which must hold its spec's element count.

    A block is a flat array or a QuantizedTensor; a whole array passed in
    place of the iterator is rejected, since iterating it would yield rows.
    """
    if not isinstance(blocks, Iterator):
        raise _mismatch(spec, f"expected an iterator of blocks, got {type(blocks).__name__}")
    numel, done = math.prod(spec.shape), 0
    for block in blocks:
        done += block.numel if isinstance(block, QuantizedTensor) else np.size(block)
        if done > numel:
            raise _mismatch(spec, f"more than {numel} elements")
        yield block
    if done != numel:
        raise _mismatch(spec, f"{done} elements, expected {numel}")


@contextlib.contextmanager
def read_container(path: str, block: int = _BLOCK_ELEMS
                   ) -> Iterator[tuple[list[TensorSpec], Iterator]]:
    """(specs, tensors) of a safetensors file, its tensors read as they are iterated.

    Every header entry is checked, its span against the file's size too,
    before any tensor is read.  `tensors` yields (spec, blocks) in header
    order, where `blocks` lazily reads the tensor from the open file as flat
    float32 arrays of `block` elements, the last one possibly short.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        hlen = int.from_bytes(_read_exact(f, 8, "header length"), "little")
        if hlen > min(size - 8, _MAX_HEADER):
            raise FormatError(f"header length {hlen} exceeds file size")
        header = parse_json(_read_exact(f, hlen, "header"), "header")
        payload_size = size - 8 - hlen

        located = []  # (spec, file offset)
        for name, entry in header.items():
            if name == "__metadata__":
                continue
            checked(entry, _SAFETENSORS_ENTRY, f"malformed header entry for {name!r}",
                    FormatError, extra=True)
            dtype, shape = entry["dtype"], entry["shape"]
            start, end = entry["data_offsets"]
            if not start <= end <= payload_size:
                raise FormatError(f"{name}: data offsets [{start}, {end}] outside payload")
            need = math.prod(shape) * _itemsize(dtype)
            if need != end - start:
                raise FormatError(f"{name}: offsets span {end - start} bytes, "
                                  f"expected {need} for shape {shape}")
            located.append((TensorSpec(name, tuple(shape), dtype), 8 + hlen + start))
        if not located:
            warnings.warn(f"{path}: container holds no tensors", stacklevel=3)
        tensors = ((s, _read_blocks(f, at, s, block, f"tensor {s.name!r}"))
                   for s, at in located)
        yield [s for s, _ in located], tensors


def write_container(path: str, specs: Sequence[TensorSpec], arrays: Iterable) -> None:
    """Write an F32 safetensors file of `specs`, each tensor taken from `arrays` in turn.

    The header comes from the names and shapes alone (every tensor is
    written as F32, whatever its spec's dtype).  Each tensor is an iterator
    of its flat blocks, and each block is written as it arrives.  Atomic and
    deterministic.
    """
    entries = {}
    offset = 0
    for s in specs:
        n = 4 * math.prod(s.shape)
        entries[s.name] = {"dtype": "F32", "shape": list(s.shape),
                           "data_offsets": [offset, offset + n]}
        offset += n
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(8 + len(header)) % 8)

    def writer(f: BinaryIO) -> None:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)

        def put(spec: TensorSpec, blocks: Iterator) -> None:
            for block in _blocks(spec, blocks):
                f.write(_as_bytes(np.asarray(block, dtype=np.float32)))

        _stream(specs, arrays, put)

    _atomic_write(path, writer)


def pack_indices(values: np.ndarray, bits: int) -> bytes:
    """Pack level indices: two per byte (low nibble first) at <=4 bits."""
    if not 2 <= bits <= 8:
        raise ConfigError(f"bits must be in 2..8, got {bits!r}")
    v = np.ascontiguousarray(values, dtype=np.ubyte).ravel()
    if v.size and int(v.max()) >= (1 << bits):
        raise ConfigError(f"index {int(v.max())} does not fit in {bits} bits")
    if bits > 4:
        return v.tobytes()
    if v.size % 2:
        v = np.append(v, np.ubyte(0))
    return (v[0::2] | (v[1::2] << np.ubyte(4))).tobytes()


def unpack_indices(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of pack_indices for a known element count."""
    if not 2 <= bits <= 8:
        raise ConfigError(f"bits must be in 2..8, got {bits!r}")
    if len(data) != packed_size(count, bits):
        raise FormatError(f"packed data is {len(data)} bytes, "
                          f"expected {packed_size(count, bits)} for {count} indices")
    b = np.frombuffer(data, dtype=np.ubyte)
    if bits > 4:
        return b.copy()
    out = np.empty(2 * b.size, dtype=np.ubyte)
    out[0::2] = b & np.ubyte(0x0F)
    out[1::2] = b >> np.ubyte(4)
    return out[:count]


def packed_size(count: int, bits: int) -> int:
    """Bytes occupied by `count` packed indices."""
    return -(-count // 2) if bits <= 4 else count


def _benq_directory(config: QuantConfig, specs: Sequence[TensorSpec]) -> tuple[list[dict], int]:
    """(directory, payload size) of a .benq file of `specs`, the one layout of the format.

    Spans follow each other in directory order, a quantized tensor's
    indices before its scales, each padded to 8 bytes, so every span
    follows from the shapes alone.
    """
    directory = []
    offset = 0

    def span(length: int) -> list[int]:
        nonlocal offset
        start = offset
        offset += length + (-length % 8)
        return [start, length]

    for s in specs:
        numel = math.prod(s.shape)
        if s.dtype is None:
            n_groups = -(-numel // config.group_size)
            directory.append({"name": s.name, "shape": list(s.shape), "quantized": True,
                              "n_groups": n_groups, "tail_len": numel % config.group_size,
                              "indices": span(packed_size(numel, config.bits)),
                              "scales": span(2 * n_groups)})
        else:
            directory.append({"name": s.name, "shape": list(s.shape), "quantized": False,
                              "dtype": s.dtype, "data": span(numel * _itemsize(s.dtype))})
    return directory, offset


def _content_hash(config: QuantConfig, directory: list[dict]):
    """sha256 over the config and the directory, ready for the payload bytes."""
    h = hashlib.sha256()
    h.update(json.dumps({"config": config.to_dict(), "tensors": directory},
                        sort_keys=True, separators=(",", ":")).encode("utf-8"))
    h.update(b"\0")
    return h


def _packed(spec: TensorSpec, blocks: Iterable, config: QuantConfig,
            scales: list) -> Iterator[bytes]:
    """The packed indices of a quantized tensor's QuantizedTensor blocks, in order.

    Each block's scales are appended to `scales`.  At 4 bits or less an
    odd-length block's last index is carried into the next block, so the
    bytes are those of the whole tensor packed at once.
    """
    carry = np.empty(0, dtype=np.ubyte)
    for qt in blocks:
        if not isinstance(qt, QuantizedTensor):
            raise _mismatch(spec, f"expected a quantized tensor, got {type(qt).__name__}")
        if qt.config.to_dict() != config.to_dict():
            raise ConfigError(f"{spec.name}: quantized under {qt.config.to_dict()}, "
                              f"not the run's {config.to_dict()}")
        idx = np.concatenate([carry, qt.indices.ravel()]) if carry.size else qt.indices.ravel()
        cut = idx.size - idx.size % 2 if config.bits <= 4 else idx.size
        yield pack_indices(idx[:cut], config.bits)
        carry = idx[cut:]
        scales.append(qt.scales)
    yield pack_indices(carry, config.bits)


def _demoted(spec: TensorSpec, blocks: Iterable) -> Iterator[bytes]:
    """A preserved tensor's blocks as bytes of its spec's dtype."""
    for block in blocks:
        if isinstance(block, QuantizedTensor):
            raise _mismatch(spec, "expected a preserved tensor, got a quantized one")
        yield _demote(block, spec.dtype)


def write_benq(path: str, config: QuantConfig, policy: QuantPolicy,
               specs: Sequence[TensorSpec], entries: Iterable) -> None:
    """Write a .benq file of `specs`, each entry taken from `entries` in turn.

    An entry is an iterator of a tensor's blocks.  A block is a
    QuantizedTensor under `config` where its spec's dtype is None, else a
    flat float32 array, stored in the spec's dtype.  The header is built
    from the specs and reserved first (a sha256 hex digest always has 64
    characters, so the header's length is known); each block's bytes then
    go through the content hash into the file as they arrive, a quantized
    tensor's float16 scales once its indices are written, and the header is
    written last.  Atomic and deterministic.
    """
    directory, _ = _benq_directory(config, specs)

    def header(content_digest: str) -> bytes:
        raw = json.dumps({
            "version": BENQ_VERSION,
            "config": config.to_dict(),
            "policy": policy.to_dict(),
            "policy_digest": policy.digest(),
            "content_digest": content_digest,
            "tensors": directory,
        }, separators=(",", ":")).encode("utf-8")
        return raw + b" " * (-(len(BENQ_MAGIC) + 8 + len(raw)) % 8)

    reserved = len(header("0" * 64))

    def writer(f: BinaryIO) -> None:
        f.write(BENQ_MAGIC)
        f.write(reserved.to_bytes(8, "little"))
        f.seek(reserved, os.SEEK_CUR)
        h = _content_hash(config, directory)

        def span(pieces: Iterable[bytes]) -> None:
            """Hash and write the pieces of one payload span, then its padding to 8 bytes."""
            n = 0
            for raw in pieces:
                h.update(raw)
                f.write(raw)
                n += len(raw)
            pad = b"\0" * (-n % 8)
            h.update(pad)
            f.write(pad)

        def put(spec: TensorSpec, blocks: Iterator) -> None:
            if spec.dtype is not None:
                span(_demoted(spec, _blocks(spec, blocks)))
                return
            scales: list[np.ndarray] = []  # the tensor's, until its indices are written
            span(_packed(spec, _blocks(spec, blocks), config, scales))
            span(s.astype("<f2").tobytes() for s in scales)

        _stream(specs, entries, put)
        final = header(h.hexdigest())
        assert len(final) == reserved
        f.seek(len(BENQ_MAGIC) + 8)
        f.write(final)

    _atomic_write(path, writer)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _read_benq_entry(f: BinaryIO, base: int, entry: dict, spec: TensorSpec,
                     config: QuantConfig) -> Iterator:
    """The blocks of one directory entry, each read when it is reached.

    A preserved tensor gives flat float32 blocks, a quantized one a
    QuantizedTensor per block; both hold the config.block_elems elements
    of quantize_tensor's blocks.
    """
    name, numel, bits, G = spec.name, math.prod(spec.shape), config.bits, config.group_size
    step, what = config.block_elems, f"tensor {name!r}"
    if spec.dtype is not None:
        yield from _read_blocks(f, base + entry["data"][0], spec, step, what)
        return
    indices_at, scales_at = base + entry["indices"][0], base + entry["scales"][0]
    for start in range(0, numel, step):
        stop = min(start + step, numel)
        first = start - start % 2  # a packed byte may hold the last block's final index too
        lo = packed_size(first, bits)
        raw = _read_at(f, indices_at + lo, packed_size(stop, bits) - lo, what)
        indices = unpack_indices(raw, bits, stop - first)[start - first:]
        _require(int(indices.max()) < 2 ** bits,
                 f"{name}: stored value outside the {bits}-bit range")
        g0, g1 = start // G, -(-stop // G)
        scales = np.frombuffer(_read_at(f, scales_at + 2 * g0, 2 * (g1 - g0), what), dtype="<f2")
        yield QuantizedTensor(name, (stop - start,), indices, scales, config)


@contextlib.contextmanager
def read_benq(path: str) -> Iterator[tuple[QuantConfig, QuantPolicy, list[TensorSpec], Iterator]]:
    """(config, policy, specs, entries) of a fully validated .benq file.

    Reading takes two passes over the open file.  The first checks the
    header against its schema tables and the content digest, which it
    hashes from the payload in chunks.  It then rebuilds the directory with
    `_benq_directory` from each entry's name, shape and dtype, and every
    entry and the payload size must equal the rebuilt ones.  So a tampered
    header (for example an edited bits field), a corrupt payload or any
    layout but the writer's raises FormatError before any tensor is read.
    `entries` then yields (spec, blocks) in directory order, where
    `blocks` lazily reads the tensor's spans a block of config.block_elems
    elements at a time: flat float32 arrays for a preserved tensor, and for
    a quantized one a QuantizedTensor of the block's indices and scales.  The
    two passes assume the file is not rewritten in place meanwhile; benq's
    own writes replace a file by rename, which leaves an open file as it was.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        _require(_read_exact(f, 4, "magic") == BENQ_MAGIC, f"{path}: not a .benq file")
        hlen = int.from_bytes(_read_exact(f, 8, "header length"), "little")
        _require(hlen <= min(size - 12, _MAX_HEADER), f"header length {hlen} exceeds file size")
        header = checked(parse_json(_read_exact(f, hlen, "header"), "header"), _BENQ_HEADER,
                         "header", FormatError)

        config = QuantConfig.from_dict(header["config"])
        policy = QuantPolicy.from_dict(header["policy"])
        _require(policy.digest() == header["policy_digest"], "policy digest mismatch")
        directory = header["tensors"]
        for i, entry in enumerate(directory):
            checked(entry, _QUANTIZED_ENTRY if entry.get("quantized") is True
                    else _PRESERVED_ENTRY, f"malformed tensor directory entry {i}", FormatError)
        h = _content_hash(config, directory)
        payload_size = 0
        for chunk in iter(lambda: f.read(_CHUNK), b""):
            h.update(chunk)
            payload_size += len(chunk)
        _require(h.hexdigest() == header["content_digest"],
                 "content digest mismatch: header or payload corrupted")

        specs = [TensorSpec(e["name"], tuple(e["shape"]), None if e["quantized"] else e["dtype"])
                 for e in directory]
        for name, count in collections.Counter(s.name for s in specs).items():
            _require(count == 1, f"duplicate tensor name {name!r}")
        rebuilt, rebuilt_size = _benq_directory(config, specs)
        for entry, want in zip(directory, rebuilt):
            for key, value in want.items():
                if entry[key] != value:
                    raise FormatError(f"{entry['name']}: {key} {entry[key]} is not {value}, "
                                      f"as its shape {entry['shape']} gives")
        _require(payload_size == rebuilt_size,
                 f"payload is {payload_size} bytes, not {rebuilt_size}, as the directory gives")
        base = len(BENQ_MAGIC) + 8 + hlen
        entries = ((s, _read_benq_entry(f, base, e, s, config))
                   for s, e in zip(specs, directory))
        yield config, policy, specs, entries

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

Payload offsets are relative to the payload start and 8-byte aligned (the
payload itself starts at a multiple of 8 from the file start).  Quantized
tensors store packed level indices followed by float16 group scales; at 4
bits or less two indices share a byte, low nibble first, so 3-bit indices
occupy 4 bits on disk.  Every schedule stores plain indices into its
codebook; the rtn codebook is the integers -2**(bits-1) .. 2**(bits-1) - 1,
so rtn integer q is stored as index q + 2**(bits-1).  Preserved tensors
store their original bytes in their source dtype.  content_digest covers
the config, the tensor directory and the payload, so any header tampering
or payload corruption is rejected before a single tensor is materialized.

Both formats are streamed a tensor at a time.  A reader (`read_container`,
`read_benq`) checks the whole header, and for .benq the content digest,
before it reads any tensor, then reads the tensors lazily in header order.
A writer (`write_container`, `write_benq`) builds the header from the
tensors' names, shapes and dtypes alone and then streams each tensor's
bytes, so only the tensors in flight are ever in memory.  All writes go
through a temp file and atomic rename, so a run that fails midway leaves no
partial output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (ANY, BOOL, INT, NONNEG, OBJECT, STR, ConfigError, DataError, FormatError,
                     checked, list_of, one_of, tuple_of)
from .quantizer import QuantConfig, QuantizedTensor, QuantPolicy

SUPPORTED_DTYPES = ("F32", "F16", "BF16")
BENQ_MAGIC = b"BNQ1"
BENQ_VERSION = 2

_MAX_HEADER = 1 << 30
_CHUNK = 1 << 20  # bytes per read of the digest pass, 16-bit elements per staged read


@dataclass(frozen=True)
class WeightTensor:
    """A named weight tensor held as float32, remembering its stored dtype."""

    name: str
    data: np.ndarray
    source_dtype: str = "F32"

    def __post_init__(self) -> None:
        if self.source_dtype not in SUPPORTED_DTYPES:
            raise FormatError(f"unsupported dtype {self.source_dtype!r} "
                              f"(supported: {', '.join(SUPPORTED_DTYPES)})")
        data = np.asarray(self.data, dtype=np.float32)
        if not data.flags.c_contiguous:
            # ascontiguousarray would do, but it also promotes 0-d to 1-d
            data = np.ascontiguousarray(data)
        object.__setattr__(self, "data", data)


class TensorSpec(NamedTuple):
    """What a file's header says of one tensor, known before any tensor is read.

    `dtype` is the stored dtype, None for a quantized .benq tensor.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str | None


def _spec(name: str, t: Any) -> TensorSpec:
    """The spec of an in-memory tensor: a QuantizedTensor, a WeightTensor or an array."""
    if isinstance(t, QuantizedTensor):
        return TensorSpec(name, t.shape, None)
    return TensorSpec(name, np.shape(getattr(t, "data", t)), getattr(t, "source_dtype", "F32"))


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


def _read_array(f: BinaryIO, offset: int, dtype: str, shape: tuple[int, ...],
                what: str) -> np.ndarray:
    """The float32 array of `shape` stored as `dtype` at file `offset`.

    F32 bytes are read straight into the array; F16 and BF16 go through a
    staging block of _CHUNK elements and are widened into place.
    """
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    if dtype == "F32":
        _read_into(f, offset, flat, what)
        return out
    stage = np.empty(max(1, min(flat.size, _CHUNK)), dtype=np.uint16)
    for i in range(0, flat.size, stage.size):
        part = stage[:flat.size - i]
        _read_into(f, offset + 2 * i, part, what)
        _promote(part, dtype, part.shape, out=flat[i:i + part.size])
    return out


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


def _shape(raw: list[int], name: str, span: int, size_of) -> tuple[int, ...]:
    """A checked shape whose element count fills `span` bytes; size_of(n) gives n's bytes."""
    need = size_of(math.prod(raw))
    if need != span:
        raise FormatError(f"{name}: offsets span {span} bytes, expected {need} for shape {raw}")
    return tuple(raw)


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


_END = object()


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


@contextlib.contextmanager
def read_container(path: str) -> Iterator[tuple[list[TensorSpec], Iterator]]:
    """(specs, tensors) of a safetensors file, its tensors read as they are iterated.

    Every header entry is checked, its span against the file's size too,
    before any tensor is read.  `tensors` yields (name, float32 WeightTensor)
    in header order, reading each from the open file when it is reached.
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
            dtype = entry["dtype"]
            start, end = entry["data_offsets"]
            if not start <= end <= payload_size:
                raise FormatError(f"{name}: data offsets [{start}, {end}] outside payload")
            shape = _shape(entry["shape"], name, end - start, lambda n: n * _itemsize(dtype))
            located.append((TensorSpec(name, shape, dtype), 8 + hlen + start))
        if not located:
            warnings.warn(f"{path}: container holds no tensors", stacklevel=3)
        tensors = ((s.name, WeightTensor(s.name, _read_array(f, at, s.dtype, s.shape,
                                                             f"tensor {s.name!r}"), s.dtype))
                   for s, at in located)
        yield [s for s, _ in located], tensors


def write_container(path: str, specs: Sequence[TensorSpec], arrays: Iterable) -> None:
    """Write an F32 safetensors file of `specs`, each tensor taken from `arrays` in turn.

    The header comes from the names and shapes alone (every tensor is
    written as F32, whatever its spec's dtype); each array or WeightTensor
    is written as it arrives and must have its spec's shape.  Atomic and
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

        def put(spec: TensorSpec, t: Any) -> None:
            arr = np.asarray(getattr(t, "data", t), dtype=np.float32)
            if arr.shape != spec.shape:
                raise _mismatch(spec, f"shape {arr.shape}, expected {spec.shape}")
            f.write(_as_bytes(arr))

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


def _benq_directory(config: QuantConfig, specs: Sequence[TensorSpec]) -> list[dict]:
    """The .benq tensor directory of `specs`: every span follows from the shapes alone."""
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
    return directory


def _content_hash(config: QuantConfig, directory: list[dict]):
    """sha256 over the config and the directory, ready for the payload bytes."""
    h = hashlib.sha256()
    h.update(json.dumps({"config": config.to_dict(), "tensors": directory},
                        sort_keys=True, separators=(",", ":")).encode("utf-8"))
    h.update(b"\0")
    return h


def _content_digest(config: QuantConfig, directory: list[dict], payload: bytes) -> str:
    h = _content_hash(config, directory)
    h.update(payload)
    return h.hexdigest()


def _payload(spec: TensorSpec, t: Any, config: QuantConfig) -> tuple:
    """The payload pieces of one tensor, each padded to 8 bytes on disk."""
    if spec.dtype is None:
        if not isinstance(t, QuantizedTensor) or t.shape != spec.shape:
            raise _mismatch(spec, "expected a quantized tensor of shape "
                                  f"{spec.shape}, got {_spec(spec.name, t)}")
        if t.config.to_dict() != config.to_dict():
            raise ConfigError(f"{spec.name}: quantized under {t.config.to_dict()}, "
                              f"not the run's {config.to_dict()}")
        return pack_indices(t.indices, config.bits), t.scales.astype("<f2").tobytes()
    if _spec(spec.name, t) != spec:
        raise _mismatch(spec, f"got {_spec(spec.name, t)}, expected {spec}")
    return (_demote(getattr(t, "data", t), spec.dtype),)


def write_benq(path: str, config: QuantConfig, policy: QuantPolicy,
               specs: Sequence[TensorSpec], entries: Iterable) -> None:
    """Write a .benq file of `specs`, each entry taken from `entries` in turn.

    An entry is a QuantizedTensor under `config` where its spec's dtype is
    None, else the preserved tensor of that dtype.  The header is built from
    the specs and reserved first (a sha256 hex digest always has 64
    characters, so the header's length is known); each entry's payload
    then goes through the content hash into the file as it arrives, and the
    header is written last.  Atomic and deterministic.
    """
    directory = _benq_directory(config, specs)

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

        def put(spec: TensorSpec, t: Any) -> None:
            for piece in _payload(spec, t, config):
                pad = b"\0" * (-len(piece) % 8)
                for raw in (piece, pad):
                    h.update(raw)
                    f.write(raw)

        _stream(specs, entries, put)
        final = header(h.hexdigest())
        assert len(final) == reserved
        f.seek(len(BENQ_MAGIC) + 8)
        f.write(final)

    _atomic_write(path, writer)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _benq_spec(entry: dict, config: QuantConfig, payload_size: int) -> TensorSpec:
    """The spec of a schema-checked directory entry whose spans fit the payload."""
    name = entry["name"]

    def span(key: str) -> int:
        off, length = entry[key]
        _require(off % 8 == 0, f"{name}: {key} offset {off} is not 8-byte aligned")
        _require(off + length <= payload_size, f"{name}: {key} span outside payload")
        return length

    if not entry["quantized"]:
        dtype = entry["dtype"]
        return TensorSpec(name, _shape(entry["shape"], name, span("data"),
                                       lambda n: n * _itemsize(dtype)), dtype)
    shape = _shape(entry["shape"], name, span("indices"), lambda n: packed_size(n, config.bits))
    numel = math.prod(shape)
    n_groups = -(-numel // config.group_size)
    _require(entry["n_groups"] == n_groups,
             f"{name}: header claims {entry['n_groups']} groups, expected {n_groups}")
    _require(entry["tail_len"] == numel % config.group_size, f"{name}: tail length mismatch")
    _require(span("scales") == 2 * n_groups,
             f"{name}: {entry['scales'][1]} scale bytes for {n_groups} groups")
    return TensorSpec(name, shape, None)


def _read_benq_entry(f: BinaryIO, base: int, entry: dict, spec: TensorSpec,
                     config: QuantConfig) -> Any:
    name = spec.name
    if spec.dtype is not None:
        return WeightTensor(name, _read_array(f, base + entry["data"][0], spec.dtype,
                                              spec.shape, f"tensor {name!r}"), spec.dtype)
    (ioff, ilen), (soff, slen) = entry["indices"], entry["scales"]
    indices = unpack_indices(_read_at(f, base + ioff, ilen, f"tensor {name!r}"),
                             config.bits, math.prod(spec.shape))
    _require(not indices.size or int(indices.max()) < 2 ** config.bits,
             f"{name}: stored value outside the {config.bits}-bit range")
    scales = np.frombuffer(_read_at(f, base + soff, slen, f"tensor {name!r}"), dtype="<f2")
    return QuantizedTensor(name, spec.shape, indices, scales.copy(), config)


@contextlib.contextmanager
def read_benq(path: str) -> Iterator[tuple[QuantConfig, QuantPolicy, list[TensorSpec], Iterator]]:
    """(config, policy, specs, entries) of a fully validated .benq file.

    Reading takes two passes over the open file.  The first checks the
    header, every directory entry and the content digest, which it hashes
    from the payload in chunks, so a tampered header (for example an edited
    bits field) or a corrupt payload raises FormatError before any tensor is
    read.  `entries` then yields (name, QuantizedTensor or WeightTensor) in
    directory order, reading each tensor's spans when it is reached.  The
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

        specs: list[TensorSpec] = []
        names: set[str] = set()
        for entry in directory:
            _require(entry["name"] not in names, f"duplicate tensor name {entry['name']!r}")
            specs.append(_benq_spec(entry, config, payload_size))
            names.add(entry["name"])
        base = len(BENQ_MAGIC) + 8 + hlen
        entries = ((s.name, _read_benq_entry(f, base, e, s, config))
                   for s, e in zip(specs, directory))
        yield config, policy, specs, entries

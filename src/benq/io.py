"""Tensor containers: safetensors ingestion/output and the packed .benq format.

safetensors layout (subset: F32, F16, BF16 tensors):

    u64 LE header length | header JSON | payload
    header: {name: {"dtype", "shape", "data_offsets": [start, end]}, ...}
    offsets are relative to the payload; tensors are read one at a time.

.benq layout (one quantization run over a tensor set):

    b"BNQ1" | u64 LE header length | header JSON (space-padded) | payload
    header: {
      "version": 2,
      "config":  {"bits", "group_size", "schedule", "epsilon"?},
      "policy":  {"family_patterns", "quantize_families"}, "policy_digest": sha256 hex,
      "content_digest": sha256 hex,
      "tensors": [
        {"name", "shape", "quantized": true,  "n_groups", "tail_len",
         "indices": [offset, length], "scales": [offset, length]},
        {"name", "shape", "quantized": false, "dtype", "data": [offset, length]},
      ]
    }

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
All writes go through a temp file and atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Any, BinaryIO, Mapping

import numpy as np

from .errors import ConfigError, FormatError
from .quantizer import ModelQuantization, QuantConfig, QuantizedTensor, QuantPolicy

SUPPORTED_DTYPES = ("F32", "F16", "BF16")
BENQ_MAGIC = b"BNQ1"
BENQ_VERSION = 2

_MAX_HEADER = 1 << 30


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


def _promote(raw: bytes, dtype: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    if dtype == "F32":
        arr = np.frombuffer(raw, dtype=np.float32).copy()
    elif dtype == "F16":
        arr = np.frombuffer(raw, dtype=np.float16).astype(np.float32)
    elif dtype == "BF16":
        u = np.frombuffer(raw, dtype=np.uint16).astype(np.uint32)
        arr = (u << np.uint32(16)).view(np.float32)
    else:
        raise FormatError(f"{name}: unsupported dtype {dtype!r}")
    return arr.reshape(shape)


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


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise FormatError("duplicate keys in header")
    return dict(pairs)


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"), object_pairs_hook=_no_duplicate_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"malformed header JSON: {e}") from None
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    return header


def _nonneg_ints(raw: Any, name: str, key: str, length: int | None = None) -> list[int]:
    """A header list of non-negative Python ints (no bools, no floats), of `length` if given."""
    if (not isinstance(raw, list) or length not in (None, len(raw))
            or not all(type(v) is int and v >= 0 for v in raw)):
        size = "" if length is None else f"{length} "
        raise FormatError(f"{name}: {key} {raw!r} is not a list of {size}non-negative integers")
    return raw


def _parse_shape(raw: Any, name: str, span: int, size_of) -> tuple[int, ...]:
    """A header shape: non-negative ints whose exact element count fills `span` bytes.

    `size_of(numel)` is the byte count of numel elements in the tensor's encoding.
    """
    _nonneg_ints(raw, name, "shape")
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


def read_container(path: str) -> dict[str, WeightTensor]:
    """Read a safetensors file into named float32 tensors (stream per tensor)."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        hlen = int.from_bytes(_read_exact(f, 8, "header length"), "little")
        if hlen > min(size - 8, _MAX_HEADER):
            raise FormatError(f"header length {hlen} exceeds file size")
        header = _parse_header(_read_exact(f, hlen, "header"))
        payload_size = size - 8 - hlen
        payload_base = 8 + hlen

        out: dict[str, WeightTensor] = {}
        for name, entry in header.items():
            if name == "__metadata__":
                continue
            try:
                dtype = entry["dtype"]
                raw_shape = entry["shape"]
                offsets = entry["data_offsets"]
            except (TypeError, KeyError):
                raise FormatError(f"malformed header entry for {name!r}") from None
            start, end = _nonneg_ints(offsets, name, "data_offsets", 2)
            if dtype not in SUPPORTED_DTYPES:
                raise FormatError(f"{name}: unsupported dtype {dtype!r} "
                                  f"(supported: {', '.join(SUPPORTED_DTYPES)})")
            if not 0 <= start <= end <= payload_size:
                raise FormatError(f"{name}: data offsets [{start}, {end}] outside payload")
            shape = _parse_shape(raw_shape, name, end - start,
                                 lambda n: n * _itemsize(dtype))
            f.seek(payload_base + start)
            raw = _read_exact(f, end - start, f"tensor {name!r}")
            out[name] = WeightTensor(name, _promote(raw, dtype, shape, name), dtype)
    if not out:
        warnings.warn(f"{path}: container holds no tensors", stacklevel=2)
    return out


def write_container(path: str, tensors: Mapping[str, Any]) -> None:
    """Write named tensors as an F32 safetensors file (atomic, deterministic)."""
    entries = {}
    blobs = []
    offset = 0
    for name, t in tensors.items():
        arr = np.asarray(getattr(t, "data", t), dtype=np.float32)
        raw = arr.tobytes()  # serializes in C order, keeps 0-d shapes intact
        entries[name] = {"dtype": "F32", "shape": list(arr.shape),
                         "data_offsets": [offset, offset + len(raw)]}
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(8 + len(header)) % 8)

    def writer(f: BinaryIO) -> None:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for raw in blobs:
            f.write(raw)

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


def _directory_and_payload(mq: ModelQuantization) -> tuple[list[dict], bytes]:
    directory = []
    chunks: list[bytes] = []
    offset = 0

    def put(raw: bytes) -> tuple[int, int]:
        nonlocal offset
        start = offset
        pad = -len(raw) % 8
        chunks.append(raw)
        if pad:
            chunks.append(b"\0" * pad)
        offset += len(raw) + pad
        return start, len(raw)

    for name, t in mq.entries.items():
        if isinstance(t, QuantizedTensor):
            ioff, ilen = put(pack_indices(t.indices, t.config.bits))
            soff, slen = put(t.scales.astype("<f2").tobytes())
            directory.append({"name": name, "shape": list(t.shape), "quantized": True,
                              "n_groups": t.n_groups, "tail_len": t.tail_len,
                              "indices": [ioff, ilen], "scales": [soff, slen]})
        else:
            data = np.asarray(getattr(t, "data", t))
            dtype = getattr(t, "source_dtype", "F32")
            doff, dlen = put(_demote(data, dtype))
            directory.append({"name": name, "shape": list(data.shape), "quantized": False,
                              "dtype": dtype, "data": [doff, dlen]})
    return directory, b"".join(chunks)


def _content_digest(config: QuantConfig, directory: list[dict], payload: bytes) -> str:
    h = hashlib.sha256()
    h.update(json.dumps({"config": config.to_dict(), "tensors": directory},
                        sort_keys=True, separators=(",", ":")).encode("utf-8"))
    h.update(b"\0")
    h.update(payload)
    return h.hexdigest()


def write_benq(path: str, mq: ModelQuantization) -> None:
    """Write a quantization result as a .benq file (atomic, deterministic)."""
    directory, payload = _directory_and_payload(mq)
    header_obj = {
        "version": BENQ_VERSION,
        "config": mq.config.to_dict(),
        "policy": mq.policy.to_dict(),
        "policy_digest": mq.policy.digest(),
        "content_digest": _content_digest(mq.config, directory, payload),
        "tensors": directory,
    }
    header = json.dumps(header_obj, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(len(BENQ_MAGIC) + 8 + len(header)) % 8)

    def writer(f: BinaryIO) -> None:
        f.write(BENQ_MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        f.write(payload)

    _atomic_write(path, writer)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def read_benq(path: str) -> ModelQuantization:
    """Read and fully validate a .benq file.

    The content digest is checked before any tensor is reconstructed, so a
    tampered header (for example an edited bits field) or a corrupt payload
    raises FormatError with no partial result.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        _require(_read_exact(f, 4, "magic") == BENQ_MAGIC, f"{path}: not a .benq file")
        hlen = int.from_bytes(_read_exact(f, 8, "header length"), "little")
        _require(hlen <= min(size - 12, _MAX_HEADER), f"header length {hlen} exceeds file size")
        header = _parse_header(_read_exact(f, hlen, "header"))
        payload = f.read()

    _require(header.get("version") == BENQ_VERSION,
             f"unsupported version {header.get('version')!r}")
    for key in ("config", "policy", "policy_digest", "content_digest", "tensors"):
        _require(key in header, f"header is missing {key!r}")
    config = QuantConfig.from_dict(header["config"])
    policy = QuantPolicy.from_dict(header["policy"])
    _require(policy.digest() == header["policy_digest"], "policy digest mismatch")
    directory = header["tensors"]
    _require(isinstance(directory, list), "tensor directory is not a list")
    _require(_content_digest(config, directory, payload) == header["content_digest"],
             "content digest mismatch: header or payload corrupted")

    def span(entry: dict, key: str, name: str) -> bytes:
        off, length = _nonneg_ints(entry[key], name, key, 2)
        _require(off % 8 == 0, f"{name}: {key} offset {off} is not 8-byte aligned")
        _require(off + length <= len(payload),
                 f"{name}: {key} span outside payload")
        return payload[off:off + length]

    entries: dict[str, Any] = {}
    for entry in directory:
        try:
            _read_directory_entry(entry, entries, config, span)
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"malformed tensor directory entry: {e}") from None
    return ModelQuantization(entries, config, policy)


def _read_directory_entry(entry, entries, config, span) -> None:
    name = entry.get("name")
    _require(isinstance(name, str) and name not in entries,
             f"bad or duplicate tensor name {name!r}")
    if entry.get("quantized"):
        raw_idx = span(entry, "indices", name)
        shape = _parse_shape(entry["shape"], name, len(raw_idx),
                             lambda n: packed_size(n, config.bits))
        numel = math.prod(shape)
        n_groups = -(-numel // config.group_size) if numel else 0
        _require(entry["n_groups"] == n_groups,
                 f"{name}: header claims {entry['n_groups']} groups, expected {n_groups}")
        _require(entry["tail_len"] == numel % config.group_size,
                 f"{name}: tail length mismatch")
        raw_scales = span(entry, "scales", name)
        _require(len(raw_scales) == 2 * n_groups,
                 f"{name}: {len(raw_scales)} scale bytes for {n_groups} groups")
        indices = unpack_indices(raw_idx, config.bits, numel)
        _require(not indices.size or int(indices.max()) < 2 ** config.bits,
                 f"{name}: stored value outside the {config.bits}-bit range")
        scales = np.frombuffer(raw_scales, dtype="<f2").copy()
        entries[name] = QuantizedTensor(name, shape, indices, scales, config)
    else:
        dtype = entry.get("dtype")
        _require(dtype in SUPPORTED_DTYPES, f"{name}: unsupported dtype {dtype!r}")
        raw = span(entry, "data", name)
        shape = _parse_shape(entry["shape"], name, len(raw), lambda n: n * _itemsize(dtype))
        entries[name] = WeightTensor(name, _promote(raw, dtype, shape, name), dtype)

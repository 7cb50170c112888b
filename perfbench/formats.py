"""Readers and a writer for the files the benchmark exchanges with benq.

These are written from the published layouts (see the README of the repo
and the docstring of ``benq.io``), not by calling benq, so that the checks
built on them are independent of the code they check.

safetensors: ``u64 LE header length | header JSON | payload``.
.benq:       ``b"BNQ1" | u64 LE header length | header JSON | payload``;
             every payload part starts at a multiple of 8.
"""

from __future__ import annotations

import json
import mmap
import os
from typing import Iterable

import numpy as np

_ITEMSIZE = {"F32": 4, "F16": 2, "BF16": 2}
_RAW_DTYPE = {"F32": "<f4", "F16": "<f2", "BF16": "<u2"}
BENQ_MAGIC = b"BNQ1"


class FormatProblem(Exception):
    """A file does not follow its published layout."""


def bf16_from_f32(values: np.ndarray) -> np.ndarray:
    """Round float32 to bfloat16 bit patterns (nearest, ties to even)."""
    u = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    return ((u + np.uint32(0x7FFF) + ((u >> np.uint32(16)) & np.uint32(1)))
            >> np.uint32(16)).astype(np.uint16)


def f32_from_bf16(bits: np.ndarray) -> np.ndarray:
    """Exact float32 values of bfloat16 bit patterns."""
    return (np.asarray(bits, dtype=np.uint32) << np.uint32(16)).view(np.float32)


def write_safetensors(path: str, shapes: dict[str, tuple[str, tuple[int, ...]]],
                      arrays: Iterable[np.ndarray]) -> None:
    """Write tensors declared as ``{name: (dtype, shape)}``, taking their data
    in the same order from `arrays`; BF16 data is given as uint16 bit patterns."""
    entries, offset = {}, 0
    for name, (dtype, shape) in shapes.items():
        nbytes = int(np.prod(shape, dtype=np.int64)) * _ITEMSIZE[dtype]
        entries[name] = {"dtype": dtype, "shape": list(shape),
                         "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    header += b" " * (-(8 + len(header)) % 8)
    with open(path, "wb") as f:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for (name, (dtype, shape)), raw in zip(shapes.items(), arrays, strict=True):
            data = np.ascontiguousarray(raw, dtype=_RAW_DTYPE[dtype])
            if data.shape != tuple(shape):
                raise ValueError(f"{name}: data of shape {data.shape}, declared {shape}")
            f.write(data.tobytes())


class SafeTensors:
    """Memory-mapped safetensors file; tensors are read lazily by name."""

    def __init__(self, path: str):
        self.path = path
        size = os.path.getsize(path)
        with open(path, "rb") as f:
            hlen = int.from_bytes(f.read(8), "little")
            if hlen > size - 8:
                raise FormatProblem(f"{path}: header length {hlen} exceeds the file")
            header = json.loads(f.read(hlen))
        self.base = 8 + hlen
        self.entries = {k: v for k, v in header.items() if k != "__metadata__"}
        for name, e in self.entries.items():
            start, end = e["data_offsets"]
            numel = int(np.prod(e["shape"], dtype=np.int64))
            if end - start != numel * _ITEMSIZE[e["dtype"]] or self.base + end > size:
                raise FormatProblem(f"{path}: bad data offsets for {name}")

    def names(self) -> list[str]:
        return list(self.entries)

    def dtype(self, name: str) -> str:
        return self.entries[name]["dtype"]

    def shape(self, name: str) -> tuple[int, ...]:
        return tuple(self.entries[name]["shape"])

    def raw(self, name: str) -> np.ndarray:
        """Stored elements, flat, in their stored type (uint16 for BF16)."""
        e = self.entries[name]
        numel = int(np.prod(e["shape"], dtype=np.int64))
        return np.memmap(self.path, dtype=_RAW_DTYPE[e["dtype"]], mode="r",
                         offset=self.base + e["data_offsets"][0], shape=(numel,))

    def values(self, name: str) -> np.ndarray:
        """Flat float32 values; BF16 and F16 are widened exactly."""
        raw = self.raw(name)
        dtype = self.dtype(name)
        if dtype == "BF16":
            return f32_from_bf16(raw)
        return np.asarray(raw, dtype=np.float32)


class BenqFile:
    """A .benq file parsed from its layout: header, directory and payload spans."""

    def __init__(self, path: str):
        self.path = path
        self.size = os.path.getsize(path)
        with open(path, "rb") as f:
            self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        buf = self._map
        if buf[:4] != BENQ_MAGIC:
            raise FormatProblem(f"{path}: bad magic")
        self.header_len = int.from_bytes(buf[4:12], "little")
        self.base = 12 + self.header_len
        if self.base > self.size or self.base % 8:
            raise FormatProblem(f"{path}: payload starts at {self.base}")
        self.header = json.loads(bytes(buf[12:self.base]))
        cfg = self.header["config"]
        self.bits = int(cfg["bits"])
        self.group_size = int(cfg["group_size"])
        self.schedule = cfg["schedule"]
        self.epsilon = cfg.get("epsilon")
        self.tensors = {t["name"]: t for t in self.header["tensors"]}

    def _span(self, entry: dict, key: str) -> memoryview:
        off, length = entry[key]
        if off % 8 or off < 0 or self.base + off + length > self.size:
            raise FormatProblem(f"{entry['name']}: {key} span [{off}, +{length}] is invalid")
        return memoryview(self._map)[self.base + off:self.base + off + length]

    def is_quantized(self, name: str) -> bool:
        return bool(self.tensors[name]["quantized"])

    def scales(self, name: str) -> np.ndarray:
        return np.frombuffer(self._span(self.tensors[name], "scales"), dtype="<f2")

    def stored_indices(self, name: str) -> np.ndarray:
        """Unpacked stored codes (uint8): two per byte, low nibble first, at <= 4 bits."""
        entry = self.tensors[name]
        numel = int(np.prod(entry["shape"], dtype=np.int64))
        b = np.frombuffer(self._span(entry, "indices"), dtype=np.uint8)
        if self.bits > 4:
            return b[:numel]
        out = np.empty(2 * b.size, dtype=np.uint8)
        out[0::2] = b & 0x0F
        out[1::2] = b >> 4
        return out[:numel]

    def preserved_raw(self, name: str) -> np.ndarray:
        """A preserved tensor's stored elements in their source dtype."""
        entry = self.tensors[name]
        return np.frombuffer(self._span(entry, "data"), dtype=_RAW_DTYPE[entry["dtype"]])

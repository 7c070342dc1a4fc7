"""Readers for mtlab's output files, written from the documented formats.

The checks read run outputs through these functions rather than through
mtlab's own loaders, so a fault in a loader cannot hide a fault in a writer.
Binary containers: 4-byte magic, u16 version, little-endian fields, tensors
as dtype u8 (0 = f64, 1 = i32) / ndim u8 / u32 extents / payload, and a
trailing CRC32 of everything before it.
"""

from __future__ import annotations

import csv
import struct
import zlib
from pathlib import Path

import numpy as np

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i4")}
KIND_NAMES = {0: "classification", 1: "binary-segmentation", 2: "instance-segmentation"}


class FormatError(ValueError):
    pass


class _Fields:
    def __init__(self, path, magic: bytes, version: int):
        data = Path(path).read_bytes()
        if len(data) < 10 or data[:4] != magic:
            raise FormatError(f"{path}: not a {magic.decode()} file")
        if struct.unpack_from("<H", data, 4)[0] != version:
            raise FormatError(f"{path}: unexpected version")
        if zlib.crc32(data[:-4]) != struct.unpack_from("<I", data, len(data) - 4)[0]:
            raise FormatError(f"{path}: CRC32 mismatch")
        self.path = path
        self.data = data
        self.pos = 6

    def _unpack(self, fmt: str):
        (v,) = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += struct.calcsize(fmt)
        return v

    def u8(self):
        return self._unpack("<B")

    def u16(self):
        return self._unpack("<H")

    def u32(self):
        return self._unpack("<I")

    def u64(self):
        return self._unpack("<Q")

    def f64(self):
        return self._unpack("<d")

    def string(self) -> str:
        n = self.u16()
        s = self.data[self.pos:self.pos + n].decode("utf-8")
        self.pos += n
        return s

    def tensor(self) -> np.ndarray:
        dtype = _DTYPES[self.u8()]
        shape = tuple(self.u32() for _ in range(self.u8()))
        count = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += count * dtype.itemsize
        return arr.reshape(shape).astype(dtype.newbyteorder("="))

    def end(self):
        if self.pos != len(self.data) - 4:
            raise FormatError(f"{self.path}: {len(self.data) - 4 - self.pos} unread bytes")


def read_checkpoint(path) -> dict:
    """{"seed", "t", "groups": {name: {"t", "lr", "params": {id: (theta, m, v)}}}}"""
    r = _Fields(path, b"MTLC", 1)
    out = {"seed": r.u64(), "t": r.u64(), "groups": {}}
    for _ in range(r.u16()):
        name = r.string()
        lr, _b1, _b2, _eps = r.f64(), r.f64(), r.f64(), r.f64()
        group = {"lr": lr, "t": r.u64(), "params": {}}
        for _ in range(r.u32()):
            pid = r.string()
            group["params"][pid] = (r.tensor(), r.tensor(), r.tensor())
        out["groups"][name] = group
    r.end()
    return out


def read_trace(path) -> dict:
    """{"num_tasks", "dim", "mode", "sketch_dim", "t", "task", "vecs"}"""
    r = _Fields(path, b"MTLG", 1)
    out = {"num_tasks": r.u16(), "dim": r.u32(), "mode": r.string(),
           "sketch_dim": r.u32(), "sketch_seed": r.u64()}
    n = r.u32()
    out["t"], out["task"], out["vecs"] = r.tensor(), r.tensor(), r.tensor()
    r.end()
    if not len(out["t"]) == len(out["task"]) == len(out["vecs"]) == n:
        raise FormatError(f"{path}: entry count {n} does not match the arrays")
    return out


def read_dataset(path) -> dict:
    """{"task_id", "name", "kind", "num_classes", "inputs", "split", ...targets}"""
    r = _Fields(path, b"MTLD", 1)
    out = {"task_id": r.u16(), "name": r.string(), "kind": KIND_NAMES[r.u8()],
           "num_classes": r.u16()}
    out["input_shape"] = tuple(r.u32() for _ in range(r.u8()))
    out["seed"] = r.u64()
    n = r.u32()
    out["split"], out["inputs"] = r.tensor(), r.tensor()
    if out["kind"] == "instance-segmentation":
        out["id_maps"] = r.tensor()
        out["class_tables"] = [r.tensor() for _ in range(n)]
    else:
        out["targets"] = r.tensor()
    r.end()
    return out


def read_csv(path) -> list[dict]:
    """Rows of a CSV output as dicts; '#' comment lines are skipped."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))

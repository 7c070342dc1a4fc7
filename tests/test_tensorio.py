import struct
import zlib

import numpy as np
import pytest

from mtlab import tensorio
from mtlab.tensorio import BlockWriter, append_frame

MAGIC, VERSION = b"TEST", 7

FIELDS = [
    ("u8", 255),
    ("u16", 3),
    ("string", "grad trace ü"),
    ("tensor", np.zeros((0, 5))),                                      # empty
    ("tensor", np.arange(24.0).reshape(4, 6)[:, ::2]),                 # not contiguous
    ("tensor", np.asfortranarray(np.arange(6.0).reshape(2, 3))),       # column-major
    ("tensor", np.arange(-3, 3, dtype=np.int32).reshape(2, 3)),
    ("tensor", np.asarray(2.5)),                                       # 0-d
    ("u32", 2**32 - 1),
    ("u64", 2**40 + 1),
    ("f64", -0.5),
]

_SCALAR_FORMATS = {"u8": "<B", "u16": "<H", "u32": "<I", "u64": "<Q", "f64": "<d"}


def _reference_bytes(fields) -> bytes:
    """The block layout encoded by hand, field by field, with one CRC32 at the end."""
    body = bytearray(MAGIC + struct.pack("<H", VERSION))
    for kind, v in fields:
        if kind == "tensor":
            code = {np.dtype(np.float64): 0, np.dtype(np.int32): 1}[v.dtype]
            body += struct.pack("<BB", code, v.ndim)
            body += b"".join(struct.pack("<I", d) for d in v.shape)
            body += v.astype(v.dtype.newbyteorder("<")).tobytes(order="C")
        elif kind == "string":
            raw = v.encode("utf-8")
            body += struct.pack("<H", len(raw)) + raw
        else:
            body += struct.pack(_SCALAR_FORMATS[kind], v)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def _writer(fields=FIELDS) -> BlockWriter:
    w = BlockWriter(MAGIC, VERSION)
    for kind, v in fields:
        getattr(w, kind)(v)
    return w


def test_to_bytes_equals_the_reference_encoding():
    assert _writer().to_bytes() == _reference_bytes(FIELDS)


@pytest.mark.parametrize("old", [None, b"", b"x" * 10, b"x" * 100_000],
                         ids=["rename", "in_place_new", "in_place_shorter", "in_place_longer"])
def test_save_streams_the_reference_bytes(tmp_path, old):
    path = tmp_path / "block.bin"
    if old is not None:
        path.write_bytes(old)
    _writer().save(path, in_place=old is not None)
    assert path.read_bytes() == _reference_bytes(FIELDS)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_append_frame_streams_length_then_reference_bytes(tmp_path):
    path = tmp_path / "journal"
    append_frame(path, _writer())
    append_frame(path, _writer(FIELDS[:4]))
    first, second = _reference_bytes(FIELDS), _reference_bytes(FIELDS[:4])
    assert path.read_bytes() == (struct.pack("<I", len(first)) + first
                                 + struct.pack("<I", len(second)) + second)


def test_write_failing_midway_keeps_the_previous_file_and_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "block.bin"
    _writer(FIELDS[:3]).save(path)
    before = path.read_bytes()
    real_open = open

    class DiskFillsUp:
        """A file that takes 40 bytes and then fails as a full disk would."""

        def __init__(self, file, mode):
            self._fh = real_open(file, mode)
            self._left = 40

        def write(self, part):
            n = memoryview(part).nbytes
            if n > self._left:
                raise OSError(28, "No space left on device")
            self._left -= n
            return self._fh.write(part)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr(tensorio, "open", DiskFillsUp, raising=False)
    with pytest.raises(OSError):
        _writer().save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

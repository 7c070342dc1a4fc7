"""Binary block format shared by dataset, checkpoint, mask and trace files.

Layout of every file: 4-byte magic, version u16, a sequence of fields
(integers little-endian, strings u16-length-prefixed UTF-8, tensors as
dtype u8 / ndim u8 / dims u32 / row-major payload), then a trailing CRC32
of all preceding bytes. A journal file is a sequence of frames, each a u32
length and then one such container.
"""

from __future__ import annotations

import io
import os
import struct
import zlib

import numpy as np

DTYPE_F64 = 0
DTYPE_I32 = 1

_NP_DTYPES = {DTYPE_F64: np.dtype("<f8"), DTYPE_I32: np.dtype("<i4")}


class FileFormatError(ValueError):
    """Base error for malformed container files; messages start with the file name."""


class BadMagicError(FileFormatError):
    pass


class VersionMismatchError(FileFormatError):
    pass


class TruncatedFileError(FileFormatError):
    """File ends (or a length field points) past the available bytes."""

    def __init__(self, source: str, offset: int, wanted: int, available: int):
        self.offset = offset
        super().__init__(
            f"{source}: truncated/corrupt file: need {wanted} bytes at offset {offset}, "
            f"only {available} available"
        )


class ChecksumError(FileFormatError):
    pass


class BlockWriter:
    """Accumulates fields; writing them appends the CRC32 trailer.

    Integers and strings are packed as they come. A tensor is kept as a
    contiguous little-endian array, not as a copy of its bytes: `save` and
    `append_frame` stream the parts to the file with a running CRC32, so a
    write holds no second copy of the payload. An array passed to `tensor`
    must not be modified until the block is written.
    """

    def __init__(self, magic: bytes, version: int):
        if len(magic) != 4:
            raise ValueError("magic must be 4 bytes")
        self._parts = [magic, struct.pack("<H", version)]

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._parts.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self._parts.append(struct.pack("<d", v))

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("string too long for u16 length prefix")
        self.u16(len(raw))
        self._parts.append(raw)

    def tensor(self, arr: np.ndarray) -> None:
        if arr.dtype == np.float64:
            code = DTYPE_F64
        elif arr.dtype == np.int32:
            code = DTYPE_I32
        else:
            raise ValueError(f"unsupported tensor dtype {arr.dtype}; use float64 or int32")
        if arr.ndim > 0xFF:
            raise ValueError("too many dimensions")
        self.u8(code)
        self.u8(arr.ndim)
        for d in arr.shape:
            self.u32(d)
        self._parts.append(np.ascontiguousarray(arr, dtype=_NP_DTYPES[code]))

    def _nbytes(self) -> int:
        """Length of the block, CRC32 trailer included."""
        return sum(memoryview(p).nbytes for p in self._parts) + 4

    def _write(self, fh) -> None:
        """Write the fields, then their CRC32, to the binary file `fh`."""
        crc = 0
        for part in self._parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self._write(buf)
        return buf.getvalue()

    def save(self, path, in_place: bool = False) -> None:
        """Write `<path>.tmp` beside `path`, then rename it over `path`, so a
        failed write leaves any previous file whole and no temp file behind.

        With `in_place`, overwrite `path` itself instead: open it without
        truncating, write, and cut it only if it was longer. Neither renaming
        over a file nor truncating it to zero happens, so ext4 does not flush
        the new data on close (its `auto_da_alloc` heuristic); the caller
        must keep another copy, since a failed write leaves `path` torn.
        """
        if in_place:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            with os.fdopen(fd, "wb") as fh:
                self._write(fh)
                if os.fstat(fd).st_size > fh.tell():
                    fh.truncate()
            return
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "wb") as fh:
                self._write(fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


class BlockReader:
    """Validates magic and version up front, CRC32 when `finish` is called.

    Field reads running past the end raise TruncatedFileError with the
    offending offset, so a cut-off file is rejected before any state is built.
    Every error message starts with `source`, the name of the file read.
    """

    def __init__(self, data: bytes, magic: bytes, version: int, source: str):
        self.source = source
        if len(data) < 4:
            raise TruncatedFileError(source, 0, 4, len(data))
        if data[:4] != magic:
            raise BadMagicError(f"{source}: bad magic {data[:4]!r}, expected {magic!r}")
        if len(data) < 10:
            raise TruncatedFileError(source, 4, 6, len(data) - 4)
        (got_version,) = struct.unpack_from("<H", data, 4)
        if got_version != version:
            raise VersionMismatchError(
                f"{source}: format version {got_version}, expected {version}")
        self._data = data
        self._pos = 6
        self._end = len(data) - 4  # CRC trailer excluded from field area

    def _take(self, n: int) -> bytes:
        if self._pos + n > self._end:
            raise TruncatedFileError(self.source, self._pos, n, self._end - self._pos)
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def string(self) -> str:
        n = self.u16()
        raw = self._take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{self.source}: string at offset {self._pos - n} "
                                  f"is not UTF-8") from None

    def tensor(self) -> np.ndarray:
        code = self.u8()
        if code not in _NP_DTYPES:
            raise FileFormatError(
                f"{self.source}: unknown tensor dtype code {code} at offset {self._pos - 1}")
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        count = 1
        for d in shape:
            count *= d
        raw = self._take(count * _NP_DTYPES[code].itemsize)
        arr = np.frombuffer(raw, dtype=_NP_DTYPES[code]).reshape(shape)
        return arr.astype(arr.dtype.newbyteorder("="), copy=True)

    def finish(self) -> None:
        """Require all field bytes consumed and the CRC trailer to match."""
        if self._pos != self._end:
            raise FileFormatError(
                f"{self.source}: trailing bytes: parsing stopped at offset {self._pos}, "
                f"field area ends at {self._end}"
            )
        (stored,) = struct.unpack_from("<I", self._data, self._end)
        actual = zlib.crc32(self._data[: self._end])
        if stored != actual:
            raise ChecksumError(f"{self.source}: CRC32 mismatch: stored {stored:#010x}, "
                                f"computed {actual:#010x}")


def append_frame(path, w: BlockWriter) -> None:
    """Append `w`'s bytes to `path` as one frame: a u32 length, then the bytes."""
    with open(path, "ab") as fh:
        fh.write(struct.pack("<I", w._nbytes()))
        w._write(fh)


def read_frames(path, magic: bytes, version: int) -> list[tuple[BlockReader, int]]:
    """The frames of `path` in order, each with the file offset where it ends.

    Reading stops at the first frame that is cut off or fails its magic,
    version or CRC: that is the tail of an append that did not finish.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    frames, pos = [], 0
    while pos + 4 <= len(data):
        (n,) = struct.unpack_from("<I", data, pos)
        end = pos + 4 + n
        if end > len(data) or n < 10:
            break
        body = data[pos + 4:end]
        if struct.unpack_from("<I", body, n - 4)[0] != zlib.crc32(body[:-4]):
            break
        try:
            frames.append((BlockReader(body, magic, version, str(path)), end))
        except FileFormatError:
            break
        pos = end
    return frames


def read_file(path, magic: bytes, version: int) -> BlockReader:
    with open(path, "rb") as fh:
        return BlockReader(fh.read(), magic, version, str(path))

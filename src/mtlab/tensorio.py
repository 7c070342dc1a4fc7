"""Binary block format shared by dataset, checkpoint, mask and trace files.

Layout of every file: 4-byte magic, version u16, a sequence of fields
(integers little-endian, strings u16-length-prefixed UTF-8, tensors as
dtype u8 / ndim u8 / dims u32 / row-major payload), then a trailing CRC32
of all preceding bytes. A journal file is a sequence of frames, each a u32
length and then one such container. Writers stream the fields to the file
and readers read them from it in one pass, each with a running CRC32, so
neither holds a second copy of a tensor's payload.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from contextlib import contextmanager
from itertools import chain

import numpy as np

DTYPE_F64 = 0
DTYPE_I32 = 1

_NP_DTYPES = {DTYPE_F64: np.dtype("<f8"), DTYPE_I32: np.dtype("<i4")}

_SKIP_CHUNK = 1 << 20  # bytes read at a time past payload that is not kept (or one row)


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
    contiguous little-endian array, not as a copy of its bytes, and the rows
    given to `tensor_rows` are taken only as the block is written: `save`
    and `append_frame` stream the parts to the file with a running CRC32, so
    a write holds no second copy of the payload. An array passed to `tensor`
    must not be modified until the block is written, and a block with
    `tensor_rows` can be written only once.
    """

    def __init__(self, magic: bytes, version: int):
        if len(magic) != 4:
            raise ValueError("magic must be 4 bytes")
        self._parts = []   # iterables of buffers, written in order
        self._size = 4     # bytes of the block, CRC32 trailer included
        self._add(magic)
        self._add(struct.pack("<H", version))

    def _add(self, buf) -> None:
        self._parts.append((buf,))
        self._size += memoryview(buf).nbytes

    def u8(self, v: int) -> None:
        self._add(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._add(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self._add(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._add(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self._add(struct.pack("<d", v))

    def string(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("string too long for u16 length prefix")
        self.u16(len(raw))
        self._add(raw)

    def _tensor_header(self, code: int, shape: tuple) -> None:
        if len(shape) > 0xFF:
            raise ValueError("too many dimensions")
        self.u8(code)
        self.u8(len(shape))
        for d in shape:
            self.u32(d)

    def tensor(self, arr: np.ndarray) -> None:
        if arr.dtype == np.float64:
            code = DTYPE_F64
        elif arr.dtype == np.int32:
            code = DTYPE_I32
        else:
            raise ValueError(f"unsupported tensor dtype {arr.dtype}; use float64 or int32")
        self._tensor_header(code, arr.shape)
        self._add(np.ascontiguousarray(arr, dtype=_NP_DTYPES[code]))

    def tensor_rows(self, n: int, dim: int, rows) -> None:
        """An (n, dim) float64 tensor whose payload is the arrays that `rows`
        yields (rows or blocks of rows, in order), each written as it comes
        instead of being stacked into one array. The write fails if they do
        not hold n * dim values in all."""
        self._tensor_header(DTYPE_F64, (n, dim))
        self._parts.append(_float64_buffers(rows, n * dim))
        self._size += n * dim * 8

    def _write(self, fh) -> None:
        """Write the fields, then their CRC32, to the binary file `fh`."""
        crc = 0
        for buf in chain.from_iterable(self._parts):
            fh.write(buf)
            crc = zlib.crc32(buf, crc)
        fh.write(struct.pack("<I", crc))

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self._write(buf)
        return buf.getvalue()

    def save(self, path, in_place: bool = False) -> None:
        """Write `path` through `replacing`, so a failed write leaves any
        previous file whole and no temp file behind.

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
        with replacing(path) as fh:
            self._write(fh)


@contextmanager
def replacing(path, mode: str = "wb"):
    """A file opened as `<path>.tmp` beside `path` and renamed over `path` when
    the block exits cleanly, so a failed write leaves any previous file whole
    and no temp file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _float64_buffers(rows, count: int):
    """The arrays of `rows` as contiguous little-endian float64 buffers; raises
    ValueError unless they hold `count` values in all."""
    left = count
    for row in rows:
        buf = np.ascontiguousarray(row, dtype=_NP_DTYPES[DTYPE_F64])
        left -= buf.size
        if left < 0:
            break
        yield buf
    if left:
        raise ValueError(f"tensor rows hold {count - left} values, not the {count} declared")


class BlockReader:
    """Reads one container's fields from an open binary file in one pass.

    The container's length is known up front. Magic and version are checked
    at once; every byte read goes into a running CRC32, which `finish`
    compares with the trailer. A field read running past the end raises
    TruncatedFileError with the offending offset before anything is read or
    allocated, so a cut-off file is rejected before any state is built, and
    a tensor's payload is read straight into its array. Every error message
    starts with `source`, the name of the file read. A reader from
    `read_file` owns its file: use it as a context manager.
    """

    def __init__(self, fh, size: int, magic: bytes, version: int, source: str):
        self.source = source
        self._fh = fh
        self._pos = 0
        self._crc = 0
        if size < 4:
            raise TruncatedFileError(source, 0, 4, size)
        got = self._read(4)
        if got != magic:
            raise BadMagicError(f"{source}: bad magic {got!r}, expected {magic!r}")
        if size < 10:
            raise TruncatedFileError(source, 4, 6, size - 4)
        (got_version,) = struct.unpack("<H", self._read(2))
        if got_version != version:
            raise VersionMismatchError(
                f"{source}: format version {got_version}, expected {version}")
        self._end = size - 4  # CRC trailer excluded from field area

    def __enter__(self) -> "BlockReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _check(self, n: int) -> None:
        if self._pos + n > self._end:
            raise TruncatedFileError(self.source, self._pos, n, self._end - self._pos)

    def _readinto(self, buf) -> None:
        """Fill `buf` from the file and add it to the CRC32."""
        got = self._fh.readinto(buf)
        n = memoryview(buf).nbytes
        if got != n:  # the file got shorter while it was read
            raise TruncatedFileError(self.source, self._pos, n, got)
        self._crc = zlib.crc32(buf, self._crc)
        self._pos += n

    def _read(self, n: int) -> bytes:
        buf = bytearray(n)
        self._readinto(buf)
        return bytes(buf)

    def _take(self, n: int) -> bytes:
        self._check(n)
        return self._read(n)

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

    def _tensor_header(self) -> tuple[np.dtype, tuple[int, ...], int]:
        """dtype, shape and payload bytes of the next tensor, checked to fit."""
        code = self.u8()
        if code not in _NP_DTYPES:
            raise FileFormatError(
                f"{self.source}: unknown tensor dtype code {code} at offset {self._pos - 1}")
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        nbytes = _NP_DTYPES[code].itemsize
        for d in shape:
            nbytes *= d
        self._check(nbytes)
        return _NP_DTYPES[code], shape, nbytes

    def tensor(self) -> np.ndarray:
        dtype, shape, _ = self._tensor_header()
        arr = np.empty(shape, dtype)
        self._readinto(arr.reshape(-1).view(np.uint8))
        return arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))

    def tensor_rows(self, keep: np.ndarray, seen=None) -> np.ndarray:
        """The rows of the next tensor that the boolean vector `keep` marks, in
        file order; `keep` has one entry per row. Each run of kept rows is read
        straight into the array and each run of other rows through a buffer of
        whole rows, so every byte still goes into the CRC32. `seen(start, rows)`,
        if given, is called with every block of rows read, kept or not, in file
        order: `start` is the index of its first row, and `rows` is valid only
        during the call."""
        dtype, shape, _ = self._tensor_header()
        if shape[:1] != keep.shape:
            raise FileFormatError(f"{self.source}: the tensor at offset {self._pos} has shape "
                                  f"{shape}, not {len(keep)} rows to choose from")
        row = dtype.itemsize * math.prod(shape[1:])
        arr = np.empty((np.count_nonzero(keep), *shape[1:]), dtype)
        out = arr.reshape(-1).view(np.uint8)
        # where each run of equal `keep` values ends
        ends = [*(np.flatnonzero(keep[1:] != keep[:-1]) + 1).tolist(), len(keep)]
        start = kept = 0
        for end in ends if len(keep) else ():
            if keep[start]:
                self._readinto(out[kept * row:(kept + end - start) * row])
                if seen is not None:
                    seen(start, arr[kept:kept + end - start])
                kept += end - start
            else:
                first = start
                for buf in self._chunks((end - start) * row, row):
                    if seen is not None:
                        seen(first, np.frombuffer(buf, dtype).reshape(-1, *shape[1:]))
                    first += len(buf) // row
            start = end
        return arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))

    def _chunks(self, left: int, row: int = 1):
        """Read `left` bytes into the CRC32 through one buffer of whole rows of
        `row` bytes, yielding each chunk read; a chunk is valid until the next."""
        chunk = memoryview(bytearray(min(left, max(_SKIP_CHUNK // max(row, 1), 1) * row)))
        while left:
            n = min(left, len(chunk))
            self._readinto(chunk[:n])
            left -= n
            yield chunk[:n]

    def skip_tensor(self) -> tuple[int, ...]:
        """Read past the next tensor, its bytes still checked by the CRC32, without
        keeping its payload; returns its shape."""
        _, shape, left = self._tensor_header()
        for _ in self._chunks(left):
            pass
        return shape

    def finish(self) -> int:
        """Require all field bytes consumed and the CRC trailer to match; returns
        the CRC32."""
        if self._pos != self._end:
            raise FileFormatError(
                f"{self.source}: trailing bytes: parsing stopped at offset {self._pos}, "
                f"field area ends at {self._end}"
            )
        raw = self._fh.read(4)
        if len(raw) != 4:
            raise TruncatedFileError(self.source, self._pos, 4, len(raw))
        (stored,) = struct.unpack("<I", raw)
        if stored != self._crc:
            raise ChecksumError(f"{self.source}: CRC32 mismatch: stored {stored:#010x}, "
                                f"computed {self._crc:#010x}")
        return stored


def append_frame(path, w: BlockWriter) -> None:
    """Append `w`'s bytes to `path` as one frame: a u32 length, then the bytes."""
    with open(path, "ab") as fh:
        fh.write(struct.pack("<I", w._size))
        w._write(fh)


def read_frames(path, magic: bytes, version: int, parse):
    """Yield `(parse(reader), end)` for the frames of `path` in order, one at a
    time, where `reader` is the frame's BlockReader and `end` the file offset
    where the frame ends.

    A frame's value is yielded only once its CRC has matched. Reading stops
    at the first frame that is cut off, fails its magic, version or CRC, or
    that `parse` rejects with a FileFormatError: that is the tail of an
    append that did not finish.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0
        while pos + 4 <= size:
            (n,) = struct.unpack("<I", fh.read(4))
            end = pos + 4 + n
            if end > size or n < 10:
                return
            try:
                r = BlockReader(fh, n, magic, version, str(path))
                value = parse(r)
                r.finish()
            except FileFormatError:
                return
            yield value, end
            pos = end


def read_file(path, magic: bytes, version: int) -> BlockReader:
    """A reader of the file at `path`, its magic and version checked; it owns the
    open file, so read it in a `with` block."""
    fh = open(path, "rb")
    try:
        return BlockReader(fh, os.fstat(fh.fileno()).st_size, magic, version, str(path))
    except BaseException:
        fh.close()
        raise

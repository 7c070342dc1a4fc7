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


# ---------------------------------------------------------------------------
# reading

class _WholeFileReader:
    """The reader as it was before reads streamed: the whole file in one bytes
    object, a slice per field. It is the reference for errors and offsets."""

    def __init__(self, data: bytes, magic: bytes, version: int, source: str):
        self.source = source
        if len(data) < 4:
            raise tensorio.TruncatedFileError(source, 0, 4, len(data))
        if data[:4] != magic:
            raise tensorio.BadMagicError(f"{source}: bad magic {data[:4]!r}, "
                                         f"expected {magic!r}")
        if len(data) < 10:
            raise tensorio.TruncatedFileError(source, 4, 6, len(data) - 4)
        (got_version,) = struct.unpack_from("<H", data, 4)
        if got_version != version:
            raise tensorio.VersionMismatchError(
                f"{source}: format version {got_version}, expected {version}")
        self._data, self._pos, self._end = data, 6, len(data) - 4

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def _take(self, n):
        if self._pos + n > self._end:
            raise tensorio.TruncatedFileError(self.source, self._pos, n, self._end - self._pos)
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self):
        return self._take(1)[0]

    def u16(self):
        return struct.unpack("<H", self._take(2))[0]

    def u32(self):
        return struct.unpack("<I", self._take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8))[0]

    def string(self):
        return self._take(self.u16()).decode("utf-8")

    def tensor(self):
        dtype = {0: np.dtype("<f8"), 1: np.dtype("<i4")}[self.u8()]
        shape = tuple(self.u32() for _ in range(self.u8()))
        raw = self._take(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))

    def finish(self):
        if self._pos != self._end:
            raise tensorio.FileFormatError(f"{self.source}: trailing bytes")
        (stored,) = struct.unpack_from("<I", self._data, self._end)
        if stored != zlib.crc32(self._data[:self._end]):
            raise tensorio.ChecksumError(f"{self.source}: CRC32 mismatch")
        return stored


def _whole_file_read(path, magic, version):
    with open(path, "rb") as fh:
        return _WholeFileReader(fh.read(), magic, version, str(path))


def _small_files(tmp_path):
    """A dataset (instance task, so with class tables), a checkpoint and a trace
    file of a few hundred bytes to a few KB each, with the loader of each."""
    from mtlab.tasks import (KIND_INSTANCE_SEG, gen_segmentation_task, load_dataset,
                             save_dataset)
    from mtlab.trainer import (SamplerConfig, TrainConfig, load_checkpoint, load_trace,
                               save_checkpoint, save_trace, train)

    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 8, 2, 2, 2, 1, seed=3, task_id=0)
    save_dataset(tmp_path / "task.mtld", ds)
    store, enc, decs, states = _tiny_models([ds])
    log = train([ds], enc, decs, store, states, SamplerConfig.uniform(1),
                TrainConfig(iterations=3, batch_size=2, seed=4, diagnostics="exact"))
    save_checkpoint(tmp_path / "ck.mtlc", store, states, seed=4, t=3)
    save_trace(tmp_path / "trace.mtlg", log.trace)
    return [(tmp_path / "task.mtld", load_dataset), (tmp_path / "ck.mtlc", load_checkpoint),
            (tmp_path / "trace.mtlg", load_trace)]


def _tiny_models(tasks):
    from mtlab.model import Activation, Conv, GlobalAvgPool, ParamStore, build_encoder
    from mtlab.trainer import build_decoders, init_adam_states

    store, rng = ParamStore(), np.random.default_rng(5)
    enc = build_encoder([Conv(2, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        tasks[0].spec.input_shape, store, rng)
    return store, enc, build_decoders(tasks, enc, store, rng), init_adam_states(store)


def _error(load, path):
    try:
        load(path)
    except tensorio.FileFormatError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)
    return None


def test_every_truncation_raises_as_the_whole_file_reader_did(tmp_path, monkeypatch):
    from mtlab import tasks, trainer

    for path, load in _small_files(tmp_path):
        data = path.read_bytes()
        cut = tmp_path / f"cut_{path.name}"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            got = _error(load, cut)
            with monkeypatch.context() as m:
                m.setattr(tasks, "read_file", _whole_file_read)
                m.setattr(trainer, "read_file", _whole_file_read)
                want = _error(load, cut)
            assert got is not None and got[0] is tensorio.TruncatedFileError, (path.name, n)
            assert got == want, (path.name, n)


def test_a_flipped_payload_byte_is_a_checksum_error(tmp_path):
    for path, load in _small_files(tmp_path):
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x10  # the last byte of the last tensor's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(tensorio.ChecksumError, match=path.name):
            load(path)


def test_the_file_is_closed_on_every_path(tmp_path, monkeypatch):
    from mtlab.tasks import load_dataset

    files = _small_files(tmp_path)
    opened = []
    real_open = open

    def tracking_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(tensorio, "open", tracking_open, raising=False)
    for path, load in files:
        good = path.read_bytes()
        bad_kind = bytearray(good)
        bad_kind[6 + 2 + 2 + len("shapes_instance_t0")] = 9  # the dataset's kind code
        flipped = good[:-5] + bytes([good[-5] ^ 1]) + good[-4:]
        variants = [good, good[:len(good) // 2], good[:5], b"XXXX" + good[4:],
                    good[:4] + b"\x09\x00" + good[6:], flipped, good + b"\x00"]
        if path.suffix == ".mtld":
            variants.append(bytes(bad_kind))
        for raw in variants:
            path.write_bytes(raw)
            _error(load, path)
        path.write_bytes(good)
        load(path)
    assert len(opened) == sum(8 if p.suffix == ".mtld" else 7 for p, _ in files) + 3
    assert all(fh.closed for fh in opened)
    assert _error(load_dataset, files[0][0]) is None

    journal = tmp_path / "journal"
    for v in range(3):
        w = BlockWriter(MAGIC, VERSION)
        w.u32(v)
        append_frame(journal, w)
    frames = tensorio.read_frames(journal, MAGIC, VERSION, lambda r: r.u32())
    assert next(frames)[0] == 0
    frames.close()  # a reader that stops early
    assert [v for v, _ in tensorio.read_frames(journal, MAGIC, VERSION, lambda r: r.u32())] \
        == [0, 1, 2]
    assert all(fh.closed for fh in opened)


@pytest.mark.parametrize("kind", ["classification", "instance-segmentation"])
def test_load_dataset_allocates_the_payload_about_once(tmp_path, kind):
    import tracemalloc

    from mtlab.tasks import (gen_classification_task, gen_segmentation_task, load_dataset,
                             save_dataset)

    if kind == "classification":
        ds = gen_classification_task(4, (3, 32, 32), 160, 40, 0.3, seed=1)
    else:
        ds = gen_segmentation_task(kind, 32, 3, 3, 160, 40, seed=1)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    del ds
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded.inputs) == 200
    assert peak <= 1.2 * path.stat().st_size


def test_load_trace_allocates_the_payload_about_once(tmp_path):
    import tracemalloc

    from mtlab.diagnostics import GradTrace
    from mtlab.trainer import load_trace, save_trace

    trace = GradTrace(num_tasks=3, dim=2000)
    rng = np.random.default_rng(2)
    for t in range(1, 301):
        trace.append(t, t % 3, rng.standard_normal(2000))
    path = tmp_path / "trace.mtlg"
    save_trace(path, trace)
    del trace
    tracemalloc.start()
    try:
        loaded = load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded.entries) == 300
    assert peak <= 1.2 * path.stat().st_size


@pytest.mark.parametrize("keep", [
    [1, 0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1, 0],
    [],
], ids=["interleaved", "none", "all", "middle", "no-rows"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 100])
def test_tensor_rows_reads_the_kept_rows_and_shows_every_row(tmp_path, monkeypatch, keep,
                                                             chunk_rows):
    keep = np.array(keep, dtype=bool)
    arr = np.arange(len(keep) * 6, dtype=np.int32).reshape(len(keep), 2, 3)
    path = tmp_path / "t.bin"
    _writer([("tensor", arr), ("u8", 9)]).save(path)
    monkeypatch.setattr(tensorio, "_SKIP_CHUNK", chunk_rows * 24 + 5)  # whole rows only
    blocks = []
    with tensorio.read_file(path, MAGIC, VERSION) as r:
        got = r.tensor_rows(keep, lambda start, rows: blocks.append((start, rows.copy())))
        assert r.u8() == 9
        r.finish()
    assert got.shape == (keep.sum(), 2, 3) and got.tobytes() == arr[keep].tobytes()
    starts = [start for start, _ in blocks]
    assert starts == sorted(starts)
    assert np.concatenate([b for _, b in blocks] or [arr[:0]]).tobytes() == arr.tobytes()
    assert all(b.tobytes() == arr[start:start + len(b)].tobytes() for start, b in blocks)


def test_tensor_rows_wants_one_entry_per_row(tmp_path):
    path = tmp_path / "t.bin"
    _writer([("tensor", np.zeros((4, 2)))]).save(path)
    with tensorio.read_file(path, MAGIC, VERSION) as r:
        with pytest.raises(tensorio.FileFormatError, match=r"t\.bin: .*shape \(4, 2\), not 3 rows"):
            r.tensor_rows(np.ones(3, dtype=bool))


@pytest.mark.parametrize("split", ["train", "eval"])
def test_every_truncation_of_a_split_load_raises_as_a_whole_load_does(tmp_path, split):
    from mtlab.tasks import load_dataset

    path, _ = _small_files(tmp_path)[0]
    data = path.read_bytes()
    cut = tmp_path / "cut.mtld"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        got = _error(lambda p: load_dataset(p, split=split), cut)
        assert got is not None and got[0] is tensorio.TruncatedFileError, n
        assert got == _error(load_dataset, cut), n


def _saved(tmp_path, kind):
    from mtlab.tasks import gen_classification_task, gen_segmentation_task, save_dataset

    if kind == "classification":
        ds = gen_classification_task(4, (3, 32, 32), 40, 160, 0.3, seed=1)
    else:
        ds = gen_segmentation_task(kind, 32, 3, 3, 40, 160, seed=1)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    return path, ds


def _alloc_peak(load):
    import tracemalloc

    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["classification", "instance-segmentation"])
def test_a_train_split_load_allocates_the_kept_rows_about_once(tmp_path, kind):
    from mtlab.tasks import load_dataset

    path, ds = _saved(tmp_path, kind)
    idx = ds.indices("train")
    if kind == "classification":
        kept = ds.inputs[idx].nbytes + ds.targets[idx].nbytes
    else:  # inputs, id maps and the class tables (int32) of the kept rows
        kept = ds.inputs[idx].nbytes + ds.targets.ids[idx].nbytes \
            + 4 * int(ds.targets.counts()[idx].sum())
    del ds
    loaded, peak = _alloc_peak(lambda: load_dataset(path, split="train"))
    assert len(loaded.inputs) == 40
    bound = 1.2 * kept + tensorio._SKIP_CHUNK
    assert bound < 0.5 * path.stat().st_size  # a whole load would not pass
    assert peak <= bound, (peak, bound)


def test_a_truncated_split_load_fails_before_it_allocates(tmp_path):
    from mtlab.tasks import load_dataset

    path, _ = _saved(tmp_path, "classification")
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])  # inside the inputs' payload
    error, peak = _alloc_peak(lambda: _error(lambda p: load_dataset(p, split="train"), path))
    assert error[0] is tensorio.TruncatedFileError
    assert peak < 64 << 10

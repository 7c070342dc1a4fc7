import json

import numpy as np
import pytest
from scipy import ndimage

from mtlab.cli import build_suite
from mtlab.config import CLASSIFICATION_ARITIES, load_config
from mtlab.metrics import InstanceStack, panoptic_quality
from mtlab.tasks import (
    DATASET_MAGIC,
    DATASET_VERSION,
    EVAL,
    KIND_BINARY_SEG,
    KIND_CLASSIFICATION,
    KIND_INSTANCE_SEG,
    MASK_MAGIC,
    MASK_VERSION,
    TRAIN,
    TaskSpec,
    _blur,
    _example_rng,
    gen_classification_task,
    gen_segmentation_task,
    load_dataset,
    load_mask,
    read_header,
    sample_batch,
    save_dataset,
    save_mask,
)
from mtlab.tensorio import (
    BadMagicError,
    BlockWriter,
    ChecksumError,
    FileFormatError,
    TruncatedFileError,
    VersionMismatchError,
)


def _equal(a, b) -> bool:
    """Same spec, seed, split, inputs and targets."""
    if a.spec != b.spec or a.seed != b.seed:
        return False
    if not (np.array_equal(a.split, b.split) and np.array_equal(a.inputs, b.inputs)):
        return False
    if a.spec.kind == KIND_INSTANCE_SEG:
        return (np.array_equal(a.targets.ids, b.targets.ids)
                and np.array_equal(a.targets.labels, b.targets.labels))
    return np.array_equal(a.targets, b.targets)


def test_task_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown task kind"):
        TaskSpec(0, "bad", "regression", 3, (3, 8, 8))
    TaskSpec(1, "seg", KIND_BINARY_SEG, 1, (3, 8, 8))


# ---------------------------------------------------------------------------
# classification generator

# input shapes load_config accepts (two or more sizes >= 1), down to images
# narrower than the blur's 8-pixel radius
BLUR_SHAPES = [(1, 1), (1, 1, 1), (3, 2, 30), (3, 32, 32), (7, 5), (40, 3), (3, 9, 8),
               (2, 3, 16, 16), (1, 17, 1), (4, 8, 9), (2, 1, 2, 3, 4)]


@pytest.mark.parametrize("shape", BLUR_SHAPES, ids=str)
def test_blur_has_the_bytes_of_scipys_gaussian_filter(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for _ in range(5):
        x = rng.standard_normal(shape)
        want = ndimage.gaussian_filter(x, sigma=(0,) * (len(shape) - 2) + (2.0, 2.0))
        got = _blur(x, sigma=2.0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(3, 32, 32), (1, 8, 8), (2, 3, 5, 7)], ids=str)
def test_classification_prototypes_are_scipys_blur_of_each_draw(shape):
    """The prototypes, drawn and blurred as one (K, *shape) array, are each
    draw blurred by scipy and scaled by its own std, as one draw at a time."""
    ds = gen_classification_task(3, shape, 3, 1, difficulty=0.0, seed=14)
    rng = _example_rng(14, 0)
    for k in range(3):
        p = ndimage.gaussian_filter(rng.standard_normal(shape),
                                    sigma=(0,) * (len(shape) - 2) + (2.0, 2.0))
        assert ds.inputs[ds.targets == k][0].tobytes() == (p / p.std()).tobytes()


def test_classification_linear_probe_at_zero_difficulty():
    ds = gen_classification_task(2, (3, 16, 16), 64, 40, difficulty=0.0, seed=5)
    tr = ds.indices("train")
    ev = ds.indices("eval")
    x_tr = ds.inputs[tr].reshape(len(tr), -1)
    x_ev = ds.inputs[ev].reshape(len(ev), -1)
    onehot = np.eye(2)[ds.targets[tr]]
    w, *_ = np.linalg.lstsq(np.c_[x_tr, np.ones(len(tr))], onehot, rcond=None)
    pred = (np.c_[x_ev, np.ones(len(ev))] @ w).argmax(axis=1)
    assert np.mean(pred == ds.targets[ev]) >= 0.95


def test_classification_zero_difficulty_is_exactly_separable():
    # every example equals its class prototype, so per-class inputs coincide
    ds = gen_classification_task(3, (1, 8, 8), 30, 9, difficulty=0.0, seed=2)
    for c in range(3):
        xs = ds.inputs[ds.targets == c]
        assert np.all(xs == xs[0])


def test_classification_deterministic():
    a = gen_classification_task(4, (3, 8, 8), 32, 16, 0.5, seed=9)
    b = gen_classification_task(4, (3, 8, 8), 32, 16, 0.5, seed=9)
    assert _equal(a, b)
    c = gen_classification_task(4, (3, 8, 8), 32, 16, 0.5, seed=10)
    assert not _equal(a, c)


def test_classification_label_balance():
    ds = gen_classification_task(5, (1, 8, 8), 52, 23, 0.3, seed=1)
    for split in ("train", "eval"):
        idx = ds.indices(split)
        counts = np.bincount(ds.targets[idx], minlength=5)
        assert counts.max() - counts.min() <= 1


def test_classification_invalid_args():
    with pytest.raises(ValueError):
        gen_classification_task(1, (3, 8, 8), 16, 8, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_classification_task(4, (3, 8, 8), 3, 8, 0.1, seed=0)


def test_splits_disjoint():
    ds = gen_classification_task(2, (1, 8, 8), 20, 10, 0.1, seed=3)
    assert not set(ds.indices("train")) & set(ds.indices("eval"))
    assert len(ds.indices("train")) == 20
    assert len(ds.indices("eval")) == 10


# ---------------------------------------------------------------------------
# segmentation generator

def test_segmentation_mask_is_its_own_perfect_prediction():
    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 16, 3, 3, 8, 4, seed=7)
    for i in range(12):
        gt = ds.gt_masks([i])
        assert panoptic_quality(gt, gt, class_aware=True).pq[0] == 1.0


def test_segmentation_single_instance_cap():
    ds = gen_segmentation_task(KIND_BINARY_SEG, 16, 1, 1, 16, 4, seed=8)
    for i in range(20):
        n = len(set(np.unique(ds.gt_masks([i]).ids).tolist()) - {0})
        assert n <= 1


def test_segmentation_instances_disjoint_and_separated():
    # instance ids are one per pixel by construction; additionally no two
    # distinct nonzero ids may touch, even diagonally, across 1000 images
    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 32, 3, 3, 800, 200, seed=11)
    maps = ds.targets.ids

    def no_distinct_neighbors(a, b):
        clash = (a > 0) & (b > 0) & (a != b)
        assert not clash.any()

    no_distinct_neighbors(maps[:, :-1, :], maps[:, 1:, :])
    no_distinct_neighbors(maps[:, :, :-1], maps[:, :, 1:])
    no_distinct_neighbors(maps[:, :-1, :-1], maps[:, 1:, 1:])
    no_distinct_neighbors(maps[:, :-1, 1:], maps[:, 1:, :-1])


def test_segmentation_binary_targets_are_01():
    ds = gen_segmentation_task(KIND_BINARY_SEG, 16, 2, 1, 8, 4, seed=12)
    assert set(np.unique(ds.targets).tolist()) <= {0.0, 1.0}


def test_segmentation_invalid_args():
    with pytest.raises(ValueError):
        gen_segmentation_task(KIND_BINARY_SEG, 4, 1, 1, 8, 4, seed=0)
    with pytest.raises(ValueError):
        gen_segmentation_task(KIND_BINARY_SEG, 16, 0, 1, 8, 4, seed=0)
    with pytest.raises(ValueError):
        gen_segmentation_task("classification", 16, 1, 1, 8, 4, seed=0)


# ---------------------------------------------------------------------------
# sampling

class CountingRng:
    """Stub standing in for a Generator: integers() counts 0,1,2,..."""

    def integers(self, low, high, size):
        return np.arange(size) % (high - low) + low


def test_sample_batch_with_counting_stub_covers_every_index():
    ds = gen_classification_task(2, (1, 8, 8), 10, 4, 0.1, seed=4)
    x, y = sample_batch(ds, "train", 10, CountingRng())
    assert x.shape == (10, 1, 8, 8)
    np.testing.assert_array_equal(
        x.data, ds.inputs[ds.indices("train")])


def test_sample_batch_deterministic_for_same_rng_state():
    ds = gen_classification_task(3, (1, 8, 8), 30, 9, 0.2, seed=6)
    x1, y1 = sample_batch(ds, "train", 8, np.random.default_rng(77))
    x2, y2 = sample_batch(ds, "train", 8, np.random.default_rng(77))
    assert x1.data.tobytes() == x2.data.tobytes()
    np.testing.assert_array_equal(y1, y2)


def test_sampled_labels_always_valid():
    ds = gen_classification_task(4, (1, 8, 8), 40, 12, 0.2, seed=13)
    rng = np.random.default_rng(0)
    for _ in range(100):
        _, y = sample_batch(ds, "train", 16, rng)
        assert y.min() >= 0 and y.max() < 4


def test_sample_batch_empty_split_rejected():
    ds = gen_classification_task(2, (1, 8, 8), 10, 4, 0.1, seed=4)
    ds.split[:] = 0
    ds.__post_init__()
    with pytest.raises(ValueError, match="empty"):
        sample_batch(ds, "eval", 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# file format

@pytest.mark.parametrize("make", [
    lambda: gen_classification_task(3, (3, 8, 8), 12, 6, 0.4, seed=21, task_id=2,
                                    name="roundtrip-cls"),
    lambda: gen_segmentation_task(KIND_BINARY_SEG, 16, 2, 1, 6, 3, seed=22, task_id=3),
    lambda: gen_segmentation_task(KIND_INSTANCE_SEG, 16, 3, 3, 6, 3, seed=23, task_id=4),
])
def test_dataset_round_trip(tmp_path, make):
    ds = make()
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert _equal(loaded, ds)
    assert loaded.spec == ds.spec


def test_dataset_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.mtld", tmp_path / "b.mtld"
    save_dataset(p1, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=31))
    save_dataset(p2, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=31))
    assert p1.read_bytes() == p2.read_bytes()


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "task.mtld"
    save_dataset(path, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=32))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_dataset(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "task.mtld"
    save_dataset(path, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=33))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_dataset(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "task.mtld"
    save_dataset(path, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=34))
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_dataset(path)


def test_truncated_file_rejected_with_offset(tmp_path):
    path = tmp_path / "task.mtld"
    save_dataset(path, gen_classification_task(2, (1, 8, 8), 8, 4, 0.2, seed=35))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError) as exc:
        load_dataset(path)
    assert exc.value.offset > 0


def _saved_instance_task(tmp_path, corrupt):
    """An instance task saved after `corrupt(targets, example)` edits one example."""
    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 16, 3, 3, 6, 3, seed=36, task_id=4)
    example = 5
    corrupt(ds.targets, example)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    return path, example


def test_instance_class_past_num_classes_is_a_named_format_error(tmp_path):
    def corrupt(targets, i):
        targets.labels[np.flatnonzero(targets.labels[:, 0] == i)[0], 2] = 4  # 3 classes
    path, example = _saved_instance_task(tmp_path, corrupt)
    with pytest.raises(FileFormatError, match=f"example {example}: class table") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("past_table", [True, False], ids=["past-table", "negative"])
def test_instance_id_outside_its_class_table_is_a_named_format_error(tmp_path, past_table):
    def corrupt(targets, i):
        labeled = np.count_nonzero(targets.labels[:, 0] == i)
        targets.ids[i, 0, 0] = labeled + 1 if past_table else -1
    path, example = _saved_instance_task(tmp_path, corrupt)
    with pytest.raises(FileFormatError, match=f"example {example}: id map") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("kind", [KIND_BINARY_SEG, KIND_INSTANCE_SEG],
                         ids=["binary", "instance"])
def test_segmentation_targets_must_have_the_inputs_size(tmp_path, kind):
    ds = gen_segmentation_task(kind, 16, 2, 3 if kind == KIND_INSTANCE_SEG else 1, 6, 3,
                               seed=39)
    if kind == KIND_BINARY_SEG:
        ds.targets = ds.targets[:, :8, :8].copy()
    else:
        ds.targets = InstanceStack(ds.targets.ids[:, :8, :8], ds.targets.labels)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    with pytest.raises(FileFormatError, match=r"examples 0\.\.8: target maps have shape "
                                              r"\(8, 8\), not the inputs' height and "
                                              r"width \(16, 16\)") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


def test_instance_dataset_bytes_survive_save_load_save(tmp_path):
    first, second = tmp_path / "a.mtld", tmp_path / "b.mtld"
    save_dataset(first, gen_segmentation_task(KIND_INSTANCE_SEG, 16, 4, 3, 9, 5, seed=37))
    save_dataset(second, load_dataset(first))
    assert first.read_bytes() == second.read_bytes()


def test_instance_batch_targets_equal_per_example_class_tables():
    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 16, 4, 3, 9, 5, seed=38)
    labels = ds.targets.labels
    idx = np.array([3, 0, 3, 13, 7, 7, 7, 1])

    def reference(i):   # example i's table with a leading 0 for its background
        lut = np.concatenate([[0], labels[labels[:, 0] == i, 2]]).astype(np.int32)
        return lut[ds.targets.ids[i]]

    got = ds.batch_targets(idx)
    expected = np.stack([reference(i) for i in idx])
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def _write_classification(path, n, split, inputs, labels, input_shape):
    """A classification .mtld whose header and arrays are given one by one."""
    w = BlockWriter(DATASET_MAGIC, DATASET_VERSION)
    w.u16(0)
    w.string("rows")
    w.u8(0)                       # classification
    w.u16(2)
    w.u8(len(input_shape))
    for d in input_shape:
        w.u32(d)
    w.u64(1)
    w.u32(n)
    for arr in (split, inputs, labels):
        w.tensor(arr)
    w.save(path)


@pytest.mark.parametrize("what", ["split", "inputs", "targets", "input-shape"])
def test_dataset_rows_and_input_shape_must_match_the_header(tmp_path, what):
    ds = gen_classification_task(2, (1, 4, 4), 12, 4, 0.2, seed=39)
    arrays = {"split": ds.split, "inputs": ds.inputs, "targets": ds.targets}
    shape = (1, 4, 4)
    if what == "input-shape":
        shape, message = (1, 4, 5), "input shape"
    else:
        arrays[what] = arrays[what][:5]
        message = f"16 examples but {what} has shape \\(5,"
    path = tmp_path / "task.mtld"
    _write_classification(path, 16, arrays["split"], arrays["inputs"], arrays["targets"], shape)
    with pytest.raises(FileFormatError, match=message) as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


# ---------------------------------------------------------------------------
# split loads

def _generated(kind, n_train=10, n_eval=7, seed=40):
    if kind == KIND_CLASSIFICATION:
        return gen_classification_task(3, (3, 8, 8), n_train, n_eval, 0.3, seed=seed)
    return gen_segmentation_task(kind, 16, 3, 3 if kind == KIND_INSTANCE_SEG else 1,
                                 n_train, n_eval, seed=seed)


def _interleaved(ds):
    """`ds` with its split relabeled so train and eval rows alternate, eval first."""
    ds.split = np.where(np.arange(len(ds.inputs)) % 3 == 1, TRAIN, EVAL).astype(np.int32)
    ds.__post_init__()
    return ds


def _with_an_empty_class_table(ds, example=2):
    """An instance task whose `example` holds no shape: a blank id map, no classes."""
    ds.targets.ids[example] = 0
    ds.targets = InstanceStack(ds.targets.ids,
                               ds.targets.labels[ds.targets.labels[:, 0] != example])
    return ds


SPLIT_FILES = {
    "classification": lambda: _generated(KIND_CLASSIFICATION),
    "binary": lambda: _generated(KIND_BINARY_SEG),
    "instance": lambda: _generated(KIND_INSTANCE_SEG),
    "classification-interleaved": lambda: _interleaved(_generated(KIND_CLASSIFICATION)),
    "binary-interleaved": lambda: _interleaved(_generated(KIND_BINARY_SEG)),
    "instance-interleaved": lambda: _interleaved(_generated(KIND_INSTANCE_SEG)),
    "instance-empty-class-table":
        lambda: _interleaved(_with_an_empty_class_table(_generated(KIND_INSTANCE_SEG))),
}


@pytest.mark.parametrize("split", ["train", "eval"])
@pytest.mark.parametrize("case", list(SPLIT_FILES))
def test_split_load_holds_the_rows_the_whole_load_indexes(tmp_path, case, split):
    path = tmp_path / "task.mtld"
    save_dataset(path, SPLIT_FILES[case]())
    whole = load_dataset(path)
    part = load_dataset(path, split=split)
    idx = whole.indices(split)
    assert 0 < len(idx) < len(whole.inputs)
    assert part.spec == whole.spec and part.seed == whole.seed
    assert part.crc32 == whole.crc32 == int.from_bytes(path.read_bytes()[-4:], "little")
    assert part.inputs.tobytes() == whole.inputs[idx].tobytes()
    np.testing.assert_array_equal(part.indices(split), np.arange(len(idx)))
    assert part.split.tolist() == whole.split[idx].tolist()
    if whole.spec.kind == KIND_INSTANCE_SEG:
        kept = whole.targets.take(idx)
        assert part.targets.ids.tobytes() == kept.ids.tobytes()
        assert part.targets.labels.tobytes() == kept.labels.tobytes()
    else:
        assert part.targets.dtype == whole.targets.dtype
        assert part.targets.tobytes() == whole.targets[idx].tobytes()
    x_part, y_part = sample_batch(part, split, 16, np.random.default_rng(9))
    x_whole, y_whole = sample_batch(whole, split, 16, np.random.default_rng(9))
    assert x_part.data.tobytes() == x_whole.data.tobytes()
    assert y_part.dtype == y_whole.dtype and y_part.tobytes() == y_whole.tobytes()


def test_the_empty_class_table_case_has_an_example_without_instances(tmp_path):
    ds = SPLIT_FILES["instance-empty-class-table"]()
    assert ds.targets.counts()[2] == 0 and not ds.targets.ids[2].any()
    assert ds.split[2] == EVAL and ds.split[1] == TRAIN


def test_split_load_of_an_unknown_split_is_rejected(tmp_path):
    path = tmp_path / "task.mtld"
    save_dataset(path, _generated(KIND_CLASSIFICATION))
    with pytest.raises(ValueError, match="unknown split 'test'"):
        load_dataset(path, split="test")


@pytest.mark.parametrize("split", ["train", "eval"])
def test_a_flipped_byte_in_a_skipped_row_fails_the_checksum(tmp_path, split):
    ds = _generated(KIND_BINARY_SEG)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    skipped = ds.indices("eval" if split == "train" else "train")[1]
    raw = bytearray(path.read_bytes())
    # the masks are the last tensor, after the inputs and the masks' 14-byte header
    masks_at = len(raw) - 4 - ds.targets.nbytes
    inputs_at = masks_at - 14 - ds.inputs.nbytes
    for at, rows in ((inputs_at, ds.inputs), (masks_at, ds.targets)):  # a byte of each
        row = rows[skipped].nbytes
        assert raw[at + skipped * row:at + (skipped + 1) * row] == rows[skipped].tobytes()
        raw[at + skipped * row + row // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError, match=str(path)):
        load_dataset(path, split=split)


@pytest.mark.parametrize("split", ["train", "eval"])
@pytest.mark.parametrize("what", ["inputs", "targets"])
def test_split_load_of_a_tensor_with_other_rows_than_the_header_is_rejected(tmp_path, what,
                                                                             split):
    ds = gen_classification_task(2, (1, 4, 4), 12, 4, 0.2, seed=39)
    arrays = {"split": ds.split, "inputs": ds.inputs, "targets": ds.targets}
    arrays[what] = arrays[what][:5]
    path = tmp_path / "task.mtld"
    _write_classification(path, 16, arrays["split"], arrays["inputs"], arrays["targets"],
                          (1, 4, 4))
    with pytest.raises(FileFormatError, match=r"has shape \(5,.*not 16 rows") as exc:
        load_dataset(path, split=split)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("split", [None, "train", "eval"])
@pytest.mark.parametrize("fault", ["past-table", "negative", "class"])
def test_a_faulty_eval_row_is_named_by_its_row_in_the_file(tmp_path, fault, split):
    ds = _interleaved(_generated(KIND_INSTANCE_SEG, n_train=6, n_eval=9))
    bad = int(ds.indices("eval")[4])
    labeled = np.flatnonzero(ds.targets.labels[:, 0] == bad)
    if fault == "class":
        ds.targets.labels[labeled[0], 2] = 4  # 3 classes
    else:
        ds.targets.ids[bad, 0, 0] = len(labeled) + 1 if fault == "past-table" else -1
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    what = "class table" if fault == "class" else "id map"
    with pytest.raises(FileFormatError, match=f"example {bad}: {what}") as exc:
        load_dataset(path, split=split)
    assert str(path) in str(exc.value)
    assert bad != 4  # its index among the eval rows


@pytest.mark.parametrize("kind", [KIND_CLASSIFICATION, KIND_BINARY_SEG])
def test_a_faulty_skipped_target_is_rejected_on_a_split_load(tmp_path, kind):
    ds = _generated(kind)
    bad = int(ds.indices("eval")[2])
    if kind == KIND_CLASSIFICATION:
        ds.targets[bad] = 3  # 3 classes
    else:
        ds.targets[bad, 4, 4] = 0.5
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    for split in (None, "train", "eval"):
        with pytest.raises(FileFormatError, match=f"example {bad}: "):
            load_dataset(path, split=split)


def test_read_header_gives_the_spec_seed_and_example_count(tmp_path):
    ds = _generated(KIND_INSTANCE_SEG)
    path = tmp_path / "task.mtld"
    save_dataset(path, ds)
    head = read_header(path)
    assert (head.spec, head.seed, head.n) == (ds.spec, ds.seed, len(ds.inputs))


def _write_mask(path, ids, pairs):
    w = BlockWriter(MASK_MAGIC, MASK_VERSION)
    w.tensor(np.asarray(ids, dtype=np.int32))
    w.tensor(np.asarray(pairs, dtype=np.int32))
    w.save(path)


_ID_MAP = np.array([[0, 1], [2, 2]])


@pytest.mark.parametrize("ids, pairs, message", [
    (_ID_MAP[None], [[1, 1], [2, 1]], "must be 2-D"),
    (_ID_MAP, [[1, 1, 1], [2, 1, 1]], "shape \\(m, 2\\)"),
    (_ID_MAP, [[1, 1], [1, 2], [2, 1]], "more than one label for ids: \\[1\\]"),
    (_ID_MAP, [[0, 1], [1, 1], [2, 1]], "ids below 1: \\[0\\]"),
    (_ID_MAP * np.array([[1, -1], [1, 1]]), [[2, 1]], "negative ids"),
    (_ID_MAP, [[1, 1]], "without class labels: \\[2\\]"),
], ids=["three-d-map", "pairs-shape", "duplicate-id", "non-positive-id", "negative-map-id",
        "unlabeled-id"])
def test_bad_mask_file_is_a_format_error_naming_the_file(tmp_path, ids, pairs, message):
    path = tmp_path / "m.mtlm"
    _write_mask(path, ids, pairs)
    with pytest.raises(FileFormatError, match=message) as exc:
        load_mask(path)
    assert str(path) in str(exc.value)


def test_mask_round_trip(tmp_path):
    ds = gen_segmentation_task(KIND_INSTANCE_SEG, 16, 3, 3, 4, 2, seed=36)
    mask = ds.gt_masks([0])
    path = tmp_path / "m.mtlm"
    save_mask(path, mask)
    loaded = load_mask(path)
    np.testing.assert_array_equal(loaded.ids, mask.ids)
    np.testing.assert_array_equal(loaded.labels, mask.labels)


# ---------------------------------------------------------------------------
# default suite

def _default_suite(tmp_path, seed):
    """The datasets of the default preset at 16 train and 8 eval examples each."""
    path = tmp_path / f"preset_{seed}.json"
    path.write_text(json.dumps({"seed": seed, "suite": {"n_train": 16, "n_eval": 8}}))
    return build_suite(load_config(path))


def test_default_suite_shape(tmp_path):
    tasks = list(_default_suite(tmp_path, seed=77))
    assert len(tasks) == 11
    ks = [t.spec.num_classes for t in tasks[:7]]
    assert tuple(ks) == CLASSIFICATION_ARITIES
    kinds = [t.spec.kind for t in tasks]
    assert kinds[7] == KIND_INSTANCE_SEG
    assert kinds[8:] == [KIND_BINARY_SEG] * 3
    assert len({t.spec.task_id for t in tasks}) == 11


def test_default_suite_deterministic(tmp_path):
    a = _default_suite(tmp_path, seed=5)
    b = _default_suite(tmp_path, seed=5)
    assert all(_equal(x, y) for x, y in zip(a, b))

"""Synthetic task generators, the sampleable dataset abstraction, file formats.

Classification tasks are Gaussian-textured class prototypes plus per-example
noise scaled by a difficulty knob; segmentation tasks are non-overlapping
bright rectangles/disks on a dark noisy background, kept one pixel apart so
connected components recover the instances exactly. Generation derives one
RNG stream per example from (seed, example index), so parallel and serial
generation produce identical bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .metrics import InstanceStack, MaskError, _unique, connected_components
from .tensorio import BlockWriter, FileFormatError, read_file

DATASET_MAGIC = b"MTLD"
DATASET_VERSION = 1
MASK_MAGIC = b"MTLM"
MASK_VERSION = 1

KIND_CLASSIFICATION = "classification"
KIND_BINARY_SEG = "binary-segmentation"
KIND_INSTANCE_SEG = "instance-segmentation"

_KIND_CODES = {KIND_CLASSIFICATION: 0, KIND_BINARY_SEG: 1, KIND_INSTANCE_SEG: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

TRAIN, EVAL = 0, 1

SEG_CHANNELS = 3  # color channels of a segmentation task's images


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    name: str
    kind: str
    num_classes: int
    input_shape: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))


@dataclass
class TaskDataset:
    """One task's sampleable example store with disjoint train/eval splits.

    Generated datasets are valid by construction; `load_dataset` checks what
    it reads from a file before building one.
    """

    spec: TaskSpec
    inputs: np.ndarray     # (n, *input_shape) float64
    targets: np.ndarray | InstanceStack  # an instance task labels example e's ids 1..k_e
    split: np.ndarray      # (n,) int32, 0 = train, 1 = eval
    seed: int
    crc32: int | None = None  # the CRC32 trailer of the file it was loaded from
    header: DatasetHeader | None = None  # the header of that file
    _train_idx: np.ndarray = field(init=False, repr=False)
    _eval_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.split = np.ascontiguousarray(self.split, dtype=np.int32)
        self._train_idx = np.flatnonzero(self.split == TRAIN)
        self._eval_idx = np.flatnonzero(self.split == EVAL)

    def indices(self, split: str) -> np.ndarray:
        if split == "train":
            return self._train_idx
        if split == "eval":
            return self._eval_idx
        raise ValueError(f"unknown split {split!r}")

    def gt_masks(self, idx: np.ndarray) -> InstanceStack:
        """Ground-truth instances for a stack of examples of a segmentation task."""
        if self.spec.kind == KIND_INSTANCE_SEG:
            return self.targets.take(idx)
        if self.spec.kind == KIND_BINARY_SEG:
            return connected_components(self.targets[idx])
        raise ValueError("classification tasks have no instance masks")

    def batch_targets(self, idx: np.ndarray):
        if self.spec.kind == KIND_INSTANCE_SEG:
            # id j > 0 of example i has the class of label row first[i] + j - 1;
            # background indexes the 0 appended as row -1
            labels = self.targets.labels
            ids = self.targets.ids[idx]
            rows = np.searchsorted(labels[:, 0], idx)[:, None, None] + ids - 1
            return np.append(labels[:, 2], 0).astype(np.int32)[np.where(ids > 0, rows, -1)]
        return self.targets[idx]


def sample_batch(ds: TaskDataset, split: str, batch_size: int, rng):
    """Uniform sampling with replacement from one split.

    Returns (inputs tensor, targets); targets are integer labels, 0/1 float
    masks, or per-pixel class maps depending on the task kind.
    """
    idx = ds.indices(split)
    if idx.size == 0:
        raise ValueError(f"split {split!r} of task {ds.spec.task_id} is empty")
    chosen = idx[np.asarray(rng.integers(0, idx.size, size=batch_size))]
    return Tensor(ds.inputs[chosen]), ds.batch_targets(chosen)


# ---------------------------------------------------------------------------
# generators

def default_name(kind: str, num_classes: int, task_id: int) -> str:
    """The name a generated task gets when none is given."""
    if kind == KIND_CLASSIFICATION:
        return f"patch_k{num_classes}_t{task_id}"
    return f"shapes_{'binary' if kind == KIND_BINARY_SEG else 'instance'}_t{task_id}"


def task_spec(kind: str, num_classes: int, input_shape, task_id: int,
              name: str | None = None) -> TaskSpec:
    """The spec of a generated task: a binary task has one class whatever
    num_classes says, and a task without a name gets its default_name."""
    k = 1 if kind == KIND_BINARY_SEG else num_classes
    return TaskSpec(task_id, name or default_name(kind, k, task_id), kind, k, input_shape)


def suite_spec(entry: dict, task_id: int) -> TaskSpec:
    """The spec of the task that a suite entry, as load_config fills it in,
    generates at index task_id."""
    kind = entry["kind"]
    shape = entry["input_shape"] if kind == KIND_CLASSIFICATION \
        else (SEG_CHANNELS, entry["image_size"], entry["image_size"])
    return task_spec(kind, entry["num_classes"], shape, task_id, entry["name"])


def _example_rng(seed: int, stream: int, idx: int = 0):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, idx)))


def gen_classification_task(num_classes: int, input_shape, n_train: int, n_eval: int,
                            difficulty: float, seed: int, task_id: int = 0,
                            name: str | None = None) -> TaskDataset:
    """K Gaussian-textured prototypes plus white noise scaled by difficulty.

    At difficulty 0 every example equals its class prototype, so the task is
    exactly separable. Labels are balanced within one count per split.
    """
    if num_classes < 2:
        raise ValueError("classification needs at least 2 classes")
    if n_train < num_classes or n_eval < 1:
        raise ValueError("need at least one example per class in train, one in eval")
    spec = task_spec(KIND_CLASSIFICATION, num_classes, input_shape, task_id, name)
    input_shape = spec.input_shape

    # one blur of all K draws, each prototype then scaled by its own std
    protos = _blur(_example_rng(seed, 0).standard_normal((num_classes, *input_shape)), 2.0)
    for p in protos:
        p /= p.std()

    n = n_train + n_eval
    labels = np.empty(n, dtype=np.int32)
    labels[:n_train] = np.arange(n_train) % num_classes
    labels[n_train:] = np.arange(n_eval) % num_classes
    shuffle_rng = _example_rng(seed, 2)
    labels[:n_train] = labels[:n_train][shuffle_rng.permutation(n_train)]
    labels[n_train:] = labels[n_train:][shuffle_rng.permutation(n_eval)]

    inputs = np.empty((n,) + input_shape)
    for i in range(n):
        noise = _example_rng(seed, 1, i).standard_normal(input_shape)
        inputs[i] = protos[labels[i]] + difficulty * noise

    split = np.concatenate([np.full(n_train, TRAIN, np.int32),
                            np.full(n_eval, EVAL, np.int32)])
    return TaskDataset(spec, inputs, labels, split, seed)


def _blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, the bytes of scipy.ndimage's
    gaussian_filter(x, sigma=(0, ..., sigma, sigma)).

    It follows that filter's arithmetic: a kernel of radius int(4 sigma + 0.5)
    normalized by its sum, edges mirrored with the edge pixel repeated (scipy's
    "reflect", numpy's "symmetric"), the height axis before the width axis, and
    each output the centre tap plus the mirrored pairs from the outermost in.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    for axis in (x.ndim - 2, x.ndim - 1):
        n = x.shape[axis]
        pad = [(0, 0)] * x.ndim
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(x, pad, mode="symmetric"), axis, 0)
        out = padded[radius:radius + n] * taps[radius]
        for j in range(radius, 0, -1):
            out += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) \
                * taps[radius - j]
        x = np.moveaxis(out, 0, axis)
    return x


def _class_colors(num_classes: int, channels: int, rng) -> np.ndarray:
    """Distinct per-class colors, pairwise separated for pixel-wise learnability."""
    colors = []
    while len(colors) < num_classes:
        c = rng.uniform(0.35, 1.0, size=channels)
        if all(np.abs(c - prev).max() >= 0.25 for prev in colors):
            colors.append(c)
    return np.stack(colors)


@functools.lru_cache(maxsize=None)
def _footprint(side: int, disc: bool) -> np.ndarray:
    """A side x side square, or the disc inscribed in it (read-only, shared)."""
    if disc:
        yy, xx = np.ogrid[:side, :side]
        rad = side / 2.0
        footprint = (yy - rad + 0.5) ** 2 + (xx - rad + 0.5) ** 2 <= rad * rad
    else:
        footprint = np.ones((side, side), dtype=bool)
    footprint.flags.writeable = False
    return footprint


def _place_instances(rng, size: int, max_instances: int):
    """Non-overlapping shape footprints with a one-pixel gap between them."""
    ids = np.zeros((size, size), dtype=np.int32)
    occupied = np.zeros((size, size), dtype=bool)
    n_want = int(rng.integers(1, max_instances + 1))
    placed = 0
    for _ in range(n_want):
        for _attempt in range(40):
            side = int(rng.integers(6, max(8, size // 3) + 1))
            r = int(rng.integers(0, size - side + 1))
            c = int(rng.integers(0, size - side + 1))
            grown = occupied[max(0, r - 1):r + side + 1, max(0, c - 1):c + side + 1]
            if grown.any():
                continue
            footprint = _footprint(side, disc=rng.random() >= 0.5)
            placed += 1
            ids[r:r + side, c:c + side][footprint] = placed
            occupied[r:r + side, c:c + side] |= footprint
            break
    return ids, placed


def gen_segmentation_task(kind: str, image_size: int, max_instances: int,
                          num_classes: int, n_train: int, n_eval: int, seed: int,
                          task_id: int = 0, name: str | None = None) -> TaskDataset:
    """Bright non-overlapping shapes on a dark noisy background.

    Instance tasks color each shape by its class so a per-pixel classifier
    can recover the labels; binary tasks store the 0/1 foreground mask.
    """
    if kind not in (KIND_BINARY_SEG, KIND_INSTANCE_SEG):
        raise ValueError(f"kind must be a segmentation kind, got {kind!r}")
    if image_size < 8:
        raise ValueError("image_size must be >= 8")
    if max_instances < 1:
        raise ValueError("max_instances must be >= 1")
    channels = SEG_CHANNELS
    spec = task_spec(kind, num_classes, (channels, image_size, image_size), task_id, name)
    k = spec.num_classes
    colors = _class_colors(k, channels, _example_rng(seed, 0))

    n = n_train + n_eval
    inputs = np.empty((n, channels, image_size, image_size))
    id_maps = np.empty((n, image_size, image_size), dtype=np.int32)
    class_tables = []
    for i in range(n):
        rng = _example_rng(seed, 1, i)
        ids, placed = _place_instances(rng, image_size, max_instances)
        table = rng.integers(1, k + 1, size=placed).astype(np.int32)
        img = 0.08 + 0.03 * rng.standard_normal((channels, image_size, image_size))
        shades = rng.uniform(0.75, 1.0, size=placed)  # instance j's shade is draw j
        inside = ids > 0
        img[:, inside] = (colors[table - 1] * shades[:, None]).T[:, ids[inside] - 1]
        img += 0.02 * rng.standard_normal(img.shape)
        inputs[i] = img
        id_maps[i] = ids
        class_tables.append(table)

    split = np.concatenate([np.full(n_train, TRAIN, np.int32),
                            np.full(n_eval, EVAL, np.int32)])
    if kind == KIND_BINARY_SEG:
        targets = (id_maps > 0).astype(np.float64)
        return TaskDataset(spec, inputs, targets, split, seed)
    return TaskDataset(spec, inputs, _instances(id_maps, class_tables), split, seed)


def _instances(id_maps: np.ndarray, tables: list[np.ndarray]) -> InstanceStack:
    """Instances whose example e labels its ids 1..k_e with the k_e classes tables[e]."""
    return InstanceStack.from_tables(id_maps, [t.size for t in tables],
                                     np.concatenate([np.zeros(0, np.int32), *tables]))


def _task_seed(seed: int, task_id: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(task_id,))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# file format

def save_dataset(path, ds: TaskDataset) -> None:
    w = BlockWriter(DATASET_MAGIC, DATASET_VERSION)
    w.u16(ds.spec.task_id)
    w.string(ds.spec.name)
    w.u8(_KIND_CODES[ds.spec.kind])
    w.u16(ds.spec.num_classes)
    w.u8(len(ds.spec.input_shape))
    for d in ds.spec.input_shape:
        w.u32(d)
    w.u64(ds.seed)
    w.u32(len(ds.inputs))
    w.tensor(ds.split)
    w.tensor(ds.inputs)
    if ds.spec.kind == KIND_CLASSIFICATION:
        w.tensor(np.asarray(ds.targets, dtype=np.int32))
    elif ds.spec.kind == KIND_BINARY_SEG:
        w.tensor(ds.targets)
    else:
        w.tensor(ds.targets.ids)
        classes = ds.targets.labels[:, 2].astype(np.int32)
        for table in np.split(classes, np.cumsum(ds.targets.counts())[:-1]):
            w.tensor(table)
    w.save(path)


@dataclass(frozen=True)
class DatasetHeader:
    """The fields of a dataset file before its payloads, the split vector included."""

    spec: TaskSpec
    seed: int
    n: int  # examples in the file
    split: np.ndarray = field(repr=False)  # (n,) TRAIN or EVAL of each example

    def split_sizes(self) -> tuple[int, int]:
        """The number of train and of eval examples."""
        return int((self.split == TRAIN).sum()), int((self.split == EVAL).sum())


def _read_header(r) -> DatasetHeader:
    task_id = r.u16()
    name = r.string()
    code = r.u8()
    if code not in _KIND_NAMES:
        raise FileFormatError(f"{r.source}: unknown task kind code {code}")
    k = r.u16()
    input_shape = tuple(r.u32() for _ in range(r.u8()))
    seed, n = r.u64(), r.u32()
    try:
        spec = TaskSpec(task_id, name, _KIND_NAMES[code], k, input_shape)
    except ValueError as exc:
        raise FileFormatError(f"{r.source}: {exc}") from None
    split = r.tensor()
    if split.shape != (n,):
        raise FileFormatError(f"{r.source}: the header counts {n} examples but split "
                              f"has shape {split.shape}")
    return DatasetHeader(spec, seed, n, split)


def read_header(path) -> DatasetHeader:
    """A dataset file's header, read without the payloads after it, so the file's
    CRC32 is not checked: only `load_dataset` vouches for the header's bytes."""
    with read_file(path, DATASET_MAGIC, DATASET_VERSION) as r:
        return _read_header(r)


class _RowCheck:
    """Checks the targets of a dataset file's rows, each block as it is read, kept
    or not. `finish` raises the fault of the first faulty row, named by its row
    in the file."""

    def __init__(self, source: str, spec: TaskSpec, n: int):
        self.source, self.kind, self.k = source, spec.kind, spec.num_classes
        self.top = np.zeros(n, np.int64)     # the greatest id of each instance id map
        self.counts = np.zeros(n, np.int64)  # the classes of each class table
        self.faults = []                     # (file row, what), at most one per block

    def targets(self, start: int, rows: np.ndarray) -> None:
        """Target rows start, start + 1, ... of the file."""
        flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
        if self.kind == KIND_CLASSIFICATION:
            bad = ((flat < 0) | (flat >= self.k)).any(axis=1)
            what = f"label out of range for {self.k} classes"
        elif self.kind == KIND_BINARY_SEG:
            bad = ~np.isin(flat, (0.0, 1.0)).all(axis=1)
            what = "binary masks must be 0/1 valued"
        else:
            bad = flat.min(axis=1, initial=0) < 0
            what = "id map holds negative ids; instance ids must be >= 0"
            self.top[start:start + len(rows)] = flat.max(axis=1, initial=0)
        if bad.any():
            self.faults.append((start + int(bad.argmax()), what))

    def table(self, row: int, classes: np.ndarray) -> None:
        if ((classes < 1) | (classes > self.k)).any():
            self.faults.append((row, f"class table holds a class outside 1..{self.k}"))
        self.counts[row] = classes.size

    def finish(self) -> None:
        over = np.flatnonzero(self.top > self.counts)
        if over.size:
            i = int(over[0])
            self.faults.append((i, f"id map holds ids outside 0..{self.counts[i]}, "
                                   f"the ids its class table labels"))
        if self.faults:
            row, what = min(self.faults, key=lambda f: f[0])
            raise FileFormatError(f"{self.source}: example {row}: {what}")


def load_dataset(path, split: str | None = None) -> TaskDataset:
    """The dataset in the file at `path`: every example, or with `split` ("train"
    or "eval") only that split's, in file order, so example i of a split load is
    example `indices(split)[i]` of the whole load.

    Either way every byte goes into the CRC32, so `crc32` is the file's, and
    every row's targets are checked, kept or not: a split load rejects what a
    whole load rejects, and a fault names the example by its row in the file.
    A split load allocates the kept rows only, reading the others through a
    buffer of whole rows.
    """
    if split not in (None, "train", "eval"):
        raise ValueError(f"unknown split {split!r}")
    with read_file(path, DATASET_MAGIC, DATASET_VERSION) as r:
        head = _read_header(r)
        spec, n, row_split = head.spec, head.n, head.split
        check = _RowCheck(str(path), spec, n)
        if split is None:
            keep, inputs, targets = None, r.tensor(), r.tensor()
        else:
            keep = row_split == (TRAIN if split == "train" else EVAL)
            inputs, targets = r.tensor_rows(keep), r.tensor_rows(keep, check.targets)
        tables = None
        if spec.kind == KIND_INSTANCE_SEG:
            tables = []
            for i in range(n):
                table = r.tensor()
                check.table(i, table)
                if keep is None or keep[i]:
                    tables.append(table)
        crc32 = r.finish()
    if keep is None:
        for what, rows in (("inputs", inputs), ("targets", targets)):
            if rows.shape[:1] != (n,):
                raise FileFormatError(f"{path}: the header counts {n} examples but {what} "
                                      f"has shape {rows.shape}")
    if inputs.shape[1:] != spec.input_shape:
        raise FileFormatError(f"{path}: inputs have shape {inputs.shape[1:]} per example "
                              f"but the header gives the input shape {spec.input_shape}")
    size = spec.input_shape[-2:]
    if spec.kind != KIND_CLASSIFICATION and targets.shape[1:] != size:
        raise FileFormatError(f"{path}: examples 0..{n - 1}: target maps have shape "
                              f"{targets.shape[1:]}, not the inputs' height and width {size}")
    if keep is None:
        check.targets(0, targets)
    check.finish()
    try:
        if tables is not None:
            targets = _instances(targets, tables)
        return TaskDataset(spec, inputs, targets, row_split if keep is None
                           else row_split[keep], head.seed, crc32, head)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def save_mask(path, mask: InstanceStack) -> None:
    """Instance mask container for a stack of one: id map plus (id, class) pairs."""
    if len(mask.ids) != 1:
        raise ValueError(f"a mask file holds one image, got a stack of {len(mask.ids)}")
    w = BlockWriter(MASK_MAGIC, MASK_VERSION)
    w.tensor(mask.ids[0])
    w.tensor(mask.labels[:, 1:].astype(np.int32))
    w.save(path)


def load_mask(path) -> InstanceStack:
    """A mask file as a stack of one; a file that cannot be scored is a FileFormatError."""
    with read_file(path, MASK_MAGIC, MASK_VERSION) as r:
        ids = r.tensor()
        pairs = r.tensor()
        r.finish()
    if ids.ndim != 2:
        raise FileFormatError(f"{path}: the id map must be 2-D, got shape {ids.shape}")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise FileFormatError(f"{path}: the (id, class) pairs must have shape (m, 2), "
                              f"got {pairs.shape}")
    try:
        mask = InstanceStack(ids[None], np.insert(pairs, 0, 0, axis=1))
    except MaskError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    ids = _unique(mask.ids.ravel())
    unlabeled = ids[~np.isin(ids, np.append(pairs[:, 0], 0))]
    if unlabeled.size:
        raise FileFormatError(f"{path}: instance ids without class labels: "
                              f"{unlabeled.tolist()}")
    return mask

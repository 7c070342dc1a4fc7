"""Evaluation: panoptic quality for segmentation, accuracy, loss smoothing.

Panoptic quality follows the standard decomposition PQ = SQ x RQ with
segments matched iff IoU > 0.5, which makes the matching unique. Purely
semantic masks are converted to instances via connected components before
scoring. Labeling and scoring work on (B, H, W) stacks of images with a few
array calls per stack; a single image is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class MaskError(ValueError):
    """An instance map that cannot be scored; `image` is its index in a stack."""

    def __init__(self, message: str, image: int | None = None):
        super().__init__(message)
        self.image = image


@dataclass(frozen=True)
class InstanceStack:
    """Instance maps of B images, (B, H, W), plus their class labels.

    Each row (image, id, class) of `labels` gives the class of one id of one
    image; ids count within each image and 0 is background. A single image is
    a stack of one. Negative ids and label rows naming no image, an id below
    1 or an id twice are rejected here; a present id without a label is
    rejected when scored.
    """

    ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ids = np.ascontiguousarray(self.ids, dtype=np.int32)
        if ids.ndim != 3:
            raise MaskError(f"instance stack must be 3-D, got shape {ids.shape}")
        negative = ids.reshape(len(ids), -1).min(axis=1, initial=0) < 0
        if negative.any():
            raise MaskError("id map holds negative ids; instance ids must be >= 0",
                            image=int(negative.argmax()))
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1, 3)
        labels = labels[np.lexsort((labels[:, 1], labels[:, 0]))]
        if len(labels) and (labels[0, 0] < 0 or labels[-1, 0] >= len(ids)):
            raise MaskError(f"label rows name images outside 0..{len(ids) - 1}")
        repeated = np.append(False, (np.diff(labels[:, :2], axis=0) == 0).all(axis=1))
        for bad, what in ((labels[:, 1] < 1, "ids below 1"),
                          (repeated, "more than one label for ids")):
            if bad.any():
                image = labels[bad][0, 0]
                raise MaskError(f"label rows give {what}: "
                                f"{labels[bad & (labels[:, 0] == image), 1].tolist()}",
                                image=int(image))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_tables(cls, ids, counts, classes) -> "InstanceStack":
        """Image b labels its ids 1..counts[b] with the next counts[b] classes."""
        counts = np.asarray(counts, dtype=np.int64)
        image = np.repeat(np.arange(len(counts)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        return cls(ids, np.column_stack([image, np.arange(len(image)) - first + 1,
                                         np.broadcast_to(classes, image.shape)]))

    def counts(self) -> np.ndarray:
        """Number of label rows of each image."""
        return np.bincount(self.labels[:, 0], minlength=len(self.ids))

    def take(self, images) -> "InstanceStack":
        """The stack of the given images, in the given order."""
        images = np.asarray(images, dtype=np.int64)
        counts = self.counts()
        taken = counts[images]
        # rows of each taken image: its first row in self, then consecutive
        start = np.repeat((np.cumsum(counts) - counts)[images] - (np.cumsum(taken) - taken),
                          taken)
        labels = self.labels[start + np.arange(len(start))]
        labels[:, 0] = np.repeat(np.arange(len(images)), taken)
        return InstanceStack(self.ids[images], labels)

    def _stride(self) -> int:
        """One more than every id, so image * stride + id keys each segment."""
        return int(max(self.ids.max(initial=0), self.labels[:, 1].max(initial=0))) + 1

    def _classes(self, keys: np.ndarray, stride: int, side: str) -> np.ndarray:
        """Class of each segment key (image * stride + id); 0 for background."""
        labels = self.labels
        label_keys = np.append(labels[:, 0] * stride + labels[:, 1], np.iinfo(np.int64).max)
        pos = np.searchsorted(label_keys, keys)
        missing = (label_keys[pos] != keys) & (keys % stride > 0)
        if missing.any():
            image = keys[missing][0] // stride
            ids = (keys[missing & (keys // stride == image)] % stride).tolist()
            raise MaskError(f"{side}: instance ids without class labels: {ids}",
                            image=int(image))
        return np.append(labels[:, 2], 0)[pos]


@dataclass(frozen=True)
class PQReport:
    """PQ decomposition of a stack of B images: matched pairs, FP/FN ids, scores.

    Matches are (image, pred id, gt id, IoU) rows and fp/fn (image, id) rows,
    all in (image, id) order; sq/rq/pq are (B,) arrays. For class-aware
    scoring, sq/rq/pq are each image's means over the classes in its ground
    truth's class table and `per_class` maps each class to its (sq, rq, pq)
    arrays, NaN in images whose table lacks the class; the product identity
    pq == sq * rq then holds per class, not for the means.
    """

    matches: tuple[tuple, ...]
    fp: tuple[tuple, ...]
    fn: tuple[tuple, ...]
    sq: np.ndarray
    rq: np.ndarray
    pq: np.ndarray
    per_class: dict | None = None


def _unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-D integer array. np.unique itself asks numpy.ma
    whether x is masked, which imports numpy.ma on first use: about 13 ms on a
    2-vCPU Xeon VM, 7% of an eval of the default suite."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])] if len(x) else x


def _class_mean(x: np.ndarray, in_table: np.ndarray) -> np.ndarray:
    """Each row's mean over its in_table columns, 0.0 for a row with none.

    Rows are grouped by their column count, so each mean is np.mean of that
    row's values in column order, bit for bit.
    """
    out = np.zeros(len(x))
    counts = in_table.sum(axis=1)
    for k in _unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = x[rows][in_table[rows]].reshape(-1, k).mean(axis=1)
    return out


def panoptic_quality(pred, gt, class_aware: bool = False) -> PQReport:
    """Score predicted instances against ground truth.

    pred and gt are two InstanceStacks of the same shape, scored image by
    image. Segments match iff IoU > 0.5. class_aware restricts matching to
    same-class pairs and averages each image's scores over the classes in its
    ground-truth class table; a class whose ids have no pixels scores 0, and
    predicted segments of classes outside the table are ignored.
    """
    if pred.ids.shape != gt.ids.shape:
        raise MaskError(f"mask dimensions differ: {pred.ids.shape} vs {gt.ids.shape}")
    n, kp, kg = len(pred.ids), pred._stride(), gt._stride()
    if n * kp * kg >= 2 ** 63:
        raise MaskError("instance ids too large to score together")

    # one unique over (image, pred id, gt id) keys gives every overlap in pixels
    image = np.arange(n, dtype=np.int64)[:, None, None]
    keys, inter = np.unique((image * kp + pred.ids) * kg + gt.ids, return_counts=True)
    pkey, gid = np.divmod(keys, kg)
    pseg, pinv = np.unique(pkey, return_inverse=True)
    gseg, ginv = np.unique(pkey // kp * kg + gid, return_inverse=True)
    parea = np.bincount(pinv, weights=inter)
    garea = np.bincount(ginv, weights=inter)
    pcls = pred._classes(pseg, kp, "prediction")
    gcls = gt._classes(gseg, kg, "ground truth")

    pair_iou = inter / (parea[pinv] + garea[ginv] - inter)
    hit = (pkey % kp > 0) & (gid > 0) & (pair_iou > 0.5)
    if class_aware:
        hit &= pcls[pinv] == gcls[ginv]
    matched_p = np.bincount(pinv[hit], minlength=len(pseg)) > 0
    matched_g = np.bincount(ginv[hit], minlength=len(gseg)) > 0

    # score cells: one per image, or per (image, class); in_table marks the
    # cells of each image's gt classes, and a last column takes the rest
    if class_aware:
        table = _unique(gt.labels[:, 2])
        pcol = np.where(np.isin(pcls, table), np.searchsorted(table, pcls), len(table))
        gcol = np.searchsorted(table, gcls)
        in_table = np.zeros((n, len(table) + 1), dtype=bool)
        in_table[gt.labels[:, 0], np.searchsorted(table, gt.labels[:, 2])] = True
    else:
        pcol = gcol = 0
        in_table = np.ones((n, 1), dtype=bool)
    width = in_table.shape[1]
    pcell = pseg // kp * width + pcol
    gcell = gseg // kg * width + gcol
    fp = (pseg % kp > 0) & ~matched_p & in_table.ravel()[pcell]
    fn = (gseg % kg > 0) & ~matched_g
    cells = in_table.size
    tp_cells = gcell[ginv[hit]]
    tp = np.bincount(tp_cells, minlength=cells)
    denom = tp + 0.5 * np.bincount(pcell[fp], minlength=cells) \
        + 0.5 * np.bincount(gcell[fn], minlength=cells)
    # IoUs summed in (image, pred id, gt id) order within each cell
    iou_sum = np.bincount(tp_cells, weights=pair_iou[hit], minlength=cells)
    rq = np.divide(tp, denom, out=np.zeros(cells), where=denom > 0)
    sq = np.divide(iou_sum, tp, out=np.zeros(cells), where=tp > 0)
    cell_scores = [s.reshape(in_table.shape) for s in (sq, rq, sq * rq)]

    if class_aware:
        scores = [_class_mean(s, in_table) for s in cell_scores]
        per_class = {c: tuple(np.where(in_table[:, j], s[:, j], np.nan) for s in cell_scores)
                     for j, c in enumerate(table.tolist())}
    else:
        scores = [s[:, 0] for s in cell_scores]
        per_class = None
    match_image, match_p = np.divmod(pkey[hit], kp)
    fp_image, fp_id = np.divmod(pseg[fp], kp)
    fn_image, fn_id = np.divmod(gseg[fn], kg)
    return PQReport(_rows(match_image, match_p, gid[hit], pair_iou[hit]), _rows(fp_image, fp_id),
                    _rows(fn_image, fn_id), *scores, per_class=per_class)


def _rows(*columns: np.ndarray) -> tuple[tuple, ...]:
    return tuple(zip(*(c.tolist() for c in columns)))


def accuracy(predicted, true) -> float:
    """Fraction of matching labels."""
    predicted = np.asarray(predicted)
    true = np.asarray(true)
    if predicted.shape != true.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {true.shape}")
    if predicted.size == 0:
        raise ValueError("accuracy of empty inputs is undefined")
    return float(np.mean(predicted == true))


def rolling_mean(series, window: int) -> np.ndarray:
    """Trailing rolling average with partial windows at the head.

    out[i] = mean(series[max(0, i-window+1) : i+1]); the output has the
    same length as the input so it stays aligned with iteration indices.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    head = np.array([series[:i + 1].mean() for i in range(min(window - 1, series.size))])
    if series.size < window:
        return head
    return np.concatenate([head, sliding_window_view(series, window).mean(axis=1)])


def _label(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4-connected components of equal non-zero value in each image of a (B, H, W) stack.

    Returns the (B, H, W) int32 ids, each image's component count and the
    value of each component, image by image in id order. An image's ids count
    from 1 in (value, first pixel in raster order) order, so they are those of
    the image labeled on its own, and with one value they are in raster order.

    The labeler works on runs, the stretches of one value along a row. Each run
    is linked to the runs of the same value that overlap it in the row above,
    within its image; linked runs take the least run index among them, by
    min-label propagation with pointer jumping.
    """
    b, h, w = values.shape
    rows = values.reshape(b * h, w)
    starts = np.empty(rows.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    # runs as [first, last) offsets into the raveled stack, in raster order
    first = np.flatnonzero(starts)
    last = np.append(first[1:], rows.size)
    value = rows.ravel()[first]
    fg = value != 0
    first, last, value = first[fg], last[fg], value[fg]

    # the runs of the row above that overlap run i are those from the first that
    # ends after i's start, shifted up a row, to the last that starts before its end
    lo = np.searchsorted(last, first - w, side="right")
    hi = np.searchsorted(first, last - w, side="left")
    links = np.where(first // w % h > 0, hi - lo, 0)
    below = np.repeat(np.arange(len(first)), links)
    above = np.repeat(lo - (np.cumsum(links) - links), links) + np.arange(len(below))
    same = value[below] == value[above]
    below, above = below[same], above[same]

    root = np.arange(len(first))
    while True:
        a, c = root[below], root[above]
        differ = a != c
        if not differ.any():
            break
        np.minimum.at(root, np.maximum(a, c)[differ], np.minimum(a, c)[differ])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up

    # a component's root is its first run in raster order
    heads = np.flatnonzero(root == np.arange(len(root)))
    image = first[heads] // (h * w)
    heads = heads[np.lexsort((heads, value[heads], image))]
    counts = np.bincount(image, minlength=b)
    number = np.zeros(len(root), dtype=np.int32)
    number[heads] = np.arange(1, len(heads) + 1) - np.repeat(np.cumsum(counts) - counts,
                                                             counts)
    ids = np.zeros(values.shape, dtype=np.int32)
    ids[values != 0] = np.repeat(number[root], last - first)
    return ids, counts, value[heads]


def connected_components(mask: np.ndarray, cls: int = 1) -> InstanceStack:
    """Instances from a (B, H, W) binary mask: 4-connected components, one class.

    Each image's ids are those of the image labeled on its own.
    """
    ids, counts, _ = _label(np.asarray(mask) != 0)
    return InstanceStack.from_tables(ids, counts, cls)


def instances_from_class_map(class_map: np.ndarray) -> InstanceStack:
    """Instances from a (B, H, W) per-pixel class map (0 = background).

    Each class's 4-connected components become instances labeled with that
    class; ids are assigned in (class, scan) order, so the result is
    deterministic, and each image's ids are those of the image converted on
    its own.
    """
    return InstanceStack.from_tables(*_label(np.asarray(class_map)))

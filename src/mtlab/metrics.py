"""Evaluation: panoptic quality for segmentation, accuracy, loss smoothing.

Panoptic quality follows the standard decomposition PQ = SQ x RQ with
segments matched iff IoU > 0.5, which makes the matching unique. Purely
semantic masks are converted to instances via connected components before
scoring. Labeling and scoring work on (B, H, W) stacks of images with a few
array calls per stack; a single 2-D mask is scored as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage


class MaskError(ValueError):
    """An instance map that cannot be scored; `image` is its index in a stack."""

    def __init__(self, message: str, image: int | None = None):
        super().__init__(message)
        self.image = image


@dataclass(frozen=True)
class InstanceMask:
    """Per-pixel instance ids (0 = background) plus one class label per id."""

    ids: np.ndarray
    classes: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        ids = np.ascontiguousarray(self.ids, dtype=np.int32)
        object.__setattr__(self, "ids", ids)
        if ids.ndim != 2:
            raise MaskError(f"instance map must be 2-D, got shape {ids.shape}")
        if ids.size and ids.min() < 0:
            raise MaskError("instance ids must be >= 0")
        present = set(np.unique(ids).tolist()) - {0}
        missing = present - set(self.classes)
        if missing:
            raise MaskError(f"instance ids without class labels: {sorted(missing)}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.ids.shape

    def instance_ids(self) -> list[int]:
        return sorted(set(np.unique(self.ids).tolist()) - {0})

    def as_stack(self) -> "InstanceStack":
        """This mask as a stack of one image."""
        labels = [(0, i, c) for i, c in self.classes.items()]
        return InstanceStack(self.ids[None], np.array(labels, dtype=np.int64).reshape(-1, 3))


@dataclass(frozen=True)
class InstanceStack:
    """Instance maps of B images, (B, H, W), plus their class labels.

    Each row (image, id, class) of `labels` gives the class of one id of one
    image; ids count within each image and 0 is background. Negative ids are
    rejected here; a present id without a label is rejected when scored.
    """

    ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        ids = np.ascontiguousarray(self.ids, dtype=np.int32)
        if ids.ndim != 3:
            raise MaskError(f"instance stack must be 3-D, got shape {ids.shape}")
        negative = ids.reshape(len(ids), -1).min(axis=1, initial=0) < 0
        if negative.any():
            raise MaskError("instance ids must be >= 0", image=int(negative.argmax()))
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", labels[np.lexsort((labels[:, 1], labels[:, 0]))])

    @classmethod
    def from_tables(cls, ids, counts, classes) -> "InstanceStack":
        """Image b labels its ids 1..counts[b] with the next counts[b] classes."""
        counts = np.asarray(counts, dtype=np.int64)
        image = np.repeat(np.arange(len(counts)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        return cls(ids, np.column_stack([image, np.arange(len(image)) - first + 1,
                                         np.broadcast_to(classes, image.shape)]))

    def image(self, b: int) -> InstanceMask:
        rows = self.labels[self.labels[:, 0] == b]
        return InstanceMask(self.ids[b], dict(zip(rows[:, 1].tolist(), rows[:, 2].tolist())))

    def _stride(self) -> int:
        """One more than every id, so image * stride + id keys each segment."""
        return int(max(self.ids.max(initial=0), self.labels[:, 1].max(initial=0))) + 1

    def _classes(self, keys: np.ndarray, stride: int, side: str) -> np.ndarray:
        """Class of each segment key (image * stride + id); 0 for background."""
        labels = self.labels[self.labels[:, 1] > 0]
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
    """PQ decomposition: matched pairs, FP/FN ids, and the three scores.

    For one image, matches are (pred id, gt id, IoU) triples and fp/fn the
    unmatched ids, all in id order, and sq/rq/pq are floats. For a stack,
    each of those rows starts with the image index and sq/rq/pq are (B,)
    arrays. For class-aware scoring, sq/rq/pq are means over the classes in
    the ground truth's class table and `per_class` holds each class's (sq,
    rq, pq), NaN in a stack's images whose table lacks the class; the product
    identity pq == sq * rq then holds per class, not for the means.
    """

    matches: tuple[tuple, ...]
    fp: tuple
    fn: tuple
    sq: float | np.ndarray
    rq: float | np.ndarray
    pq: float | np.ndarray
    per_class: dict | None = None


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two pixel sets given as boolean arrays."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise MaskError(f"pixel sets have different dimensions: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        raise MaskError("iou undefined for two empty pixel sets")
    return float(np.logical_and(a, b).sum() / union)


def match_segments(pred, gt, class_aware: bool = False):
    """Match segments at IoU > 0.5; returns (tp pairs with IoU, fp ids, fn ids).

    The threshold makes every admissible matching identical, so no search
    is needed: each pred id can exceed 0.5 IoU with at most one gt id. The
    lists are those of `panoptic_quality`'s report.
    """
    rep = panoptic_quality(pred, gt, class_aware)
    return list(rep.matches), list(rep.fp), list(rep.fn)


def _class_mean(x: np.ndarray, in_table: np.ndarray) -> np.ndarray:
    """Each row's mean over its in_table columns, 0.0 for a row with none.

    Rows are grouped by their column count, so each mean is np.mean of that
    row's values in column order, bit for bit.
    """
    out = np.zeros(len(x))
    counts = in_table.sum(axis=1)
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = x[rows][in_table[rows]].reshape(-1, k).mean(axis=1)
    return out


def panoptic_quality(pred, gt, class_aware: bool = False) -> PQReport:
    """Score predicted instances against ground truth.

    pred and gt are two InstanceMasks, or two InstanceStacks scored image by
    image with the same code. Segments match iff IoU > 0.5. class_aware
    restricts matching to same-class pairs and averages each image's scores
    over the classes in its ground-truth class table; a class whose ids have
    no pixels scores 0, and predicted segments of classes outside the table
    are ignored.
    """
    if pred.ids.shape != gt.ids.shape:
        raise MaskError(f"mask dimensions differ: {pred.ids.shape} vs {gt.ids.shape}")
    one = isinstance(pred, InstanceMask)
    if one:
        pred, gt = pred.as_stack(), gt.as_stack()
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
        table = np.unique(gt.labels[:, 2])
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
    if one:
        if per_class is not None:
            per_class = {c: tuple(float(s[0]) for s in v) for c, v in per_class.items()}
        return PQReport(_rows(match_p, gid[hit], pair_iou[hit]), tuple(fp_id.tolist()),
                        tuple(fn_id.tolist()), *(float(s[0]) for s in scores),
                        per_class=per_class)
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


# the 2-D 4-neighbourhood as the middle plane of a 3-D structure: components
# of a (B, H, W) stack never cross from one image to the next
_STACK_4_NEIGHBOURS = np.zeros((3, 3, 3), dtype=bool)
_STACK_4_NEIGHBOURS[1] = ndimage.generate_binary_structure(2, 1)


def _label(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-connected components of each image of a (B, H, W) boolean stack.

    Returns the ids, numbered from 1 in raster order within each image, and
    each image's component count. One ndimage.label numbers the components
    of the whole stack in raster order, so an image's ids are its labels
    less the last label of the images before it.
    """
    labeled, _ = ndimage.label(masks, structure=_STACK_4_NEIGHBOURS)
    last = np.maximum.accumulate(labeled.reshape(len(labeled), -1).max(axis=1, initial=0))
    before = np.concatenate([[0], last])[:-1]
    np.subtract(labeled, before[:, None, None], out=labeled, where=labeled > 0)
    return labeled, last - before


def connected_components(mask: np.ndarray, cls: int = 1) -> InstanceMask | InstanceStack:
    """Instances from a binary mask: 4-connected components, one class.

    A (B, H, W) stack gives an InstanceStack whose ids are those of each
    image labeled on its own.
    """
    mask = np.asarray(mask) != 0
    ids, counts = _label(mask[None] if mask.ndim == 2 else mask)
    stack = InstanceStack.from_tables(ids, counts, cls)
    return stack.image(0) if mask.ndim == 2 else stack


def instances_from_class_map(class_map: np.ndarray) -> InstanceMask | InstanceStack:
    """Instances from a per-pixel class map (0 = background).

    Each class's 4-connected components become instances labeled with that
    class; ids are assigned in (class, scan) order, so the result is
    deterministic. A (B, H, W) stack gives an InstanceStack whose ids are
    those of each image converted on its own.
    """
    class_map = np.asarray(class_map)
    maps = class_map[None] if class_map.ndim == 2 else class_map
    classes = np.unique(maps)
    classes = classes[classes != 0]
    ids = np.zeros(maps.shape, dtype=np.int32)
    counts = np.zeros((len(maps), len(classes)), dtype=np.int64)
    for j, cls in enumerate(classes):
        labeled, counts[:, j] = _label(maps == cls)
        taken = counts[:, :j].sum(axis=1)[:, None, None]  # ids of earlier classes
        ids += np.where(labeled > 0, labeled + taken, 0)
    stack = InstanceStack.from_tables(ids, counts.sum(axis=1),
                                      np.repeat(np.tile(classes, len(maps)), counts.ravel()))
    return stack.image(0) if class_map.ndim == 2 else stack

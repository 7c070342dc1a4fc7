"""Evaluation: panoptic quality for segmentation, accuracy, loss smoothing.

Panoptic quality follows the standard decomposition PQ = SQ x RQ with
segments matched iff IoU > 0.5, which makes the matching unique. Purely
semantic masks are converted to instances via connected components before
scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage


class MaskError(ValueError):
    pass


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


@dataclass(frozen=True)
class PQReport:
    """PQ decomposition: matched pairs, FP/FN ids, and the three scores.

    For class-aware scoring, sq/rq/pq are means over the classes present in
    the ground truth and `per_class` holds each class's (sq, rq, pq); the
    product identity pq == sq * rq then holds per class, not for the means.
    """

    matches: tuple[tuple[int, int, float], ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    sq: float
    rq: float
    pq: float
    per_class: dict[int, tuple[float, float, float]] | None = None


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


def _overlaps(pred: InstanceMask, gt: InstanceMask):
    """(pred_id, gt_id) -> intersection, plus per-side areas, background excluded."""
    if pred.shape != gt.shape:
        raise MaskError(f"mask dimensions differ: {pred.shape} vs {gt.shape}")
    offset = np.int64(gt.ids.max()) + 1
    combo = pred.ids.astype(np.int64) * offset + gt.ids.astype(np.int64)
    uniq, counts = np.unique(combo, return_counts=True)
    inter = {}
    for u, c in zip(uniq.tolist(), counts.tolist()):
        pid, gid = divmod(u, int(offset))
        if pid > 0 and gid > 0:
            inter[(pid, gid)] = c
    areas_p = dict(zip(*(a.tolist() for a in np.unique(pred.ids, return_counts=True))))
    areas_g = dict(zip(*(a.tolist() for a in np.unique(gt.ids, return_counts=True))))
    areas_p.pop(0, None)
    areas_g.pop(0, None)
    return inter, areas_p, areas_g


def match_segments(pred: InstanceMask, gt: InstanceMask, class_aware: bool = False):
    """Match segments at IoU > 0.5; returns (tp pairs with IoU, fp ids, fn ids).

    The threshold makes every admissible matching identical, so no search
    is needed: each pred id can exceed 0.5 IoU with at most one gt id.
    """
    inter, areas_p, areas_g = _overlaps(pred, gt)
    tp = []
    matched_p, matched_g = set(), set()
    for (pid, gid), c in sorted(inter.items()):
        if class_aware and pred.classes[pid] != gt.classes[gid]:
            continue
        pair_iou = c / (areas_p[pid] + areas_g[gid] - c)
        if pair_iou > 0.5:
            tp.append((pid, gid, float(pair_iou)))
            matched_p.add(pid)
            matched_g.add(gid)
    fp = [pid for pid in sorted(areas_p) if pid not in matched_p]
    fn = [gid for gid in sorted(areas_g) if gid not in matched_g]
    return tp, fp, fn


def _scores(tp, fp, fn):
    n_tp, n_fp, n_fn = len(tp), len(fp), len(fn)
    denom = n_tp + 0.5 * n_fp + 0.5 * n_fn
    rq = n_tp / denom if denom > 0 else 0.0
    sq = sum(m[2] for m in tp) / n_tp if n_tp else 0.0
    return sq, rq, sq * rq


def _restrict(mask: InstanceMask, cls: int) -> InstanceMask:
    keep = {i for i, c in mask.classes.items() if c == cls}
    if not keep:
        return InstanceMask(np.zeros(mask.shape, dtype=np.int32), {})
    ids = np.where(np.isin(mask.ids, list(keep)), mask.ids, 0)
    return InstanceMask(ids, {i: cls for i in keep})


def panoptic_quality(pred: InstanceMask, gt: InstanceMask,
                     class_aware: bool = False) -> PQReport:
    """Score a predicted instance mask against ground truth.

    class_aware restricts matching to same-class pairs and averages the
    scores over the classes present in the ground truth.
    """
    if not class_aware:
        tp, fp, fn = match_segments(pred, gt)
        sq, rq, pq = _scores(tp, fp, fn)
        return PQReport(tuple(tp), tuple(fp), tuple(fn), sq, rq, pq)

    classes = sorted(set(gt.classes.values()))
    all_tp, all_fp, all_fn = [], [], []
    per_class = {}
    for cls in classes:
        tp, fp, fn = match_segments(_restrict(pred, cls), _restrict(gt, cls))
        per_class[cls] = _scores(tp, fp, fn)
        all_tp += tp
        all_fp += fp
        all_fn += fn
    if classes:
        sq = float(np.mean([v[0] for v in per_class.values()]))
        rq = float(np.mean([v[1] for v in per_class.values()]))
        pq = float(np.mean([v[2] for v in per_class.values()]))
    else:
        sq = rq = pq = 0.0
    return PQReport(tuple(all_tp), tuple(all_fp), tuple(all_fn), sq, rq, pq,
                    per_class=per_class)


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


def connected_components(mask: np.ndarray, cls: int = 1) -> InstanceMask:
    """Instances from a binary mask: 4-connected components, one class."""
    mask = np.asarray(mask) != 0
    labeled, n = ndimage.label(mask)
    return InstanceMask(labeled.astype(np.int32), {i: cls for i in range(1, n + 1)})


def instances_from_class_map(class_map: np.ndarray) -> InstanceMask:
    """Instances from a per-pixel class map (0 = background).

    Each class's 4-connected components become instances labeled with that
    class; ids are assigned in (class, scan) order, so the result is
    deterministic.
    """
    class_map = np.asarray(class_map)
    ids = np.zeros(class_map.shape, dtype=np.int32)
    classes: dict[int, int] = {}
    next_id = 1
    for cls in sorted(int(c) for c in np.unique(class_map) if c != 0):
        labeled, n = ndimage.label(class_map == cls)
        ids[labeled > 0] = labeled[labeled > 0] + (next_id - 1)
        for j in range(n):
            classes[next_id + j] = cls
        next_id += n
    return InstanceMask(ids, classes)

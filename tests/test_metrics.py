import itertools

import numpy as np
import pytest
from scipy import ndimage

from mtlab.metrics import (
    InstanceStack,
    _unique,
    MaskError,
    accuracy,
    connected_components,
    instances_from_class_map,
    panoptic_quality,
    rolling_mean,
)


def _mask(ids, classes=None):
    """One image as a stack of one; each id is class 1 unless `classes` maps it."""
    ids = np.asarray(ids, dtype=np.int32)
    if classes is None:
        classes = {int(i): 1 for i in np.unique(ids) if i != 0}
    return InstanceStack(ids[None], [(0, i, c) for i, c in classes.items()])


def _image(stack, b=0):
    """Image b of a stack as its id map and {id: class}."""
    rows = stack.labels[stack.labels[:, 0] == b]
    return stack.ids[b], dict(zip(rows[:, 1].tolist(), rows[:, 2].tolist()))


def _instance_ids(stack, b=0):
    return sorted(set(np.unique(stack.ids[b]).tolist()) - {0})


def _scores(rep, b=0):
    """Image b's (sq, rq, pq) as floats."""
    return float(rep.sq[b]), float(rep.rq[b]), float(rep.pq[b])


def _class_scores(rep, b=0):
    return {c: tuple(float(s[b]) for s in v) for c, v in rep.per_class.items()}


def _random_mask(rng, size=16, max_instances=5):
    ids = np.zeros((size, size), dtype=np.int32)
    n = rng.integers(1, max_instances + 1)
    for i in range(1, n + 1):
        h = rng.integers(2, 8)
        w = rng.integers(2, 8)
        r = rng.integers(0, size - h)
        c = rng.integers(0, size - w)
        ids[r:r + h, c:c + w] = i  # later rectangles may overwrite earlier ones
    return _mask(ids, {i: 1 for i in range(1, n + 1)})


def _exhaustive_match(pred, gt):
    """Brute-force maximal matching over all IoU>0.5 pairs of two stacks of one
    (test oracle)."""
    edges = []
    for pid in _instance_ids(pred):
        for gid in _instance_ids(gt):
            a, b = pred.ids[0] == pid, gt.ids[0] == gid
            pair_iou = np.logical_and(a, b).sum() / np.logical_or(a, b).sum()
            if pair_iou > 0.5:
                edges.append((pid, gid))
    best = set()
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            ps = [e[0] for e in combo]
            gs = [e[1] for e in combo]
            if len(set(ps)) == len(ps) and len(set(gs)) == len(gs):
                best = set(combo)
                break
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# the IoU of a (pred, gt) pair, as panoptic_quality reports it for matches

def _pair_iou(a, b):
    """IoU panoptic_quality reports for the segments a and b, or None if unmatched."""
    rep = panoptic_quality(_mask(a.astype(np.int32)), _mask(b.astype(np.int32)))
    return rep.matches[0][3] if rep.matches else None


def test_iou_identical_sets():
    a = np.zeros((4, 4), dtype=bool)
    a[1:3, 1:3] = True
    assert _pair_iou(a, a) == 1.0


def test_iou_disjoint_sets():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0, 0] = True
    b[3, 3] = True
    assert _pair_iou(a, b) is None
    rep = panoptic_quality(_mask(a.astype(np.int32)), _mask(b.astype(np.int32)))
    assert rep.fp == ((0, 1),) and rep.fn == ((0, 1),)


def test_iou_hand_counts():
    a = np.zeros((1, 10), dtype=bool)
    b = np.zeros((1, 10), dtype=bool)
    a[0, :6] = True      # 6 pixels
    b[0, 2:7] = True     # 5 pixels, overlap 4
    assert _pair_iou(a, b) == pytest.approx(4 / 7)


def test_iou_dimension_mismatch():
    with pytest.raises(MaskError, match="dimensions"):
        _pair_iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


def test_two_empty_images_score_zero_with_no_pairs():
    # background is never a segment, so no IoU of two empty pixel sets is taken
    rep = panoptic_quality(_mask(np.zeros((2, 2))), _mask(np.zeros((2, 2))))
    assert rep.matches == rep.fp == rep.fn == ()
    assert _scores(rep) == (0.0, 0.0, 0.0)


def test_iou_symmetry():
    rng = np.random.default_rng(0)
    matched = 0
    for _ in range(50):
        a = rng.random((8, 8)) > 0.3
        b = rng.random((8, 8)) > 0.3
        ab, ba = _pair_iou(a, b), _pair_iou(b, a)
        assert ab == ba
        matched += ab is not None
    assert matched > 0


# ---------------------------------------------------------------------------
# matching / panoptic_quality

def test_match_identical_three_instances():
    ids = np.zeros((6, 6), dtype=np.int32)
    ids[0:2, 0:2] = 1
    ids[4:6, 0:2] = 2
    ids[2:4, 4:6] = 3
    m = _mask(ids)
    rep = panoptic_quality(m, m)
    assert len(rep.matches) == 3 and rep.fp == () and rep.fn == ()
    assert all(x == pytest.approx(1.0) for *_, x in rep.matches)


def test_spurious_prediction_is_fp():
    gt = np.zeros((6, 6), dtype=np.int32)
    gt[0:3, 0:3] = 1
    pred = gt.copy()
    pred[5, 5] = 2
    rep = panoptic_quality(_mask(pred), _mask(gt))
    assert len(rep.matches) == 1 and rep.fp == ((0, 2),) and rep.fn == ()


def test_greedy_equals_exhaustive_matching():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pred = _random_mask(rng)
        gt = _random_mask(rng)
        rep = panoptic_quality(pred, gt)
        assert {(p, g) for _, p, g, _ in rep.matches} == _exhaustive_match(pred, gt)


def test_matching_unique_per_id():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        tp = panoptic_quality(_random_mask(rng), _random_mask(rng)).matches
        assert len({p for _, p, _, _ in tp}) == len(tp)
        assert len({g for _, _, g, _ in tp}) == len(tp)


def test_pq_perfect_prediction():
    ids = np.zeros((8, 8), dtype=np.int32)
    ids[1:4, 1:4] = 1
    ids[5:8, 5:8] = 2
    rep = panoptic_quality(_mask(ids), _mask(ids))
    assert _scores(rep) == (1.0, 1.0, 1.0)


def test_pq_empty_prediction():
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[0:2, 0:2] = 1
    gt[4:6, 4:6] = 2
    rep = panoptic_quality(_mask(np.zeros((8, 8), dtype=np.int32)), _mask(gt))
    assert rep.rq[0] == 0.0 and rep.pq[0] == 0.0
    assert len(rep.fn) == 2


def test_pq_hand_fixture_point_four():
    # one TP at IoU 3/5, one FP, no other gt instance
    gt = np.zeros((4, 8), dtype=np.int32)
    gt[0, 0:4] = 1
    pred = np.zeros((4, 8), dtype=np.int32)
    pred[0, 1:5] = 1          # overlap 3, union 5
    pred[3, 0:3] = 2          # spurious
    sq, rq, pq = _scores(panoptic_quality(_mask(pred), _mask(gt)))
    assert sq == pytest.approx(0.6, abs=0)
    assert rq == pytest.approx(2 / 3, abs=0)
    assert pq == pytest.approx(0.4, abs=5e-16)
    assert pq == sq * rq


def test_pq_invariants_on_random_masks():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        rep = panoptic_quality(_random_mask(rng), _random_mask(rng))
        sq, rq, pq = _scores(rep)
        assert 0.0 <= sq <= 1.0
        assert 0.0 <= rq <= 1.0
        assert 0.0 <= pq <= 1.0
        assert pq == sq * rq
        assert all(x > 0.5 for *_, x in rep.matches)


def test_pq_class_aware_restricts_and_averages():
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[0:3, 0:3] = 1
    gt[5:8, 5:8] = 2
    pred = gt.copy()
    # prediction 1 has the wrong class: no match for class 1, and as a
    # same-shape instance of class 2 it does not overlap gt's class-2 target
    rep = panoptic_quality(
        _mask(pred, {1: 2, 2: 2}), _mask(gt, {1: 1, 2: 2}), class_aware=True)
    per_class = _class_scores(rep)
    assert set(per_class) == {1, 2}
    sq1, rq1, pq1 = per_class[1]
    sq2, rq2, pq2 = per_class[2]
    assert pq1 == 0.0          # gt class 1 unmatched
    assert rq2 == pytest.approx(2 / 3)  # one TP, one same-class FP
    assert rep.pq[0] == pytest.approx((pq1 + pq2) / 2)
    for sq, rq, pq in per_class.values():
        assert pq == sq * rq


def test_pq_dimension_mismatch():
    with pytest.raises(MaskError, match="dimensions"):
        panoptic_quality(_mask(np.zeros((4, 4), dtype=np.int32)),
                         _mask(np.zeros((5, 5), dtype=np.int32)))


def test_instance_mask_validates_labels():
    ids = np.zeros((3, 3), dtype=np.int32)
    ids[0, 0] = 7
    with pytest.raises(MaskError, match="without class"):
        panoptic_quality(_mask(ids, {}), _mask(ids))


@pytest.mark.parametrize("labels, message", [
    ([(0, 1, 1), (0, 1, 2)], "more than one label for ids: \\[1\\]"),
    ([(0, 0, 1)], "ids below 1: \\[0\\]"),
    ([(0, -2, 1)], "ids below 1: \\[-2\\]"),
    ([(1, 1, 1)], "images outside 0..0"),
], ids=["duplicate", "zero", "negative", "no-image"])
def test_instance_stack_rejects_bad_label_rows(labels, message):
    with pytest.raises(MaskError, match=message):
        InstanceStack(np.zeros((1, 3, 3), dtype=np.int32), labels)


def test_take_selects_images_in_order_with_repeats():
    rng = np.random.default_rng(8)
    pred_ids, pred_tables, _, _ = _random_pq_stack(rng, n=6)
    stack = _stack(pred_ids, pred_tables)
    images = [4, 0, 4, 5, 2]
    taken = stack.take(images)
    np.testing.assert_array_equal(taken.ids, pred_ids[images])
    for j, b in enumerate(images):
        assert _image(taken, j)[1] == _image(stack, b)[1]
    assert len(taken.labels) == sum(len(pred_tables[b]) for b in images)


# ---------------------------------------------------------------------------
# accuracy

def test_accuracy_all_correct():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_accuracy_hand_count():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        accuracy([0, 1], [0, 1, 2])


def test_accuracy_empty_rejected():
    with pytest.raises(ValueError):
        accuracy([], [])


# ---------------------------------------------------------------------------
# rolling_mean

def test_rolling_mean_constant_series():
    s = np.full(20, 3.0)
    np.testing.assert_array_equal(rolling_mean(s, 10), s)


def test_rolling_mean_hand_value():
    out = rolling_mean(np.arange(1.0, 11.0), 10)
    assert out[9] == 5.5


def test_rolling_mean_window_one_is_identity():
    s = np.array([4.0, -1.0, 7.5])
    np.testing.assert_array_equal(rolling_mean(s, 1), s)


def test_rolling_mean_zero_window_rejected():
    with pytest.raises(ValueError):
        rolling_mean(np.ones(3), 0)


def test_rolling_mean_partial_head_windows():
    out = rolling_mean(np.array([2.0, 4.0, 6.0, 8.0]), 3)
    np.testing.assert_allclose(out, [2.0, 3.0, 4.0, 6.0])


def test_rolling_mean_long_window_is_cumulative_mean():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, 30)
    cum = np.cumsum(s) / np.arange(1, 31)
    np.testing.assert_allclose(rolling_mean(s, 30), cum, atol=1e-12)
    np.testing.assert_allclose(rolling_mean(s, 100), cum, atol=1e-12)


def _rolling_mean_loop(series, window):
    """The original O(n*w) loop, kept as the byte-level reference."""
    series = np.asarray(series, dtype=np.float64)
    return np.array([series[max(0, i - window + 1):i + 1].mean()
                     for i in range(len(series))])


@pytest.mark.parametrize("n", [0, 1, 5, 10, 11, 3000, 5000])
def test_rolling_mean_bytes_match_reference_loop(n):
    s = np.random.default_rng(n).lognormal(0.0, 1.0, n)
    for w in (1, 2, 3, 7, 8, 9, 10, 16, 17, 33, 100):
        assert rolling_mean(s, w).tobytes() == _rolling_mean_loop(s, w).tobytes(), w


# ---------------------------------------------------------------------------
# components

def test_connected_components_splits_instances():
    mask = np.zeros((6, 6), dtype=np.int32)
    mask[0:2, 0:2] = 1
    mask[4:6, 4:6] = 1
    inst = connected_components(mask[None])
    assert _instance_ids(inst) == [1, 2]
    assert _image(inst)[1] == {1: 1, 2: 1}


def test_connected_components_diagonal_not_connected():
    mask = np.zeros((4, 4), dtype=np.int32)
    mask[0, 0] = 1
    mask[1, 1] = 1
    assert len(_instance_ids(connected_components(mask[None]))) == 2


def test_instances_from_class_map_assigns_classes():
    cm = np.zeros((6, 6), dtype=np.int32)
    cm[0:2, 0:2] = 1
    cm[0:2, 4:6] = 2
    cm[4:6, 0:2] = 2
    inst = instances_from_class_map(cm[None])
    assert sorted(_image(inst)[1].values()) == [1, 2, 2]
    assert len(_instance_ids(inst)) == 3
    # scoring the derived instances against themselves is perfect
    assert panoptic_quality(inst, inst, class_aware=True).pq[0] == 1.0


# ---------------------------------------------------------------------------
# stacks: labeling and scoring a (B, H, W) stack equal doing it image by image

def _class_map_reference(class_map):
    """Per-image (class, scan)-order ids: the 2-D conversion, one class at a time."""
    ids = np.zeros(class_map.shape, dtype=np.int32)
    classes, next_id = {}, 1
    for cls in sorted(int(c) for c in np.unique(class_map) if c != 0):
        labeled, n = ndimage.label(class_map == cls)
        ids[labeled > 0] = labeled[labeled > 0] + next_id - 1
        classes.update({next_id + j: cls for j in range(n)})
        next_id += n
    return ids, classes


def _labeling_stack():
    """Five 6x6 class maps: a blob across the image 1/2 border, diagonal
    neighbours, an empty image between non-empty ones, class 3 in one image."""
    cm = np.zeros((5, 6, 6), dtype=np.int64)
    cm[0, 0, 0] = cm[0, 1, 1] = 1          # diagonal neighbours: two instances
    cm[0, 4:6, 2:4] = 2
    cm[1, 4:6, 0:3] = 1                    # touches the last row of image 1 ...
    cm[2, 0:2, 0:3] = 1                    # ... and the first row of image 2
    cm[2, 3, 3] = 3
    cm[2, 2, 4] = cm[2, 3, 5] = 2
    # image 3 is empty
    cm[4, :, 0] = 2
    cm[4, 5, :] = 1
    return cm


def test_stacked_connected_components_equal_per_image_labeling():
    masks = _labeling_stack() > 0
    stack = connected_components(masks, cls=4)
    assert stack.ids.shape == masks.shape
    for b, mask in enumerate(masks):
        ref, n = ndimage.label(mask)
        np.testing.assert_array_equal(stack.ids[b], ref)
        assert _image(stack, b)[1] == {i: 4 for i in range(1, n + 1)}
        assert _image(connected_components(mask[None], cls=4))[1] == _image(stack, b)[1]
    assert len(_instance_ids(stack, 1)) == 1 and len(_instance_ids(stack, 2)) == 4
    assert _instance_ids(stack, 3) == []


def test_stacked_instances_from_class_map_equal_per_image_conversion():
    cm = _labeling_stack()
    stack = instances_from_class_map(cm)
    for b in range(len(cm)):
        ids, classes = _class_map_reference(cm[b])
        np.testing.assert_array_equal(stack.ids[b], ids)
        assert _image(stack, b)[1] == classes
        one = instances_from_class_map(cm[b][None])
        np.testing.assert_array_equal(one.ids[0], ids)
        assert _image(one)[1] == classes
    assert sorted(_image(stack, 2)[1].values()) == [1, 2, 2, 3]
    assert _image(stack, 3)[1] == {}


def _edge_case(name):
    """A (2, 5, 7) class map of one labeling edge case."""
    cm = np.zeros((2, 5, 7), dtype=np.int64)
    if name == "full":
        cm[:] = 3
    elif name == "one-pixel":
        cm[0, 2, 3] = cm[1, 0, 0] = cm[1, 4, 6] = 1
    elif name == "diagonal-only":  # a checkerboard: every pixel its own instance
        cm[:] = np.indices(cm.shape).sum(axis=0) % 2
        cm[1] *= 2
    elif name == "row-ends":  # runs from column 0 and to the last column, rows apart
        cm[:, ::2, :3] = 1
        cm[:, 1::2, 4:] = 1
        cm[:, :, 3] = np.arange(5) % 2 + 1
    elif name == "across-images":  # touch across the image 0/1 border only
        cm[0, 4, 1:5] = 1
        cm[1, 0, 2:6] = 1
        cm[0, 3:, 6] = cm[1, :2, 6] = 2
    return cm


def _labeling_maps():
    """(name, class map) of the labeling cases: a 9-image random stack with an
    empty image, the edge cases, and 150 random stacks of random shapes."""
    rng = np.random.default_rng(7)
    cm = rng.integers(0, 4, size=(9, 10, 10)) * (rng.random((9, 10, 10)) < 0.6)
    cm[3] = 0
    cm[5][cm[5] == 2] = 0
    yield "random 9x10x10", cm
    for name in ("empty", "full", "one-pixel", "diagonal-only", "row-ends", "across-images"):
        yield name, _edge_case(name)
    rng = np.random.default_rng(21)
    for i in range(150):
        b, h, w = (int(d) for d in rng.integers(1, 13, size=3))
        classes = int(rng.integers(1, 5))
        yield f"random stack {i}", (rng.integers(0, classes + 1, size=(b, h, w))
                                    * (rng.random((b, h, w)) < rng.random()))


def test_stacked_labeling_of_random_maps_equals_per_image_labeling():
    for name, cm in _labeling_maps():
        stack = instances_from_class_map(cm)
        binary = connected_components(cm > 0, cls=2)
        for b in range(len(cm)):
            ids, classes = _class_map_reference(cm[b])
            assert stack.ids[b].tobytes() == ids.tobytes(), (name, b)
            assert _image(stack, b)[1] == classes, (name, b)
            ids, n = ndimage.label(cm[b] > 0)
            assert binary.ids[b].tobytes() == ids.astype(np.int32).tobytes(), (name, b)
            assert _image(binary, b)[1] == {i: 2 for i in range(1, n + 1)}, (name, b)


def test_unique_equals_numpys():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 50):
        x = rng.integers(-3, 6, size=n)
        want = np.unique(x)
        got = _unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _oracle_pq(pred: InstanceStack, gt: InstanceStack, b: int, class_aware: bool):
    """Image b's PQ by brute force: pixel-set IoU of every (pred, gt) pair, per class."""
    (pred_ids, pred_classes), (gt_ids, gt_classes) = _image(pred, b), _image(gt, b)
    pred_present, gt_present = _instance_ids(pred, b), _instance_ids(gt, b)
    classes = sorted(set(gt_classes.values())) if class_aware else [None]
    scores = []
    for cls in classes:
        p_ids = [i for i in pred_present if cls is None or pred_classes[i] == cls]
        g_ids = [i for i in gt_present if cls is None or gt_classes[i] == cls]
        ious = []
        for p in p_ids:
            for g in g_ids:
                a, b = pred_ids == p, gt_ids == g
                inter, union = int((a & b).sum()), int((a | b).sum())
                if inter / union > 0.5:
                    ious.append(inter / union)
        tp, fp, fn = len(ious), len(p_ids) - len(ious), len(g_ids) - len(ious)
        denom = tp + 0.5 * fp + 0.5 * fn
        rq = tp / denom if denom > 0 else 0.0
        sq = sum(ious) / tp if tp else 0.0
        scores.append((sq, rq, sq * rq))
    if not scores:
        return 0.0, 0.0, 0.0
    if not class_aware:
        return scores[0]
    return tuple(float(np.mean([s[k] for s in scores])) for k in range(3))


def _random_pq_stack(rng, n=14, size=12, boxes=5, classes=3):
    """GT of classes 1..classes and a prediction, with one class more, built
    from it by shifts, relabeling, class flips and spurious boxes; image 0
    has an empty prediction, image 1 an empty GT, image 2 a GT class with no
    pixels and image 3 an empty GT class table."""
    gt_ids = np.zeros((n, size, size), dtype=np.int32)
    gt_tables, pred_tables = [], []
    pred_ids = np.zeros_like(gt_ids)
    for b in range(n):
        k = int(rng.integers(1, boxes + 1))
        for i in range(1, k + 1):
            h, w = rng.integers(2, 7, size=2)
            r, c = rng.integers(0, size - h), rng.integers(0, size - w)
            gt_ids[b, r:r + h, c:c + w] = i   # later boxes may hide earlier ids
        gt_tables.append(rng.integers(1, classes + 1, size=k))
        perm = np.concatenate([[0], rng.permutation(k) + 1])
        pred_ids[b] = np.roll(perm[gt_ids[b]], tuple(rng.integers(0, 2, size=2)), axis=(0, 1))
        extra = int(rng.integers(0, 3))
        for i in range(k + 1, k + extra + 1):
            r, c = rng.integers(0, size - 3, size=2)
            pred_ids[b, r:r + 3, c:c + 3] = i
        table = np.empty(k + extra, dtype=np.int64)
        table[perm[1:] - 1] = gt_tables[-1]
        flip = rng.random(k + extra) < 0.3
        table[flip] = rng.integers(1, classes + 2, size=int(flip.sum()))
        pred_tables.append(table)
    pred_ids[0] = 0
    gt_ids[1] = 0
    gt_ids[3] = 0
    gt_tables[3] = gt_tables[3][:0]
    gt_ids[2][gt_ids[2] == 1] = 0
    gt_tables[2][0] = classes + 1         # a gt class held only by an id without pixels
    return pred_ids, pred_tables, gt_ids, gt_tables


def _stack(ids, tables):
    return InstanceStack.from_tables(ids, [len(t) for t in tables], np.concatenate(tables))


@pytest.mark.parametrize("class_aware", [False, True], ids=["agnostic", "class-aware"])
def test_stacked_pq_equals_brute_force_oracle(class_aware):
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        pred_ids, pred_tables, gt_ids, gt_tables = _random_pq_stack(rng)
        pred, gt = _stack(pred_ids, pred_tables), _stack(gt_ids, gt_tables)
        rep = panoptic_quality(pred, gt, class_aware=class_aware)
        matched = 0
        for b in range(len(gt_ids)):
            expected = _oracle_pq(pred, gt, b, class_aware)
            assert (rep.sq[b], rep.rq[b], rep.pq[b]) == expected, (seed, b)
            single = panoptic_quality(pred.take([b]), gt.take([b]), class_aware=class_aware)
            assert _scores(single) == expected
            assert single.matches == tuple((0, *m[1:]) for m in rep.matches if m[0] == b)
            assert single.fp == tuple((0, f[1]) for f in rep.fp if f[0] == b)
            assert single.fn == tuple((0, f[1]) for f in rep.fn if f[0] == b)
            matched += len(single.matches)
        assert matched > 0
        assert rep.pq[0] == rep.pq[1] == rep.pq[3] == 0.0
        assert not any(f[0] in (1, 3) for f in rep.fn)
        if class_aware:
            assert rep.per_class[4][2][2] == 0.0 and np.isnan(rep.per_class[4][2][3])


def test_stacked_class_mean_over_many_classes_equals_oracle():
    # eight or more classes per image: np.mean sums pairwise, not in sequence
    rng = np.random.default_rng(400)
    pred_ids, pred_tables, gt_ids, gt_tables = _random_pq_stack(rng, n=40, size=24,
                                                                boxes=16, classes=12)
    pred, gt = _stack(pred_ids, pred_tables), _stack(gt_ids, gt_tables)
    rep = panoptic_quality(pred, gt, class_aware=True)
    assert max(len(set(t.tolist())) for t in gt_tables) >= 9
    for b in range(len(gt_ids)):
        assert (rep.sq[b], rep.rq[b], rep.pq[b]) == _oracle_pq(pred, gt, b, True)


def test_pq_class_aware_conventions():
    gt = np.zeros((8, 8), dtype=np.int32)
    gt[0:3, 0:3] = 1
    pred = gt.copy()
    pred[5:8, 5:8] = 2                       # class 9 is not in the gt table
    rep = panoptic_quality(_mask(pred, {1: 1, 2: 9}), _mask(gt, {1: 1, 2: 2}),
                           class_aware=True)
    # class 2 labels an id with no pixels: it scores 0 and counts in the mean
    assert _class_scores(rep) == {1: (1.0, 1.0, 1.0), 2: (0.0, 0.0, 0.0)}
    assert rep.pq[0] == 0.5 and rep.fp == () and rep.fn == ()


def test_stacked_gt_errors_name_the_image():
    ids = np.zeros((3, 4, 4), dtype=np.int32)
    ids[2, 0, 0] = 2
    gt = InstanceStack.from_tables(ids, [0, 1, 1], [1, 1])
    with pytest.raises(MaskError, match="without class labels: \\[2\\]") as exc:
        panoptic_quality(InstanceStack.from_tables(np.zeros_like(ids), [0, 0, 0], []), gt)
    assert exc.value.image == 2
    ids[1, 3, 3] = -1
    with pytest.raises(MaskError, match=">= 0") as exc:
        InstanceStack.from_tables(ids, [0, 0, 0], [])
    assert exc.value.image == 1

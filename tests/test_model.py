import numpy as np
import pytest

from mtlab import autodiff as ad
from mtlab.autodiff import Graph, Tensor
from mtlab.config import DEFAULT_ENCODER, parse_encoder_spec
from mtlab.model import (
    Activation,
    Conv,
    Dense,
    GlobalAvgPool,
    ModelSpecError,
    ParamStore,
    build_classification_decoder,
    build_encoder,
    build_segmentation_decoder,
    forward_task,
    forward_task_logits,
)


def _rng():
    return np.random.default_rng(42)


def test_encoder_shape_propagation():
    store = ParamStore()
    enc = build_encoder([Conv(8, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        (3, 16, 16), store, _rng())
    assert enc.feature_dim == 8
    assert enc.map_shape == (8, 16, 16)


def test_empty_spec_is_identity_encoder():
    store = ParamStore()
    enc = build_encoder([], (3, 4, 4), store, _rng())
    assert enc.feature_dim == 48
    x = np.arange(48.0).reshape(1, 3, 4, 4)
    g = Graph()
    feats = enc.forward_features(g, Tensor(x))
    np.testing.assert_array_equal(feats.data, x.reshape(1, 48))


def test_dense_after_spatial_rejected():
    with pytest.raises(ModelSpecError, match="layer 0"):
        build_encoder([Dense(4)], (3, 8, 8), ParamStore(), _rng())


def test_classification_decoder_rows_sum_to_one():
    store = ParamStore()
    enc = build_encoder([Conv(8, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        (3, 8, 8), store, _rng())
    dec = build_classification_decoder(0, enc.feature_dim, 3, store, _rng())
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (4, 3, 8, 8)))
    y = forward_task(enc, dec, x, Graph())
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_all_paper_style_arities_constructible():
    store = ParamStore()
    for i, k in enumerate([2, 9, 6, 3, 4, 3, 5]):
        dec = build_classification_decoder(i, 8, k, store, _rng())
        assert dec.num_classes == k


def test_zero_feature_dim_rejected():
    with pytest.raises(ModelSpecError):
        build_classification_decoder(0, 0, 3, ParamStore(), _rng())


def test_softmax_needs_two_classes():
    with pytest.raises(ModelSpecError):
        build_classification_decoder(0, 8, 1, ParamStore(), _rng())


def test_segmentation_decoder_restores_resolution():
    store = ParamStore()
    dec = build_segmentation_decoder(0, (8, 8, 8), 2, [2], (16, 16), store, _rng())
    g = Graph()
    fmap = Tensor(np.random.default_rng(2).uniform(-1, 1, (2, 8, 8, 8)))
    logits = dec.forward_logits(g, fmap)
    assert logits.shape == (2, 2, 16, 16)


def test_segmentation_head_projects_then_upsamples():
    store = ParamStore()
    dec = build_segmentation_decoder(0, (8, 4, 4), 3, [2, 2], (16, 16), store, _rng())
    fmap = Tensor(np.random.default_rng(5).uniform(-1, 1, (2, 8, 4, 4)))
    g = Graph()
    logits = dec.forward_logits(g, fmap)
    assert [n.op for n in g._nodes if n.op not in ("leaf", "const")] == \
        ["conv2d", "upsample_nearest", "upsample_nearest"]
    # the 1x1 conv commutes with nearest upsampling: upsampling first gives the same logits
    up = ad.upsample_nearest(ad.upsample_nearest(fmap, 2), 2)
    want = ad.conv2d(up, store.get(f"{dec.group}/proj.weight"),
                     store.get(f"{dec.group}/proj.bias"))
    np.testing.assert_allclose(logits.data, want.data, rtol=1e-14, atol=1e-15)


def test_sigmoid_mask_head_in_unit_interval():
    store = ParamStore()
    enc = build_encoder([Conv(4, 3, padding=1), Activation("relu")], (3, 16, 16),
                        store, _rng())
    dec = build_segmentation_decoder(0, enc.map_shape, 1, [], (16, 16), store, _rng())
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 3, 16, 16)))
    y = forward_task(enc, dec, x, Graph())
    assert y.shape == (2, 1, 16, 16)
    assert np.all((y.data > 0) & (y.data < 1))


def test_resolution_mismatch_rejected():
    with pytest.raises(ModelSpecError, match="12x12"):
        build_segmentation_decoder(0, (8, 6, 6), 2, [2], (16, 16), ParamStore(), _rng())


def test_zero_weight_softmax_head_is_uniform():
    store = ParamStore()
    enc = build_encoder([], (4,), store, _rng())
    dec = build_classification_decoder(0, 4, 2, store, _rng())
    store.set(f"{dec.group}/head.weight", Tensor(np.zeros((4, 2))))
    y = forward_task(enc, dec, Tensor([[1.0, -2.0, 0.5, 3.0]]), Graph())
    np.testing.assert_array_equal(y.data, [[0.5, 0.5]])


def test_forward_determinism():
    store = ParamStore()
    enc = build_encoder([Conv(6, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        (3, 8, 8), store, _rng())
    dec = build_classification_decoder(0, 6, 3, store, _rng())
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 3, 8, 8)))
    a = forward_task(enc, dec, x, Graph())
    b = forward_task(enc, dec, x, Graph())
    assert a.data.tobytes() == b.data.tobytes()


def test_classification_head_rejects_wrong_feature_dim():
    store = ParamStore()
    # encoder without pooling delivers a flattened 8*16*16 vector, but the
    # head was sized for the pooled 8-dim feature
    enc = build_encoder([Conv(8, 3, padding=1)], (3, 16, 16), store, _rng())
    dec = build_classification_decoder(0, 8, 3, store, _rng())
    x = Tensor(np.zeros((1, 3, 16, 16)))
    with pytest.raises(ModelSpecError, match="features"):
        forward_task(enc, dec, x, Graph())


def test_parameter_groups_disjoint():
    store = ParamStore()
    enc = build_encoder([Conv(4, 3)], (3, 8, 8), store, _rng())
    build_classification_decoder(0, 4, 2, store, _rng())
    build_classification_decoder(1, 4, 3, store, _rng())
    seen = {}
    for group in store.group_names():
        for pid in store.sorted_ids(group):
            assert pid not in seen, f"{pid} in both {seen.get(pid)} and {group}"
            seen[pid] = group
    assert set(store.group_names()) == {"encoder", "decoder0", "decoder1"}


def test_duplicate_parameter_id_rejected():
    store = ParamStore()
    store.add("g", "p", Tensor([1.0]))
    with pytest.raises(ValueError, match="already registered"):
        store.add("other", "p", Tensor([2.0]))


def test_shared_encoder_uses_identical_tensors_across_tasks():
    store = ParamStore()
    enc = build_encoder([Conv(4, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        (3, 8, 8), store, _rng())
    d0 = build_classification_decoder(0, 4, 2, store, _rng())
    d1 = build_classification_decoder(1, 4, 3, store, _rng())
    x = Tensor(np.zeros((1, 3, 8, 8)))

    seen = []
    for dec in (d0, d1):
        g = Graph()
        forward_task(enc, dec, x, g)
        ids = [n.param_id for n in g._nodes if n.param_id is not None]
        enc_ids = [pid for pid in ids if pid.startswith("encoder/")]
        seen.append((enc_ids, [store.get(pid) for pid in enc_ids]))

    assert seen[0][0] == seen[1][0]
    for t0, t1 in zip(seen[0][1], seen[1][1]):
        assert t0 is t1  # same tensor objects, not copies


def test_initialization_seeded_and_in_range():
    s1, s2 = ParamStore(), ParamStore()
    e1 = build_encoder([Conv(4, 3)], (3, 8, 8), s1, np.random.default_rng(7))
    e2 = build_encoder([Conv(4, 3)], (3, 8, 8), s2, np.random.default_rng(7))
    w1 = s1.get("encoder/layer00.weight").data
    w2 = s2.get("encoder/layer00.weight").data
    np.testing.assert_array_equal(w1, w2)
    bound = np.sqrt(6.0 / (3 * 9 + 4 * 9))
    assert np.all(np.abs(w1) <= bound)
    assert not s1.get("encoder/layer00.bias").data.any()


@pytest.mark.parametrize("kind, ops", [
    ("classification", ["conv2d", "relu", "global_avg_pool", "matmul"]),
    ("segmentation", ["conv2d", "relu", "conv2d"]),
])
def test_each_conv_or_dense_layer_is_one_tape_op(kind, ops):
    store = ParamStore()
    enc = build_encoder(parse_encoder_spec(DEFAULT_ENCODER), (3, 32, 32), store, _rng())
    dec = (build_classification_decoder(0, enc.feature_dim, 3, store, _rng())
           if kind == "classification" else
           build_segmentation_decoder(0, enc.map_shape, 3, (), (32, 32), store, _rng()))
    g = Graph()
    forward_task_logits(enc, dec, Tensor(np.zeros((2, 3, 32, 32))), g)
    assert [n.op for n in g._nodes if n.op not in ("leaf", "const")] == ops

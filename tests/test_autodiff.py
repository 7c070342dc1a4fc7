import gc
import importlib.util
import inspect
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mtlab import autodiff
from mtlab.autodiff import (
    Graph,
    ShapeMismatchError,
    Tensor,
    add,
    apply_activation,
    backward,
    binary_cross_entropy,
    conv2d,
    cross_entropy,
    finite_diff_grad,
    global_avg_pool,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    tensor_sum,
    upsample_nearest,
)


def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]), Tensor([0.5]))
    np.testing.assert_array_equal(out.data, [[17.5], [39.5]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_matmul_rejects_bias_of_wrong_shape():
    with pytest.raises(ShapeMismatchError, match="bias"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4))))


def test_conv2d_pointwise_scaling():
    out = conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.full((1, 1, 1, 1), 2.0)),
                 Tensor(np.zeros((1, 1, 1))))
    np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))


def test_conv2d_adds_one_bias_per_filter():
    out = conv2d(Tensor(np.ones((2, 1, 3, 3))), Tensor(np.ones((2, 1, 1, 1))),
                 Tensor([[[0.5]], [[-1.0]]]))
    np.testing.assert_array_equal(out.data[:, 0], np.full((2, 3, 3), 1.5))
    np.testing.assert_array_equal(out.data[:, 1], np.zeros((2, 3, 3)))


def test_im2col_of_1x1_stride1_unpadded_conv_is_a_view_of_the_input():
    from mtlab.autodiff import _im2col

    x = np.random.default_rng(0).uniform(-1, 1, (2, 3, 4, 5))
    cols = _im2col(x, 1, 1, 1, 4, 5)
    assert np.shares_memory(cols, x)
    np.testing.assert_array_equal(cols, x.reshape(2, 3, 20))


def test_conv2d_full_kernel_sum():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k, Tensor(np.zeros((1, 1, 1))))
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 45.0


def test_conv2d_shape_formula():
    out = conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((2, 1, 3, 3))),
                 Tensor(np.zeros((2, 1, 1))), stride=2, padding=1)
    assert out.shape == (1, 2, 3, 3)


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeMismatchError):
        conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 7, 7))),
               Tensor(np.zeros((1, 1, 1))))


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeMismatchError, match="channels"):
        conv2d(Tensor(np.zeros((1, 3, 5, 5))), Tensor(np.zeros((1, 8, 3, 3))),
               Tensor(np.zeros((1, 1, 1))))


def test_conv2d_takes_batches_only():
    with pytest.raises(ShapeMismatchError, match=r"\(B,C,H,W\)"):
        conv2d(Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros((1, 1, 3, 3))),
               Tensor(np.zeros((1, 1, 1))))


def test_conv2d_rejects_bias_of_wrong_shape():
    with pytest.raises(ShapeMismatchError, match="bias"):
        conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((2, 1, 3, 3))),
               Tensor(np.zeros(2)))


def test_add_rejects_broadcasting():
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_relu_example():
    out = apply_activation(Tensor([-1.0, 0.0, 2.0]), "relu")
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry_point():
    assert apply_activation(Tensor([0.0]), "sigmoid").data[0] == 0.5


def test_softmax_stabilized_under_huge_logits():
    out = apply_activation(Tensor([1000.0, 1000.0]), "softmax")
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    assert np.all(np.isfinite(out.data))


def test_nan_rejected_at_construction():
    with pytest.raises(ValueError, match="finite"):
        Tensor([np.nan, 1.0])


def test_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation"):
        apply_activation(Tensor([1.0]), "tanh")


def test_cross_entropy_confident_correct():
    loss = cross_entropy(Tensor([[10.0, -10.0]]), np.array([0]))
    assert loss.item() < 1e-4


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), np.array([1]))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(Tensor(np.zeros((1, 3))), np.array([5]))


def test_backward_sum_gives_ones():
    g = Graph()
    p = g.param("p", Tensor([1.0, 2.0, 3.0]))
    grads = backward(tensor_sum(p))
    np.testing.assert_array_equal(grads["p"].data, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    g = Graph()
    p = g.param("p", Tensor([1.0, 2.0, 3.0]))
    grads = backward(tensor_sum(mul(p, p)))
    np.testing.assert_array_equal(grads["p"].data, [2.0, 4.0, 6.0])


def test_backward_skips_unreachable_parameter():
    g = Graph()
    p = g.param("p", Tensor([1.0, 2.0]))
    q = g.param("q", Tensor([5.0]))  # never used downstream
    grads = backward(tensor_sum(p))
    assert "p" in grads and "q" not in grads


def test_backward_rejects_non_scalar():
    g = Graph()
    p = g.param("p", Tensor([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        backward(mul(p, p))


def test_backward_rejects_detached_loss():
    with pytest.raises(ValueError, match="graph"):
        backward(tensor_sum(Tensor([1.0])))


def test_mixed_graphs_rejected():
    g1, g2 = Graph(), Graph()
    a = g1.param("a", Tensor([1.0]))
    b = g2.param("b", Tensor([1.0]))
    with pytest.raises(ValueError, match="different graphs"):
        add(a, b)


def test_finite_diff_sum_of_squares():
    fd = finite_diff_grad(lambda t: tensor_sum(mul(t, t)), Tensor([3.0]), h=1e-5)
    assert abs(fd.data[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    fd = finite_diff_grad(lambda t: 7.5, Tensor([1.0, 2.0]), h=1e-5)
    np.testing.assert_array_equal(fd.data, [0.0, 0.0])


def test_finite_diff_linear_exact():
    rng = np.random.default_rng(3)
    p = Tensor(rng.uniform(-1, 1, size=5))
    fd = finite_diff_grad(tensor_sum, p, h=1e-5)
    np.testing.assert_allclose(fd.data, np.ones(5), atol=1e-8)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(tensor_sum, Tensor([1.0]), h=0.0)


# ---------------------------------------------------------------------------
# gradient checks: backward vs central finite differences for every op kind

def _assert_grad_close(got, want):
    err = np.abs(got - want)
    tol = 1e-7 + 1e-4 * np.maximum(np.abs(got), np.abs(want))
    assert np.all(err <= tol), f"max grad error {err.max():.3e} exceeds tolerance"


def _check_op_grad(make_scalar, p0):
    """Compare tape gradients against finite differences for one parameter."""
    g = Graph()
    p = g.param("p", Tensor(p0))
    grads = backward(make_scalar(p))
    fd = finite_diff_grad(make_scalar, Tensor(p0), h=1e-5)
    _assert_grad_close(grads["p"].data, fd.data)


def _weighted(out, coeffs):
    return tensor_sum(mul(out, Tensor(coeffs)))


GRAD_CASES = []


def grad_case(fn):
    GRAD_CASES.append(fn)
    return fn


@grad_case
def case_add_same_shape(rng):
    b = rng.uniform(-1, 1, (3, 4))
    c = rng.uniform(-1, 1, (3, 4))
    _check_op_grad(lambda p: _weighted(add(p, Tensor(b)), c), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_mul(rng):
    b = rng.uniform(-1, 1, (2, 5))
    c = rng.uniform(-1, 1, (2, 5))
    _check_op_grad(lambda p: _weighted(mul(p, Tensor(b)), c), rng.uniform(-1, 1, (2, 5)))


@grad_case
def case_matmul_lhs(rng):
    b = rng.uniform(-1, 1, (4, 3))
    bias = rng.uniform(-1, 1, (3,))
    c = rng.uniform(-1, 1, (2, 3))
    _check_op_grad(lambda p: _weighted(matmul(p, Tensor(b), Tensor(bias)), c),
                   rng.uniform(-1, 1, (2, 4)))


@grad_case
def case_matmul_rhs(rng):
    a = rng.uniform(-1, 1, (2, 4))
    bias = rng.uniform(-1, 1, (3,))
    c = rng.uniform(-1, 1, (2, 3))
    _check_op_grad(lambda p: _weighted(matmul(Tensor(a), p, Tensor(bias)), c),
                   rng.uniform(-1, 1, (4, 3)))


@grad_case
def case_matmul_bias(rng):
    a = rng.uniform(-1, 1, (2, 4))
    b = rng.uniform(-1, 1, (4, 3))
    c = rng.uniform(-1, 1, (2, 3))
    _check_op_grad(lambda p: _weighted(matmul(Tensor(a), Tensor(b), p), c),
                   rng.uniform(-1, 1, (3,)))


@grad_case
def case_conv2d_input(rng):
    k = rng.uniform(-1, 1, (2, 3, 3, 3))
    bias = rng.uniform(-1, 1, (2, 1, 1))
    c = rng.uniform(-1, 1, (1, 2, 3, 3))
    _check_op_grad(
        lambda p: _weighted(conv2d(p, Tensor(k), Tensor(bias), stride=2, padding=1), c),
        rng.uniform(-1, 1, (1, 3, 5, 5)))


@grad_case
def case_conv2d_kernels(rng):
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    bias = rng.uniform(-1, 1, (2, 1, 1))
    c = rng.uniform(-1, 1, (2, 2, 4, 4))
    _check_op_grad(
        lambda p: _weighted(conv2d(Tensor(x), p, Tensor(bias), stride=1, padding=1), c),
        rng.uniform(-1, 1, (2, 3, 3, 3)))


@grad_case
def case_conv2d_bias(rng):
    x = rng.uniform(-1, 1, (2, 3, 5, 5))
    k = rng.uniform(-1, 1, (2, 3, 3, 3))
    c = rng.uniform(-1, 1, (2, 2, 3, 3))
    _check_op_grad(
        lambda p: _weighted(conv2d(Tensor(x), Tensor(k), p, stride=2, padding=1), c),
        rng.uniform(-1, 1, (2, 1, 1)))


@grad_case
def case_conv2d_input_batched_strided(rng):
    k = rng.uniform(-1, 1, (2, 3, 3, 3))
    bias = rng.uniform(-1, 1, (2, 1, 1))
    c = rng.uniform(-1, 1, (2, 2, 3, 3))
    _check_op_grad(
        lambda p: _weighted(conv2d(p, Tensor(k), Tensor(bias), stride=2, padding=1), c),
        rng.uniform(-1, 1, (2, 3, 5, 5)))


@grad_case
def case_conv2d_pointwise_input(rng):
    k = rng.uniform(-1, 1, (4, 3, 1, 1))
    bias = rng.uniform(-1, 1, (4, 1, 1))
    c = rng.uniform(-1, 1, (2, 4, 3, 5))
    _check_op_grad(lambda p: _weighted(conv2d(p, Tensor(k), Tensor(bias)), c),
                   rng.uniform(-1, 1, (2, 3, 3, 5)))


@grad_case
def case_conv2d_pointwise_kernels(rng):
    x = rng.uniform(-1, 1, (2, 3, 3, 5))
    bias = rng.uniform(-1, 1, (4, 1, 1))
    c = rng.uniform(-1, 1, (2, 4, 3, 5))
    _check_op_grad(lambda p: _weighted(conv2d(Tensor(x), p, Tensor(bias)), c),
                   rng.uniform(-1, 1, (4, 3, 1, 1)))


@grad_case
def case_relu(rng):
    c = rng.uniform(-1, 1, (3, 4))
    _check_op_grad(lambda p: _weighted(relu(p), c), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_sigmoid(rng):
    c = rng.uniform(-1, 1, (3, 4))
    _check_op_grad(lambda p: _weighted(sigmoid(p), c), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_softmax(rng):
    c = rng.uniform(-1, 1, (3, 4))
    _check_op_grad(lambda p: _weighted(softmax(p), c), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_softmax_channel_axis(rng):
    c = rng.uniform(-1, 1, (2, 3, 2, 2))
    _check_op_grad(lambda p: _weighted(softmax(p, axis=1), c), rng.uniform(-1, 1, (2, 3, 2, 2)))


@grad_case
def case_global_avg_pool(rng):
    c = rng.uniform(-1, 1, (2, 3))
    _check_op_grad(lambda p: _weighted(global_avg_pool(p), c), rng.uniform(-1, 1, (2, 3, 4, 4)))


@grad_case
def case_upsample_nearest(rng):
    c = rng.uniform(-1, 1, (1, 2, 6, 6))
    _check_op_grad(lambda p: _weighted(upsample_nearest(p, 2), c),
                   rng.uniform(-1, 1, (1, 2, 3, 3)))


@grad_case
def case_reshape(rng):
    c = rng.uniform(-1, 1, (12,))
    _check_op_grad(lambda p: _weighted(reshape(p, (12,)), c), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_sum(rng):
    _check_op_grad(tensor_sum, rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_cross_entropy_batch(rng):
    labels = rng.integers(0, 4, size=3)
    _check_op_grad(lambda p: cross_entropy(p, labels), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_cross_entropy_batched_pixel(rng):
    labels = rng.integers(0, 3, size=(2, 3, 3))
    _check_op_grad(lambda p: cross_entropy(p, labels), rng.uniform(-1, 1, (2, 3, 3, 3)))


@grad_case
def case_binary_cross_entropy(rng):
    targets = rng.integers(0, 2, size=(3, 4)).astype(float)
    _check_op_grad(lambda p: binary_cross_entropy(p, targets), rng.uniform(-1, 1, (3, 4)))


@grad_case
def case_composite_network(rng):
    # conv -> relu -> pool -> matmul -> softmax -> weighted sum
    x = rng.uniform(-1, 1, (2, 2, 4, 4))
    w = rng.uniform(-1, 1, (3, 2, 3, 3))
    bw = rng.uniform(-1, 1, (3, 1, 1))
    bp = rng.uniform(-1, 1, (2,))
    c = rng.uniform(-1, 1, (2, 2))

    def net(p):
        h = relu(conv2d(Tensor(x), Tensor(w), Tensor(bw), padding=1))
        feats = global_avg_pool(h)
        return _weighted(softmax(matmul(feats, p, Tensor(bp))), c)

    _check_op_grad(net, rng.uniform(-1, 1, (3, 2)))


@pytest.mark.parametrize("case", GRAD_CASES, ids=lambda f: f.__name__)
def test_gradient_check(case):
    for seed in range(20):
        case(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# invariants

def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = Tensor(rng.uniform(-50, 50, size=(4, 7)))
        s = softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)


def test_relu_bounds():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(6, 6))
    out = relu(Tensor(x)).data
    assert np.all(out >= 0)
    pos = x >= 0
    assert np.all(out[pos] <= x[pos])


@pytest.mark.parametrize("broadcast", [False, True], ids=["array", "broadcast-view"])
def test_relu_backward_is_the_masked_product_in_a_new_array(broadcast):
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, (2, 3, 4, 4))
    x[0, 0, 0, :2] = 0.0, -0.0
    g = rng.uniform(-1, 1, (2, 3, 4, 4))
    g[0, 0, 0, 2:] = 0.0, -0.0
    if broadcast:  # as global_avg_pool's backward hands it on, read-only
        g = np.broadcast_to(g[:, :, :1, :1], g.shape)
    before = g.copy()
    graph = Graph()
    out = relu(graph.param("x", Tensor(x)))
    (dx,) = graph._nodes[out.node_id].backward_fn(g, (True,))
    # the same bytes as g * (x > 0), signed zeros included, and g is untouched
    assert dx.tobytes() == (g * (x > 0)).tobytes()
    assert np.signbit(dx).any() and (dx == 0).any()
    assert not np.shares_memory(dx, g)
    assert g.tobytes() == before.tobytes()


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, (2, 3, 5, 5))
    w = rng.uniform(-1, 1, (4, 3, 3, 3))
    results = []
    for _ in range(2):
        g = Graph()
        p = g.param("w", Tensor(w))
        out = relu(conv2d(g.constant(Tensor(x)), p, Tensor(np.zeros((4, 1, 1))), padding=1))
        results.append(backward(tensor_sum(out))["w"].data)
    assert results[0].tobytes() == results[1].tobytes()


def test_backward_linearity_power_of_two_exact():
    rng = np.random.default_rng(14)
    w = rng.uniform(-1, 1, (3, 3))

    def run(factor):
        g = Graph()
        p = g.param("w", Tensor(w))
        loss = tensor_sum(mul(p, p))
        return backward(mul(loss, Tensor(factor)))["w"].data

    for a in (2.0, 8.0, 0.25):
        np.testing.assert_array_equal(run(a), a * run(1.0))


def test_forward_values_stay_finite():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(-100, 100, size=(4, 6)))
    for op in (relu, sigmoid, softmax):
        assert np.all(np.isfinite(op(x).data))
    assert np.isfinite(cross_entropy(x, rng.integers(0, 6, size=4)).item())


def test_shared_parameter_grads_accumulate():
    g = Graph()
    p1 = g.param("p", Tensor([2.0]))
    p2 = g.param("p", Tensor([2.0]))  # same parameter leafed twice
    grads = backward(tensor_sum(mul(p1, p2)))
    np.testing.assert_array_equal(grads["p"].data, [4.0])


def test_add_of_two_parameters_gives_both_read_only_gradients():
    rng = np.random.default_rng(16)
    a0, b0, c = (rng.uniform(-1, 1, (3, 4)) for _ in range(3))
    g = Graph()
    a, b = g.param("a", Tensor(a0)), g.param("b", Tensor(b0))
    grads = backward(_weighted(add(a, b), c))
    for pid in ("a", "b"):
        np.testing.assert_array_equal(grads[pid].data, c)
        assert not grads[pid].data.flags.writeable
        with pytest.raises(ValueError):
            grads[pid].data[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax"])
def test_apply_activation_rejects_nan_input(kind):
    x = Tensor._wrap(np.array([[0.5, np.nan, -1.0]]))  # _wrap skips the finiteness check
    with pytest.raises(ValueError, match="NaN"):
        apply_activation(x, kind)


# ---------------------------------------------------------------------------
# tape lifetime: closures hold arrays and shapes, never a Tensor

def _ramp(*shape):
    return np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)


TAPE_CASES = {   # op -> (parameter shape, loss built from the parameter leaf)
    "add": ((2, 3), lambda p: tensor_sum(add(p, Tensor(_ramp(2, 3))))),
    "mul": ((2, 3), lambda p: tensor_sum(mul(p, p))),
    "matmul": ((2, 3), lambda p: tensor_sum(
        matmul(p, Tensor(_ramp(3, 4)), Tensor(np.zeros(4))))),
    "conv2d": ((1, 2, 5, 5), lambda p: tensor_sum(conv2d(
        p, Tensor(_ramp(3, 2, 3, 3)), Tensor(np.zeros((3, 1, 1))),
        stride=2, padding=1))),
    "relu": ((2, 3), lambda p: tensor_sum(relu(p))),
    "sigmoid": ((2, 3), lambda p: tensor_sum(sigmoid(p))),
    "softmax": ((2, 3), lambda p: tensor_sum(mul(softmax(p), p))),
    "global_avg_pool": ((1, 2, 3, 3), lambda p: tensor_sum(global_avg_pool(p))),
    "upsample_nearest": ((1, 2, 3, 3), lambda p: tensor_sum(upsample_nearest(p, 2))),
    "reshape": ((2, 3), lambda p: tensor_sum(reshape(p, (3, 2)))),
    "cross_entropy": ((2, 3), lambda p: cross_entropy(p, np.array([0, 2]))),
    "binary_cross_entropy": ((2, 3), lambda p: binary_cross_entropy(p, np.ones((2, 3)))),
}


@pytest.mark.parametrize("op", sorted(TAPE_CASES))
def test_tape_is_freed_without_the_cyclic_gc(op):
    shape, make_loss = TAPE_CASES[op]
    gc.collect()
    gc.disable()
    try:
        g = Graph()
        backward(make_loss(g.param("p", Tensor(_ramp(*shape)))))
        tape = weakref.ref(g)
        del g
        assert tape() is None, f"{op}: a reference cycle keeps the tape alive"
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# names the benchmark tracer wraps

def test_benchmark_tracer_wraps_module_functions(monkeypatch):
    """perfbench/tracer.py patches autodiff ops by name and activations through
    `_ACTIVATIONS`; a renamed op or a table entry that is not the module
    function would break a traced benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.AUTODIFF_OPS:
        fn = getattr(autodiff, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == autodiff.__name__, name
    for name, fn in autodiff._ACTIVATIONS.items():
        assert fn is getattr(autodiff, name), name

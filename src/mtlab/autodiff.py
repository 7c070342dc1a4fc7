"""Dense float64 tensors plus reverse-mode autodiff on a per-step tape.

A `Graph` records every op applied to tensors attached to it; `backward`
walks the tape once in reverse append order (which is reverse topological
order, since inputs always precede outputs) and returns gradients for the
parameter leaves reachable from the loss. Graphs are built fresh for each
training step and discarded after backward.

Backward closures capture arrays and shapes, never a `Tensor`: a tensor on
a graph refers to the graph, so a closure holding one would make a
reference cycle (tensor -> graph -> node -> closure -> tensor). Without
cycles a step's tape and every array its closures hold are freed by
reference counting as soon as the step's last tensor goes, not at the next
run of the cyclic garbage collector.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class Tensor:
    """Immutable dense float64 array; optionally a node on a Graph.

    Values are never mutated after construction, so tensors are safe to
    share across threads and to keep in parameter stores.
    """

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim > 0 and min(arr.shape) < 1:
            raise ValueError(f"tensor extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.graph = None
        self.node_id = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, graph: "Graph | None" = None, node_id: int | None = None):
        t = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64, order="C")  # keeps 0-d scalars 0-d
        if not arr.flags.c_contiguous or arr.base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        t.data = arr
        t.graph = graph
        t.node_id = node_id
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, data={self.data!r})"


class _Node:
    __slots__ = ("op", "inputs", "param_id", "requires_grad", "backward_fn")

    def __init__(self, op, inputs, param_id, requires_grad, backward_fn):
        self.op = op
        self.inputs = inputs  # node ids of the inputs, all < this node's id
        self.param_id = param_id
        self.requires_grad = requires_grad
        self.backward_fn = backward_fn


class Graph:
    """Append-only tape of op records for one forward/backward cycle."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self):
        return len(self._nodes)

    def _append(self, node: _Node) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def param(self, param_id: str, t: Tensor) -> Tensor:
        """Attach a trainable parameter leaf; its gradient appears in the GradMap."""
        nid = self._append(_Node("leaf", (), param_id, True, None))
        return Tensor._wrap(t.data, self, nid)

    def constant(self, t: Tensor) -> Tensor:
        """Attach a non-trainable leaf (inputs, targets); no gradient is kept."""
        nid = self._append(_Node("const", (), None, False, None))
        return Tensor._wrap(t.data, self, nid)


def _attach(inputs: Sequence[Tensor]) -> Graph | None:
    graphs = {t.graph for t in inputs if isinstance(t, Tensor) and t.graph is not None}
    if len(graphs) > 1:
        raise ValueError("inputs belong to different graphs")
    return graphs.pop() if graphs else None


def _record(op: str, inputs: Sequence[Tensor], out: np.ndarray,
            backward_fn: Callable | None) -> Tensor:
    """Register one op on the inputs' graph; eager (untaped) if all detached."""
    graph = _attach(inputs)
    if graph is None:
        return Tensor._wrap(out)
    ids = []
    requires = False
    for t in inputs:
        if t.graph is None:
            t = graph.constant(t)
        ids.append(t.node_id)
        requires = requires or graph._nodes[t.node_id].requires_grad
    nid = graph._append(_Node(op, tuple(ids), None, requires, backward_fn))
    return Tensor._wrap(out, graph, nid)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# ops

def add(a, b) -> Tensor:
    """Elementwise sum of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: shapes differ, {a.shape} vs {b.shape}")

    def backward_fn(g, needs):
        return (g if needs[0] else None, g if needs[1] else None)

    return _record("add", (a, b), a.data + b.data, backward_fn)


def mul(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g, needs):
        return (g * bd if needs[0] else None, g * ad if needs[1] else None)

    return _record("mul", (a, b), ad * bd, backward_fn)


def matmul(a, b, bias) -> Tensor:
    """(B,D) @ (D,K) plus a (K,) bias; backward dA = dC @ B^T, dB = A^T @ dC."""
    a, b, bias = _as_tensor(a), _as_tensor(b), _as_tensor(bias)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    if bias.shape != b.shape[1:]:
        raise ShapeMismatchError(f"matmul: bias {bias.shape} must be ({b.shape[1]},)")
    ad, bd = a.data, b.data
    out = ad @ bd
    out += bias.data

    def backward_fn(g, needs):
        da = g @ bd.T if needs[0] else None
        db = ad.T @ g if needs[1] else None
        dbias = g.sum(axis=0) if needs[2] else None
        return da, db, dbias

    return _record("matmul", (a, b, bias), out, backward_fn)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Channel-major columns (B, C*kh*kw, ho*wo) of a padded NCHW batch."""
    B, C = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, (B, C, kh, kw, ho, wo), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return np.ascontiguousarray(patches).reshape(B, C * kh * kw, ho * wo)


def conv2d(x, kernels, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, plus a per-filter bias.

    `x` is (B,C,H,W), `kernels` is (F,C,kh,kw) and `bias` is (F,1,1). Output
    spatial extent is floor((H + 2*padding - kh)/stride) + 1 and must be
    positive. Computed as one GEMM per image, (F, C*kh*kw) @ (C*kh*kw, ho*wo),
    written straight into the NCHW output, and the bias is added in place.
    For a 1x1 stride-1 unpadded conv the columns are a view of the input,
    with no copy.
    """
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    if kernels.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d: kernels must be 4-D (F,C,kh,kw), got {kernels.shape}")
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d: input must be (B,C,H,W), got {x.shape}")
    B, C, H, W = x.shape
    F, Ck, kh, kw = kernels.shape
    if Ck != C:
        raise ShapeMismatchError(
            f"conv2d: input channels {C} do not match kernel channels {Ck} "
            f"(input {x.shape}, kernels {kernels.shape})")
    if bias.shape != (F, 1, 1):
        raise ShapeMismatchError(f"conv2d: bias {bias.shape} must be ({F}, 1, 1)")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise ShapeMismatchError(
            f"conv2d: kernel {kh}x{kw} larger than padded input "
            f"{H + 2 * padding}x{W + 2 * padding}")
    ho = (H + 2 * padding - kh) // stride + 1
    wo = (W + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeMismatchError(f"conv2d: degenerate output extent {ho}x{wo}")

    if padding:
        xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding:padding + H, padding:padding + W] = x.data
    else:
        xp = x.data
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    wmat = kernels.data.reshape(F, C * kh * kw)
    out = np.empty((B, F, ho, wo))
    np.matmul(wmat, cols, out=out.reshape(B, F, ho * wo))
    out += bias.data

    hp, wp = H + 2 * padding, W + 2 * padding

    def backward_fn(g, needs):
        g3 = g.reshape(B, F, ho * wo)
        dk = np.matmul(g3, cols.transpose(0, 2, 1)).sum(0).reshape(F, C, kh, kw) \
            if needs[1] else None
        db = g.sum(0).sum(axis=(1, 2), keepdims=True) if needs[2] else None
        dx = None
        if needs[0]:
            dc = np.matmul(wmat.T, g3).reshape(B, C, kh, kw, ho, wo)
            dxp = np.zeros((B, C, hp, wp))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + ho * stride:stride, j:j + wo * stride:stride] += \
                        dc[:, :, i, j]
            dx = dxp[:, :, padding:padding + H, padding:padding + W]
        return dx, dk, db

    return _record("conv2d", (x, kernels, bias), out, backward_fn)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data

    def backward_fn(g, needs):
        return (np.multiply(g, xd > 0, out=np.empty_like(g)) if needs[0] else None,)

    return _record("relu", (x,), np.maximum(xd, 0.0), backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # stable for large |z|
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    s = _sigmoid(x.data)

    def backward_fn(g, needs):
        return (g * s * (1.0 - s) if needs[0] else None,)

    return _record("sigmoid", (x,), s, backward_fn)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax over one axis (default last), stabilized by max subtraction."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g, needs):
        if not needs[0]:
            return (None,)
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _record("softmax", (x,), s, backward_fn)


_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "softmax": softmax}


def apply_activation(x, kind: str) -> Tensor:
    """Apply relu, sigmoid, or softmax-over-last-axis."""
    x = _as_tensor(x)
    if kind not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}")
    if np.isnan(x.data).any():
        raise ValueError("activation input contains NaN")
    return _ACTIVATIONS[kind](x)


def global_avg_pool(x) -> Tensor:
    """Mean over the two spatial axes: (B,C,H,W) -> (B,C)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"global_avg_pool: need (B,C,H,W), got {x.shape}")
    shape = x.shape
    h, w = shape[-2:]
    out = x.data.mean(axis=(-2, -1))

    def backward_fn(g, needs):
        if not needs[0]:
            return (None,)
        return (np.broadcast_to(g[..., None, None] / (h * w), shape),)

    return _record("global_avg_pool", (x,), out, backward_fn)


def upsample_nearest(x, factor: int) -> Tensor:
    """Nearest-neighbor upsampling of the spatial axes of (B,C,H,W) by an integer factor."""
    x = _as_tensor(x)
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"upsample_nearest: need (B,C,H,W), got {x.shape}")
    out = x.data.repeat(factor, axis=-2).repeat(factor, axis=-1)
    h, w = x.shape[-2:]

    def backward_fn(g, needs):
        if not needs[0]:
            return (None,)
        gv = g.reshape(g.shape[:-2] + (h, factor, w, factor))
        return (gv.sum(axis=(-3, -1)),)

    return _record("upsample_nearest", (x,), out, backward_fn)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeMismatchError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape

    def backward_fn(g, needs):
        return (g.reshape(old) if needs[0] else None,)

    return _record("reshape", (x,), x.data.reshape(shape), backward_fn)


def tensor_sum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = _as_tensor(x)
    shp = x.shape

    def backward_fn(g, needs):
        return (np.full(shp, float(g)) if needs[0] else None,)

    return _record("sum", (x,), np.asarray(x.data.sum()), backward_fn)


def _check_labels(labels: np.ndarray, k: int, expect_shape: tuple[int, ...]):
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != expect_shape:
        raise ShapeMismatchError(f"labels shape {labels.shape}, expected {expect_shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels.min() if labels.min() < 0 else labels.max()
        raise ValueError(f"label {bad} out of range for {k} classes")
    return labels


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-softmax-probability of the target class.

    Accepts (B,K) logits with (B,) labels, or (B,K,H,W) with (B,H,W).
    Computed through log-sum-exp, never through an explicit softmax.
    """
    logits = _as_tensor(logits)
    ld = logits.data
    if ld.ndim == 2:
        xd = ld[:, :, None, None]
    elif ld.ndim == 4:
        xd = ld
    else:
        raise ShapeMismatchError(f"cross_entropy: unsupported logits shape {logits.shape}")
    B, K, H, W = xd.shape
    labels = _check_labels(labels, K, (B,) if ld.ndim == 2 else (B, H, W)).reshape(B, H, W)

    m = xd.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(xd - m).sum(axis=1, keepdims=True))  # (B,1,H,W)
    bi, hi, wi = np.ogrid[:B, :H, :W]
    picked = xd[bi, labels, hi, wi]
    n = B * H * W
    loss = (lse[:, 0] - picked).sum() / n

    def backward_fn(g, needs):
        if not needs[0]:
            return (None,)
        p = np.exp(xd - lse)
        p[bi, labels, hi, wi] -= 1.0
        d = p * (float(g) / n)
        return (d.reshape(ld.shape),)

    return _record("cross_entropy", (logits,), np.asarray(loss), backward_fn)


def binary_cross_entropy(logits, targets) -> Tensor:
    """Mean sigmoid binary cross-entropy from logits, numerically stable."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeMismatchError(
            f"binary_cross_entropy: targets {targets.shape} vs logits {logits.shape}")
    if targets.size and (targets.min() < 0.0 or targets.max() > 1.0):
        raise ValueError("binary targets must lie in [0, 1]")
    z = logits.data
    n = max(z.size, 1)
    loss = (np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))).sum() / n

    def backward_fn(g, needs):
        if not needs[0]:
            return (None,)
        return ((_sigmoid(z) - targets) * (float(g) / n),)

    return _record("binary_cross_entropy", (logits,), np.asarray(loss), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor) -> dict[str, Tensor]:
    """Reverse-mode gradients of a scalar loss for every reachable parameter leaf.

    Returns a GradMap {param_id: gradient tensor}; parameters with no path
    to the loss are absent. Deterministic: the tape fixes the visit and
    accumulation order.
    """
    if loss.graph is None:
        raise ValueError("loss is not attached to a graph")
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    nodes = loss.graph._nodes
    grads: list[np.ndarray | None] = [None] * (loss.node_id + 1)
    grads[loss.node_id] = np.asarray(1.0)

    for nid in range(loss.node_id, -1, -1):
        g = grads[nid]
        node = nodes[nid]
        if g is None or node.backward_fn is None:
            continue
        needs = tuple(nodes[i].requires_grad for i in node.inputs)
        in_grads = node.backward_fn(g, needs)
        for iid, ig in zip(node.inputs, in_grads):
            if ig is None:
                continue
            # backward_fns write only arrays they allocate (dxp, p), never g: ig is kept uncopied
            grads[iid] = ig if grads[iid] is None else grads[iid] + ig
        grads[nid] = None  # free as we go

    out: dict[str, Tensor] = {}
    for nid in range(loss.node_id + 1):
        node = nodes[nid]
        if node.param_id is not None and grads[nid] is not None:
            if node.param_id in out:
                out[node.param_id] = Tensor._wrap(out[node.param_id].data + grads[nid])
            else:
                out[node.param_id] = Tensor._wrap(grads[nid])
    return out


def finite_diff_grad(f, p: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient oracle: (f(p + h e_i) - f(p - h e_i)) / 2h."""
    if h <= 0:
        raise ValueError("step h must be positive")
    base = p.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bump = np.zeros_like(base).reshape(-1)
        bump[i] = h
        bump = bump.reshape(base.shape)
        fp = f(Tensor._wrap(base + bump))
        fm = f(Tensor._wrap(base - bump))
        fp = fp.item() if isinstance(fp, Tensor) else float(fp)
        fm = fm.item() if isinstance(fm, Tensor) else float(fm)
        flat[i] = (fp - fm) / (2.0 * h)
    return Tensor._wrap(grad)

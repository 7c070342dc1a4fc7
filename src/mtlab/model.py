"""Shared encoder and per-task decoders over the autodiff ops.

The encoder is a small configurable stack (convs, activations, one optional
global-average-pool); it exposes both the pooled/flattened feature vector
for classification heads and the pre-pool spatial map for segmentation
heads, so one encoder serves a mixed task set. Decoders are deliberately
thin: a single fully connected layer plus softmax for classification,
a 1x1 projection then nearest-neighbor upsampling with a per-pixel softmax
(or sigmoid for a one-class mask) for segmentation. Passing `graph=None` to
the forward functions runs them untaped, for inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor


class ModelSpecError(ValueError):
    pass


class ParamStore:
    """All trainable tensors, partitioned into disjoint named groups.

    Group dicts are live: the optimizer replaces tensors in them directly.
    Iteration helpers are sorted by parameter id so every walk over the
    store is deterministic.
    """

    def __init__(self):
        self._groups: dict[str, dict[str, Tensor]] = {}
        self._owner: dict[str, str] = {}

    def add(self, group: str, param_id: str, t: Tensor) -> None:
        if param_id in self._owner:
            raise ValueError(f"parameter id {param_id!r} already registered "
                             f"in group {self._owner[param_id]!r}")
        self._groups.setdefault(group, {})[param_id] = t
        self._owner[param_id] = group

    def group(self, name: str) -> dict[str, Tensor]:
        return self._groups[name]

    def group_names(self) -> list[str]:
        return sorted(self._groups)

    def owner(self, param_id: str) -> str:
        return self._owner[param_id]

    def get(self, param_id: str) -> Tensor:
        return self._groups[self._owner[param_id]][param_id]

    def set(self, param_id: str, t: Tensor) -> None:
        if t.shape != self.get(param_id).shape:
            raise ValueError(f"shape {t.shape} does not match parameter "
                             f"{param_id!r} shape {self.get(param_id).shape}")
        self._groups[self._owner[param_id]][param_id] = t

    def sorted_ids(self, group: str | None = None) -> list[str]:
        if group is None:
            return sorted(self._owner)
        return sorted(self._groups.get(group, {}))

    def total_size(self, group: str | None = None) -> int:
        return sum(self.get(pid).size for pid in self.sorted_ids(group))


# ---------------------------------------------------------------------------
# layer specs

@dataclass(frozen=True)
class Conv:
    filters: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Activation:
    kind: str  # relu | sigmoid | softmax


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class Dense:
    out_dim: int


def _leaf(graph: Graph | None, store: ParamStore, param_id: str) -> Tensor:
    """A stored parameter, attached to `graph` as a trainable leaf if there is one."""
    t = store.get(param_id)
    return t if graph is None else graph.param(param_id, t)


def _uniform_init(rng, fan_in: int, fan_out: int, shape) -> Tensor:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-s, s, size=shape))


def _propagate(layer, shape, index):
    """Output shape of one layer, or a ModelSpecError naming the layer index."""
    if isinstance(layer, Conv):
        if len(shape) != 3:
            raise ModelSpecError(f"layer {index}: conv needs a (C,H,W) input, got {shape}")
        _, h, w = shape
        ho = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
        wo = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
        if ho < 1 or wo < 1:
            raise ModelSpecError(f"layer {index}: degenerate output extent {ho}x{wo}")
        return (layer.filters, ho, wo)
    if isinstance(layer, Activation):
        return shape
    if isinstance(layer, GlobalAvgPool):
        if len(shape) != 3:
            raise ModelSpecError(f"layer {index}: global-avg-pool needs (C,H,W), got {shape}")
        return (shape[0],)
    if isinstance(layer, Dense):
        if len(shape) != 1:
            raise ModelSpecError(f"layer {index}: dense needs a flat input, got {shape}")
        return (layer.out_dim,)
    raise ModelSpecError(f"layer {index}: unknown layer spec {layer!r}")


@dataclass
class EncoderModel:
    """Shared feature extractor; parameters live in one ParamStore group."""

    input_shape: tuple[int, ...]
    layers: list
    group: str
    trunk_len: int              # layers before the first global-avg-pool
    map_shape: tuple[int, ...]  # spatial feature map shape after the trunk
    feature_dim: int
    store: ParamStore = field(repr=False, default=None)

    def _run(self, graph: Graph | None, x: Tensor, upto: int) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers[:upto]):
            if isinstance(layer, (Conv, Dense)):
                w = _leaf(graph, self.store, f"{self.group}/layer{i:02d}.weight")
                b = _leaf(graph, self.store, f"{self.group}/layer{i:02d}.bias")
                h = (ad.conv2d(h, w, b, stride=layer.stride, padding=layer.padding)
                     if isinstance(layer, Conv) else ad.matmul(h, w, b))
            elif isinstance(layer, Activation):
                h = ad.apply_activation(h, layer.kind)
            elif isinstance(layer, GlobalAvgPool):
                h = ad.global_avg_pool(h)
        return h

    def forward_map(self, graph: Graph | None, x: Tensor) -> Tensor:
        """Pre-pool spatial feature map, (B, C, H, W)."""
        self._check_input(x)
        return self._run(graph, x, self.trunk_len)

    def forward_features(self, graph: Graph | None, x: Tensor) -> Tensor:
        """Pooled/flattened feature vectors, (B, feature_dim)."""
        self._check_input(x)
        h = self._run(graph, x, len(self.layers))
        if len(h.shape) != 2:
            h = ad.reshape(h, (h.shape[0], self.feature_dim))
        return h

    def _check_input(self, x: Tensor):
        if x.shape[1:] != self.input_shape:
            raise ModelSpecError(
                f"input shape {x.shape[1:]} does not match encoder input "
                f"{self.input_shape} (inputs are batched)")


def build_encoder(spec: list, input_shape, store: ParamStore, rng) -> EncoderModel:
    """Validate the layer stack, initialize its parameters, register them
    in the "encoder" group.

    Weights are Uniform(-s, s) with s = sqrt(6 / (fan_in + fan_out)),
    biases zero. An empty spec is the identity encoder whose feature is the
    flattened input.
    """
    input_shape = tuple(int(d) for d in input_shape)
    if any(d < 1 for d in input_shape):
        raise ModelSpecError(f"input shape must be positive, got {input_shape}")

    group = "encoder"
    shape = input_shape
    trunk_len = len(spec)
    for i, layer in enumerate(spec):
        new_shape = _propagate(layer, shape, i)
        if isinstance(layer, GlobalAvgPool) and trunk_len == len(spec):
            trunk_len, map_shape = i, shape
        if isinstance(layer, Conv):
            c = shape[0]
            fan_in = c * layer.kernel * layer.kernel
            fan_out = layer.filters * layer.kernel * layer.kernel
            w = _uniform_init(rng, fan_in, fan_out,
                              (layer.filters, c, layer.kernel, layer.kernel))
            b = Tensor(np.zeros((layer.filters, 1, 1)))
        elif isinstance(layer, Dense):
            w = _uniform_init(rng, shape[0], layer.out_dim, (shape[0], layer.out_dim))
            b = Tensor(np.zeros(layer.out_dim))
        if isinstance(layer, (Conv, Dense)):
            for name, t in (("weight", w), ("bias", b)):
                store.add(group, f"{group}/layer{i:02d}.{name}", t)
        shape = new_shape
    if trunk_len == len(spec):
        map_shape = shape

    feature_dim = int(np.prod(shape)) if shape else 1
    return EncoderModel(
        input_shape=input_shape, layers=list(spec), group=group, trunk_len=trunk_len,
        map_shape=map_shape, feature_dim=feature_dim, store=store)


@dataclass
class ClassificationDecoder:
    """One fully connected layer plus softmax."""

    task_id: int
    group: str
    in_dim: int
    num_classes: int
    store: ParamStore = field(repr=False, default=None)
    kind: str = "classification"

    def forward_logits(self, graph: Graph | None, features: Tensor) -> Tensor:
        if len(features.shape) != 2 or features.shape[1] != self.in_dim:
            raise ModelSpecError(
                f"decoder for task {self.task_id} expects (B, {self.in_dim}) features, "
                f"got {features.shape}")
        w = _leaf(graph, self.store, f"{self.group}/head.weight")
        b = _leaf(graph, self.store, f"{self.group}/head.bias")
        return ad.matmul(features, w, b)

    def predict(self, logits: Tensor) -> Tensor:
        return ad.softmax(logits)


@dataclass
class SegmentationDecoder:
    """A 1x1 conv then nearest-neighbor upsampling stages, per-pixel softmax/sigmoid."""

    task_id: int
    group: str
    map_shape: tuple[int, int, int]
    num_classes: int
    upsample_factors: tuple[int, ...]
    store: ParamStore = field(repr=False, default=None)
    kind: str = "segmentation"

    @property
    def nonlinearity(self) -> str:
        """A one-class head is a sigmoid mask; K >= 2 classes take a softmax."""
        return "sigmoid" if self.num_classes == 1 else "softmax"

    def forward_logits(self, graph: Graph | None, feature_map: Tensor) -> Tensor:
        if feature_map.shape[1:] != self.map_shape:
            raise ModelSpecError(
                f"decoder for task {self.task_id} expects feature map {self.map_shape}, "
                f"got {feature_map.shape[1:]}")
        # A 1x1 conv commutes with nearest upsampling, so the head projects
        # first and the upsampling copies K channels instead of the map's C.
        w = _leaf(graph, self.store, f"{self.group}/proj.weight")
        b = _leaf(graph, self.store, f"{self.group}/proj.bias")
        h = ad.conv2d(feature_map, w, b)
        for f in self.upsample_factors:
            h = ad.upsample_nearest(h, f)
        return h

    def predict(self, logits: Tensor) -> Tensor:
        if self.nonlinearity == "softmax":
            return ad.softmax(logits, axis=1)
        return ad.sigmoid(logits)


def build_classification_decoder(task_id: int, feature_dim: int, num_classes: int,
                                 store: ParamStore, rng) -> ClassificationDecoder:
    """Softmax head registered in group "decoder<task_id>"."""
    if feature_dim < 1:
        raise ModelSpecError(f"feature_dim must be positive, got {feature_dim}")
    if num_classes < 2:
        raise ModelSpecError(f"softmax head needs at least 2 classes, got {num_classes}")
    group = f"decoder{task_id}"
    w = _uniform_init(rng, feature_dim, num_classes, (feature_dim, num_classes))
    store.add(group, f"{group}/head.weight", w)
    store.add(group, f"{group}/head.bias", Tensor(np.zeros(num_classes)))
    return ClassificationDecoder(task_id=task_id, group=group, in_dim=feature_dim,
                                 num_classes=num_classes, store=store)


def build_segmentation_decoder(task_id: int, feature_map_shape, num_classes: int,
                               upsample_factors, input_hw, store: ParamStore,
                               rng) -> SegmentationDecoder:
    """Per-pixel K-way head in group "decoder<task_id>"; K=1 becomes a sigmoid
    mask head.

    The upsample factors must restore the task's input resolution exactly.
    """
    c, h, w = (int(d) for d in feature_map_shape)
    factors = tuple(int(f) for f in upsample_factors)
    ho, wo = h, w
    for f in factors:
        ho, wo = ho * f, wo * f
    if (ho, wo) != tuple(input_hw):
        raise ModelSpecError(
            f"upsampled resolution {ho}x{wo} does not restore input "
            f"{input_hw[0]}x{input_hw[1]}")
    group = f"decoder{task_id}"
    kw = _uniform_init(rng, c, num_classes, (num_classes, c, 1, 1))
    store.add(group, f"{group}/proj.weight", kw)
    store.add(group, f"{group}/proj.bias", Tensor(np.zeros((num_classes, 1, 1))))
    return SegmentationDecoder(task_id=task_id, group=group, map_shape=(c, h, w),
                               num_classes=num_classes, upsample_factors=factors,
                               store=store)


def forward_task(encoder: EncoderModel, decoder, x: Tensor, graph: Graph | None) -> Tensor:
    """Encode a batch, decode with one task head; returns the prediction.

    Classification heads consume the pooled/flattened feature vector,
    segmentation heads the pre-pool spatial map. Every intermediate op is
    recorded on `graph`; with `graph=None` nothing is taped.
    """
    return decoder.predict(forward_task_logits(encoder, decoder, x, graph))


def forward_task_logits(encoder: EncoderModel, decoder, x: Tensor,
                        graph: Graph | None) -> Tensor:
    """Same as forward_task but stops at the pre-nonlinearity logits."""
    if decoder.kind == "classification":
        return decoder.forward_logits(graph, encoder.forward_features(graph, x))
    return decoder.forward_logits(graph, encoder.forward_map(graph, x))

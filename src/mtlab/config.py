"""Experiment configuration: one JSON document defines a whole run.

Validation happens before any side effect, so an invalid config never
leaves partial outputs behind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .model import Activation, Conv, Dense, GlobalAvgPool
from .tasks import (CLASSIFICATION_ARITIES, KIND_BINARY_SEG, KIND_CLASSIFICATION,
                    KIND_INSTANCE_SEG)


class ConfigError(ValueError):
    pass


DEFAULT_ENCODER = [
    {"type": "conv", "filters": 32, "kernel": 3, "stride": 1, "padding": 1},
    {"type": "relu"},
    {"type": "gap"},
]

DEFAULTS = {
    "seed": 0,
    "out_dir": "runs/default",
    "suite": {"preset": "default", "n_train": 128, "n_eval": 64},
    "encoder": DEFAULT_ENCODER,
    "alpha": "uniform",
    "iterations": 5000,
    "batch_size": 8,
    "adam": {"lr": 2e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "log_every": 1,
    "checkpoint_every": 1000,
    "diagnostics": "exact",
}


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: Path
    suite: dict
    encoder: list
    alpha: str | list[float]
    iterations: int
    batch_size: int
    adam: dict
    log_every: int
    checkpoint_every: int
    diagnostics: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def data_dir(self) -> Path:
        return self.out_dir / "data"

    @property
    def manifest_path(self) -> Path:
        return self.data_dir / "manifest.json"


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def parse_encoder_spec(items) -> list:
    """Config encoder entries to model layer specs."""
    layers = []
    for i, item in enumerate(items):
        kind = item.get("type")
        if kind == "conv":
            _require("filters" in item and "kernel" in item,
                     f"encoder layer {i}: conv needs filters and kernel")
            layers.append(Conv(int(item["filters"]), int(item["kernel"]),
                               stride=int(item.get("stride", 1)),
                               padding=int(item.get("padding", 0)),
                               in_channels=item.get("in_channels")))
        elif kind in ("relu", "sigmoid", "softmax"):
            layers.append(Activation(kind))
        elif kind == "gap":
            layers.append(GlobalAvgPool())
        elif kind == "dense":
            _require("out_dim" in item, f"encoder layer {i}: dense needs out_dim")
            layers.append(Dense(int(item["out_dim"])))
        else:
            raise ConfigError(f"encoder layer {i}: unknown type {kind!r}")
    return layers


def _validate_task_entry(i, entry):
    kind = entry.get("kind")
    _require(kind in (KIND_CLASSIFICATION, KIND_BINARY_SEG, KIND_INSTANCE_SEG),
             f"suite task {i}: unknown kind {kind!r}")
    n_train = int(entry.get("n_train", 128))
    n_eval = int(entry.get("n_eval", 64))
    _require(n_train >= 1 and n_eval >= 1, f"suite task {i}: need nonempty splits")
    if kind == KIND_CLASSIFICATION:
        k = int(entry.get("num_classes", 0))
        _require(k >= 2, f"suite task {i}: classification needs num_classes >= 2")
        _require(n_train >= k, f"suite task {i}: n_train must cover every class")
        _require(float(entry.get("difficulty", 0.35)) >= 0,
                 f"suite task {i}: difficulty must be >= 0")
    else:
        _require(int(entry.get("image_size", 32)) >= 8,
                 f"suite task {i}: image_size must be >= 8")
        _require(int(entry.get("max_instances", 3)) >= 1,
                 f"suite task {i}: max_instances must be >= 1")
        if kind == KIND_INSTANCE_SEG:
            _require(int(entry.get("num_classes", 0)) >= 1,
                     f"suite task {i}: instance tasks need num_classes >= 1")


def load_config(path=None, seed_override=None, out_override=None) -> ExperimentConfig:
    """Merge a JSON config file over the defaults and validate it."""
    merged = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {path} does not exist") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(user) - set(DEFAULTS)
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        for key, value in user.items():
            if isinstance(DEFAULTS[key], dict) and isinstance(value, dict):
                merged[key] = {**DEFAULTS[key], **value}
            else:
                merged[key] = value

    if seed_override is not None:
        merged["seed"] = seed_override
    if out_override is not None:
        merged["out_dir"] = str(out_override)  # raw is written back out as JSON

    _require(isinstance(merged["seed"], int) and merged["seed"] >= 0,
             "seed must be a nonnegative integer")
    _require(int(merged["iterations"]) >= 0, "iterations must be >= 0")
    _require(int(merged["batch_size"]) >= 1, "batch_size must be >= 1")
    _require(int(merged["log_every"]) >= 1, "log_every must be >= 1")
    _require(int(merged["checkpoint_every"]) >= 1, "checkpoint_every must be >= 1")
    _require(merged["diagnostics"] in ("off", "exact", "sketch"),
             f"diagnostics must be off/exact/sketch, got {merged['diagnostics']!r}")

    adam = merged["adam"]
    _require(adam.get("lr", 0) > 0 and adam.get("eps", 0) > 0,
             "adam lr and eps must be positive")
    _require(0 <= adam.get("beta1", 0.9) < 1 and 0 <= adam.get("beta2", 0.999) < 1,
             "adam betas must lie in [0, 1)")

    suite = merged["suite"]
    if "tasks" in suite:
        _require(isinstance(suite["tasks"], list) and suite["tasks"],
                 "suite.tasks must be a non-empty list")
        for i, entry in enumerate(suite["tasks"]):
            _validate_task_entry(i, entry)
    else:
        _require(suite.get("preset") == "default",
                 f"suite needs either tasks or preset 'default', got {suite!r}")
        most = max(CLASSIFICATION_ARITIES)
        _require(int(suite.get("n_train", 128)) >= most,
                 f"default suite needs n_train >= {most} (largest class count)")
        _require(int(suite.get("n_eval", 64)) >= 1, "default suite needs n_eval >= 1")

    alpha = merged["alpha"]
    if alpha != "uniform":
        _require(isinstance(alpha, list) and alpha, "alpha must be 'uniform' or a list")
        _require(all(isinstance(p, (int, float)) and p >= 0 for p in alpha),
                 "alpha entries must be nonnegative numbers")
        _require(sum(alpha) > 0, "alpha must have positive mass")

    encoder = parse_encoder_spec(merged["encoder"])

    return ExperimentConfig(
        seed=int(merged["seed"]),
        out_dir=Path(merged["out_dir"]),
        suite=suite,
        encoder=encoder,
        alpha=alpha,
        iterations=int(merged["iterations"]),
        batch_size=int(merged["batch_size"]),
        adam={"lr": float(adam["lr"]), "beta1": float(adam["beta1"]),
              "beta2": float(adam["beta2"]), "eps": float(adam["eps"])},
        log_every=int(merged["log_every"]),
        checkpoint_every=int(merged["checkpoint_every"]),
        diagnostics=merged["diagnostics"],
        raw=merged,
    )

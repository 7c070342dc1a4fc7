"""Experiment configuration: one JSON document defines a whole run.

Validation happens before any side effect, so an invalid config never
leaves partial outputs behind. Each value is read once, its JSON type and
range checked; a ConfigError names the key and its task or layer index.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .autodiff import _ACTIVATIONS
from .model import Activation, Conv, Dense, GlobalAvgPool
from .tasks import KIND_BINARY_SEG, KIND_CLASSIFICATION, KIND_INSTANCE_SEG, suite_spec


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

# Each key a suite.tasks entry of each kind may give besides `kind`, `name`,
# `n_train` and `n_eval`, as (default, least value); a key whose default is
# None must be given. `n_train` and `n_eval` default to the suite's, and
# `name` to the generator's (patch_k<K>_t<i>, shapes_binary_t<i>, ...).
_SEG_KEYS = {"image_size": (32, 8), "max_instances": (3, 1)}
TASK_KEYS = {
    KIND_CLASSIFICATION: {"num_classes": (None, 2), "input_shape": ((3, 32, 32), 1),
                          "difficulty": (0.35, 0.0)},
    KIND_INSTANCE_SEG: {"num_classes": (None, 1), **_SEG_KEYS},
    KIND_BINARY_SEG: {"num_classes": (1, 1), **_SEG_KEYS},
}

# A task name goes into its dataset's file name, task_<i>_<name>.mtld
NAME_CHARS = "A-Za-z0-9._-"
NAME_MAX = 200

# The paper's task mix, which the preset "default" stands for: seven
# classification arities, one instance task and three binary tasks.
CLASSIFICATION_ARITIES = (2, 9, 6, 3, 4, 3, 5)
PRESET_TASKS = (
    [{"kind": KIND_CLASSIFICATION, "num_classes": k} for k in CLASSIFICATION_ARITIES]
    + [{"kind": KIND_INSTANCE_SEG, "num_classes": 3, "name": "shapes_instance"}]
    + [{"kind": KIND_BINARY_SEG, "name": f"shapes_binary_{j}"} for j in range(3)])


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: Path
    suite: list[dict]  # every task entry, the preset expanded and each key filled
    encoder: list
    alpha: str | list[float]
    iterations: int
    batch_size: int
    adam: dict
    log_every: int
    checkpoint_every: int
    diagnostics: str
    raw: dict = field(repr=False, default_factory=dict)  # as merged, the suite unexpanded

    @property
    def data_dir(self) -> Path:
        return self.out_dir / "data"

    @property
    def manifest_path(self) -> Path:
        return self.data_dir / "manifest.json"


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _int(what: str, value, least: int) -> int:
    """`value` if it is a JSON integer >= least."""
    _require(type(value) is int and value >= least,
             f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _number(what: str, value, low: float, high: float = math.inf, above: bool = False):
    """`value` as a float if it is a JSON number >= low (> low if `above`) and < high."""
    _require(type(value) in (int, float) and (value > low if above else value >= low)
             and value < high, f"{what} must be a number {'>' if above else '>='} {low:g}"
             f"{f' and < {high:g}' if high < math.inf else ''}, got {value!r}")
    return float(value)


# Each encoder layer type but an activation: its spec and the (key, default, least
# value) of each of its fields, in order; a key whose default is None must be given.
LAYER_KEYS = {"conv": (Conv, (("filters", None, 1), ("kernel", None, 1), ("stride", 1, 1),
                              ("padding", 0, 0))),
              "dense": (Dense, (("out_dim", None, 1),)),
              "gap": (GlobalAvgPool, ())}


def parse_encoder_spec(items) -> list:
    """Config encoder entries to model layer specs."""
    _require(isinstance(items, list), f"encoder must be a list of layers, got {items!r}")
    layers = []
    for i, item in enumerate(items):
        where = f"encoder layer {i}: "
        _require(isinstance(item, dict), f"encoder layer {i} must be an object, got {item!r}")
        kind = item.get("type")
        _require(isinstance(kind, str) and (kind in LAYER_KEYS or kind in _ACTIVATIONS),
                 f"{where}unknown type {kind!r}")
        layer, keys = LAYER_KEYS.get(kind, (None, ()))
        unknown = set(item) - {"type", *(key for key, _, _ in keys)}
        _require(not unknown, f"{where}unknown keys {sorted(unknown)} for type {kind}")
        sizes = (_int(where + key, item.get(key, default), least)
                 for key, default, least in keys)
        layers.append(Activation(kind) if layer is None else layer(*sizes))
    return layers


def _task_entry(i: int, entry, splits: dict) -> dict:
    """One suite.tasks entry with every key of its kind, each checked."""
    where = f"suite task {i}: "
    _require(isinstance(entry, dict), f"suite task {i} must be an object, got {entry!r}")
    kind = entry.get("kind")
    _require(isinstance(kind, str) and kind in TASK_KEYS, f"{where}unknown kind {kind!r}")
    keys = {"name": ("", None), **{key: (n, 1) for key, n in splits.items()}, **TASK_KEYS[kind]}
    unknown = set(entry) - {"kind", *keys}
    _require(not unknown, f"{where}unknown keys {sorted(unknown)} for kind {kind}")
    out = {"kind": kind}
    for key, (default, least) in keys.items():
        value, what = entry.get(key, default), where + key
        if key == "name":
            _require(isinstance(value, str) and len(value) <= NAME_MAX
                     and re.fullmatch(f"[{NAME_CHARS}]*", value),
                     f"{what} must be a string of at most {NAME_MAX} of the characters "
                     f"{NAME_CHARS} (it names a file), got {value!r}")
        elif key == "input_shape":
            _require(isinstance(value, (list, tuple)) and len(value) >= 2
                     and all(type(d) is int and d >= least for d in value)
                     and math.prod(value) >= 2,
                     f"{what} must be a list of 2 or more integers >= {least} that multiply "
                     f"to 2 or more, got {value!r}")
        elif isinstance(least, float):
            value = _number(what, value, least)
        else:
            _int(what, value, least)
        out[key] = value
    if kind == KIND_CLASSIFICATION:
        _require(out["n_train"] >= out["num_classes"], f"{where}n_train {out['n_train']} "
                 f"does not cover the {out['num_classes']} classes")
    return out


def _suite_entries(suite) -> list[dict]:
    """The suite's task entries: suite.tasks, or the preset's when it is not given."""
    _require(isinstance(suite, dict), f"suite must be an object, got {suite!r}")
    unknown = set(suite) - {*DEFAULTS["suite"], "tasks"}
    _require(not unknown, f"unknown suite keys: {sorted(unknown)}")
    splits = {key: _int(f"suite.{key}", suite[key], 1) for key in ("n_train", "n_eval")}
    tasks = suite.get("tasks", PRESET_TASKS)
    _require(isinstance(tasks, list) and tasks, "suite.tasks must be a non-empty list")
    _require("tasks" in suite or suite["preset"] == "default",
             f"suite needs either tasks or preset 'default', got {suite!r}")
    entries = [_task_entry(i, entry, splits) for i, entry in enumerate(tasks)]
    shapes = [suite_spec(e, i).input_shape for i, e in enumerate(entries)]
    for i, (entry, shape) in enumerate(zip(entries, shapes)):
        key = "input_shape" if "input_shape" in entry else "image_size"
        _require(shape == shapes[0], f"suite task {i}: {key} gives the input shape {shape}, "
                 f"but task 0's is {shapes[0]}; one shared encoder serves every task")
    return entries


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

    _require(isinstance(merged["out_dir"], str),
             f"out_dir must be a string, got {merged['out_dir']!r}")
    _require(merged["diagnostics"] in ("off", "exact", "sketch"),
             f"diagnostics must be off/exact/sketch, got {merged['diagnostics']!r}")
    adam = merged["adam"]
    _require(isinstance(adam, dict) and set(adam) == set(DEFAULTS["adam"]),
             f"adam must be an object with keys among {sorted(DEFAULTS['adam'])}, "
             f"got {adam!r}")
    alpha = merged["alpha"]
    if alpha != "uniform":
        _require(isinstance(alpha, list) and alpha, "alpha must be 'uniform' or a list")
        _require(all(type(p) in (int, float) and p >= 0 for p in alpha),
                 "alpha entries must be nonnegative numbers")
        _require(sum(alpha) > 0, "alpha must have positive mass")

    suite = _suite_entries(merged["suite"])
    _require(alpha == "uniform" or len(alpha) == len(suite),
             f"alpha has {len(alpha)} entries but the suite defines {len(suite)} tasks")

    return ExperimentConfig(
        seed=_int("seed", merged["seed"], 0),
        out_dir=Path(merged["out_dir"]),
        suite=suite,
        encoder=parse_encoder_spec(merged["encoder"]),
        alpha=alpha,
        iterations=_int("iterations", merged["iterations"], 0),
        batch_size=_int("batch_size", merged["batch_size"], 1),
        adam={"lr": _number("adam.lr", adam["lr"], 0.0, above=True),
              "beta1": _number("adam.beta1", adam["beta1"], 0.0, 1.0),
              "beta2": _number("adam.beta2", adam["beta2"], 0.0, 1.0),
              "eps": _number("adam.eps", adam["eps"], 0.0, above=True)},
        log_every=_int("log_every", merged["log_every"], 1),
        checkpoint_every=_int("checkpoint_every", merged["checkpoint_every"], 1),
        diagnostics=merged["diagnostics"],
        raw=merged,
    )

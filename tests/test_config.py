import json
import re
from pathlib import Path

import pytest

from mtlab.config import CLASSIFICATION_ARITIES, DEFAULTS, ConfigError, load_config
from mtlab.model import Conv, GlobalAvgPool


def _write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.seed == 0
    assert cfg.iterations == 5000
    assert cfg.alpha == "uniform"
    assert isinstance(cfg.encoder[0], Conv)
    assert isinstance(cfg.encoder[-1], GlobalAvgPool)


def test_overrides_applied(tmp_path):
    path = _write(tmp_path, {"seed": 9, "iterations": 10})
    cfg = load_config(path, seed_override=33, out_override=tmp_path / "o")
    assert cfg.seed == 33
    assert cfg.iterations == 10
    assert cfg.out_dir == tmp_path / "o"


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(_write(tmp_path, {"iterationz": 5}))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("payload", [
    {"iterations": -1},
    {"batch_size": 0},
    {"log_every": 0},
    {"checkpoint_every": 0},
    {"diagnostics": "all"},
    {"adam": {"lr": 0}},
    {"adam": {"beta2": 1.0}},
    {"alpha": [0.5, -0.5]},
    {"alpha": []},
    {"suite": {"preset": "nope"}},
    {"suite": {"tasks": []}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": 1}]}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": 4, "n_train": 2}]}},
    {"suite": {"tasks": [{"kind": "binary-segmentation", "image_size": 4}]}},
    {"suite": {"tasks": [{"kind": "mystery"}]}},
    {"encoder": [{"type": "warp"}]},
    {"encoder": [{"type": "conv"}]},
    {"suite": "x"},
    {"suite": {"tasks": [5]}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": "many"}]}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": 3, "input_shape": [32]}]}},
    {"adam": {"lr": "fast"}},
    {"suite": {"preset": "default", "n_train": "lots"}},
    {"suite": {"tasks": [{"kind": "binary-segmentation", "n_train": "lots"}]}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": 3,
                          "input_shape": [3, 0, 32]}]}},
    {"suite": {"tasks": [{"kind": "classification", "num_classes": 3, "input_shape": "abc"}]}},
    {"encoder": [{"type": "conv", "filters": 4, "kernel": 3, "stride": 0}]},
    {"encoder": [{"type": "conv", "filters": 0, "kernel": 3}]},
    {"iterations": "10"},
])
def test_invalid_configs_rejected(tmp_path, payload):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, payload))


def test_nested_dicts_merge_over_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {"adam": {"lr": 0.01}}))
    assert cfg.adam["lr"] == 0.01
    assert cfg.adam["beta1"] == 0.9  # default preserved


def test_preset_expands_to_its_eleven_entries(tmp_path):
    preset = load_config(_write(tmp_path, {"suite": {"n_train": 16, "n_eval": 8}}))
    sizes = {"n_train": 16, "n_eval": 8}
    explicit = (
        [{"kind": "classification", "num_classes": k, **sizes} for k in CLASSIFICATION_ARITIES]
        + [{"kind": "instance-segmentation", "num_classes": 3, "name": "shapes_instance",
            **sizes}]
        + [{"kind": "binary-segmentation", "name": f"shapes_binary_{j}", **sizes}
           for j in range(3)])
    listed = load_config(_write(tmp_path, {"suite": {"tasks": explicit}}))
    assert len(preset.suite) == 11
    assert preset.suite == listed.suite
    # the run record keeps the suite as given, not its expansion
    assert preset.raw["suite"] == {"preset": "default", "n_train": 16, "n_eval": 8}


def test_task_entries_take_the_suite_sizes_and_the_kind_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {"suite": {"n_eval": 5, "tasks": [
        {"kind": "binary-segmentation"},
        {"kind": "classification", "num_classes": 4, "n_train": 20, "name": "four"}]}}))
    assert cfg.suite == [
        {"kind": "binary-segmentation", "name": "", "n_train": 128, "n_eval": 5,
         "num_classes": 1, "image_size": 32, "max_instances": 3},
        {"kind": "classification", "name": "four", "n_train": 20, "n_eval": 5,
         "num_classes": 4, "input_shape": (3, 32, 32), "difficulty": 0.35},
    ]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_blocks_load_and_show_the_defaults(tmp_path):
    blocks = [json.loads(b) for b in
              re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)]
    assert len(blocks) >= 2
    for block in blocks:
        load_config(_write(tmp_path, block))
    (defaults,) = [b for b in blocks if set(b) == set(DEFAULTS)]
    for key, value in DEFAULTS.items():
        assert defaults[key] == value, key

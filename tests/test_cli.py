import builtins
import csv
import ctypes
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mtlab import cli, trainer
from mtlab.autodiff import Tensor
from mtlab.cli import main
from mtlab.config import parse_encoder_spec
from mtlab.metrics import InstanceStack
from mtlab.model import ParamStore, build_encoder, forward_task
from mtlab.tasks import (KIND_BINARY_SEG, KIND_INSTANCE_SEG, MASK_MAGIC, MASK_VERSION, TRAIN,
                         gen_classification_task, gen_segmentation_task, load_dataset,
                         save_dataset, save_mask)
from mtlab.tensorio import BlockWriter
from mtlab.trainer import build_decoders, load_checkpoint


def _small_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "suite": {"tasks": [
            {"kind": "classification", "num_classes": 4, "n_train": 32, "n_eval": 96,
             "difficulty": 0.3, "input_shape": [3, 16, 16]},
            {"kind": "binary-segmentation", "image_size": 16, "max_instances": 2,
             "n_train": 24, "n_eval": 8},
        ]},
        "encoder": [{"type": "conv", "filters": 6, "kernel": 3, "padding": 1},
                    {"type": "relu"}, {"type": "gap"}],
        "iterations": 40,
        "batch_size": 4,
        "checkpoint_every": 20,
        "diagnostics": "exact",
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "run"


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class _FakeLibc:
    """Stands in for `ctypes.CDLL(None)`; records mallopt calls if it has mallopt."""

    def __init__(self, has_mallopt):
        self.calls = []
        if has_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


def test_malloc_policy_sets_both_glibc_thresholds(monkeypatch):
    libc = _FakeLibc(has_mallopt=True)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli.set_malloc_policy()
    assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]  # M_MMAP_, M_TRIM_THRESHOLD


def test_malloc_policy_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(has_mallopt=False))
    cli.set_malloc_policy()


def test_main_freezes_the_start_up_objects_once(tmp_path):
    gc.unfreeze()
    path, _ = _small_config(tmp_path)
    assert main(["generate", "--config", str(path), "--no-timestamp"]) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(["generate", "--config", str(path), "--no-timestamp"]) == 0
    assert gc.get_freeze_count() <= frozen  # nothing more frozen; some may be freed


def test_generate_writes_files_and_manifest(tmp_path):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    manifest = json.loads((out / "data" / "manifest.json").read_text())
    assert len(manifest["tasks"]) == 2
    for entry in manifest["tasks"]:
        assert (out / "data" / entry["path"]).exists()
        load_dataset(out / "data" / entry["path"])  # parses cleanly


def test_generate_rerun_is_byte_identical(tmp_path):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    first = {p.name: p.read_bytes() for p in (out / "data").iterdir()}
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    second = {p.name: p.read_bytes() for p in (out / "data").iterdir()}
    assert first == second


def test_generate_single_task_config(tmp_path):
    cfg, out = _small_config(tmp_path)
    payload = json.loads(cfg.read_text())
    payload["suite"]["tasks"] = payload["suite"]["tasks"][:1]
    cfg.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    files = [p for p in (out / "data").iterdir() if p.suffix == ".mtld"]
    assert len(files) == 1


def test_generate_default_preset_yields_eleven_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 2,
        "out_dir": str(tmp_path / "run"),
        "suite": {"preset": "default", "n_train": 16, "n_eval": 8},
    }))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    data = tmp_path / "run" / "data"
    files = sorted(p.name for p in data.iterdir() if p.suffix == ".mtld")
    assert len(files) == 11
    manifest = json.loads((data / "manifest.json").read_text())
    assert [e["path"] for e in sorted(manifest["tasks"], key=lambda e: e["task_id"])] \
        == files


def test_invalid_config_leaves_no_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out), "checkpoint_every": 0}))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 2
    assert not out.exists()


CLS = {"kind": "classification", "num_classes": 3}


@pytest.mark.parametrize("payload,words", [
    ({"suite": "x"}, ["suite"]),
    ({"suite": {"tasks": [CLS, 5]}}, ["suite task 1"]),
    ({"suite": {"tasks": [{**CLS, "num_classes": "many"}]}}, ["suite task 0", "num_classes"]),
    ({"suite": {"tasks": [CLS, {**CLS, "input_shape": [32]}]}}, ["suite task 1", "input_shape"]),
    ({"suite": {"tasks": [{**CLS, "input_shape": [3, 0, 32]}]}}, ["suite task 0", "input_shape"]),
    ({"suite": {"tasks": [{**CLS, "input_shape": "abc"}]}}, ["suite task 0", "input_shape"]),
    ({"suite": {"tasks": [{"kind": "binary-segmentation", "n_train": "lots"}]}},
     ["suite task 0", "n_train"]),
    ({"suite": {"n_train": "lots"}}, ["suite.n_train"]),
    ({"adam": {"lr": "fast"}}, ["adam.lr"]),
    ({"iterations": "10"}, ["iterations"]),
    ({"encoder": [{"type": "relu"}, {"type": "conv", "filters": 0, "kernel": 3}]},
     ["encoder layer 1", "filters"]),
    ({"encoder": [{"type": "conv", "filters": 4, "kernel": 3, "stride": 0}]},
     ["encoder layer 0", "stride"]),
    ({"suite": {"tasks": [{**CLS, "input_shape": [1, 1]}]}}, ["suite task 0", "input_shape"]),
    ({"encoder": [{"type": "conv", "filters": 4, "kernel": 3, "strides": 2}]},
     ["encoder layer 0", "strides"]),
    ({"encoder": [{"type": "relu"}, {"type": "conv", "filters": 4, "kernel": 3,
                                     "in_channels": 3}]}, ["encoder layer 1", "in_channels"]),
    ({"encoder": [{"type": "gap", "filters": 4}]}, ["encoder layer 0", "filters"]),
])
def test_malformed_config_is_a_config_error_naming_the_key(tmp_path, capsys, payload, words):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out), **payload}))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(w in err for w in words), err
    assert not out.exists()


BIN16 = {"kind": "binary-segmentation", "image_size": 16}


@pytest.mark.parametrize("payload,words", [
    ({"suite": {"tasks": [BIN16, CLS]}}, ["suite task 1", "input_shape", "(3, 32, 32)",
                                          "(3, 16, 16)"]),
    ({"suite": {"tasks": [CLS, BIN16]}}, ["suite task 1", "image_size", "(3, 16, 16)"]),
    ({"suite": {"tasks": [CLS, {**CLS, "input_shape": [1, 32, 32]}]}},
     ["suite task 1", "input_shape", "(1, 32, 32)"]),
    ({"suite": {"tasks": [BIN16]}, "alpha": [1, 2, 3]}, ["alpha has 3 entries", "1 tasks"]),
    ({"suite": {"tasks": [{**BIN16, "name": "a/b"}]}}, ["suite task 0", "name", "'a/b'"]),
    ({"suite": {"tasks": [BIN16, {**BIN16, "name": "cell nuclei"}]}}, ["suite task 1", "name"]),
    ({"suite": {"tasks": [{**BIN16, "name": "x" * 201}]}}, ["suite task 0", "name"]),
], ids=["mixed-input-shape", "mixed-image-size", "mixed-channels", "alpha-length",
        "name-with-slash", "name-with-space", "name-too-long"])
def test_suite_wide_config_fault_exits_2_before_generate_writes(tmp_path, capsys, payload,
                                                                 words):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out), **payload}))
    for command in ("generate", "train", "eval"):
        assert main([command, "--config", str(cfg), "--no-timestamp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and all(w in err for w in words), err
    assert not out.exists()


def test_task_names_of_safe_characters_name_the_files(tmp_path):
    cfg, out = _small_config(tmp_path, iterations=0)
    payload = json.loads(cfg.read_text())
    payload["suite"]["tasks"][0]["name"] = "Cls-v1.2_a"
    cfg.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert (out / "data" / "task_00_Cls-v1.2_a.mtld").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_data_of_mixed_input_shapes_is_a_data_error(tmp_path, capsys, command):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][1]
    save_dataset(out / "data" / entry["path"],  # edited by hand: 8x8 images, not 16x16
                 gen_segmentation_task(KIND_BINARY_SEG, 8, 2, 1, 24, 8, seed=3, task_id=1))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert entry["path"] in err and "input_shape is (3, 8, 8)" in err, err


def test_train_holds_train_rows_and_eval_one_task_at_a_time(tmp_path, monkeypatch):
    cfg, out = _small_config(tmp_path, iterations=6)
    payload = json.loads(cfg.read_text())
    payload["suite"]["tasks"].append({**payload["suite"]["tasks"][1], "name": "third"})
    cfg.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    loads, live = [], set()
    load = cli.load_dataset

    def recording(path, split=None):
        loads.append((split, len(live)))
        ds = load(path, split=split)
        key = len(loads)
        live.add(key)
        weakref.finalize(ds, live.discard, key)
        return ds

    monkeypatch.setattr(cli, "load_dataset", recording)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert loads == [("train", 0), ("train", 1), ("train", 2)]
    assert not live  # train has returned
    loads.clear()
    assert main(["eval", "--config", str(cfg), "--no-timestamp"]) == 0
    assert loads == [("eval", 0)] * 3  # no other dataset is held at each load
    assert not live
    assert len(_rows(out / "results.csv")) == 3


def test_encoder_that_does_not_fit_the_input_is_a_config_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, encoder=[
        {"type": "conv", "filters": 4, "kernel": 40}, {"type": "relu"}, {"type": "gap"}])
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    before = sorted(out.rglob("*"))
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "layer 0" in err, err
    assert sorted(out.rglob("*")) == before


def test_train_without_datasets_is_data_error(tmp_path):
    cfg, _ = _small_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"iterations": -3}')
    assert main(["train", "--config", str(path)]) == 2


def test_train_log_row_count_and_determinism(tmp_path):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    rows = _rows(out / "train_log.csv")
    assert len(rows) == 40
    assert all(int(r["task_id"]) in (0, 1) for r in rows)
    first_log = (out / "train_log.csv").read_bytes()
    first_ck = (out / "checkpoint_final.mtlc").read_bytes()

    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert (out / "train_log.csv").read_bytes() == first_log
    assert (out / "checkpoint_final.mtlc").read_bytes() == first_ck


def test_train_with_out_override_writes_config_used(tmp_path):
    cfg, _ = _small_config(tmp_path, iterations=3)
    out = tmp_path / "elsewhere"
    assert main(["generate", "--config", str(cfg), "--out", str(out),
                 "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--no-timestamp"]) == 0
    used = json.loads((out / "config_used.json").read_text())
    assert used["out_dir"] == str(out)


@pytest.mark.parametrize("manifest", [
    '{"seed": 5, "tasks": [',
    '{"seed": 5}',
    '{"seed": 5, "tasks": [{"task_id": 0}]}',
], ids=["not-json", "no-tasks", "no-path"])
def test_malformed_manifest_is_data_error(tmp_path, capsys, manifest):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    (out / "data" / "manifest.json").write_text(manifest)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    assert "manifest.json" in capsys.readouterr().err


def test_unknown_dataset_kind_code_is_data_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][0]
    path = out / "data" / entry["path"]
    raw = bytearray(path.read_bytes())
    # magic (4), version (2), task id (2), name (2 + len) -> task kind code
    raw[6 + 2 + 2 + len(entry["name"].encode())] = 7
    path.write_bytes(bytes(raw))
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    assert entry["path"] in capsys.readouterr().err


def test_truncated_dataset_file_is_named_under_train(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][1]
    path = out / "data" / entry["path"]
    path.write_bytes(path.read_bytes()[:300])
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert entry["path"] in err and "truncated" in err


def test_corrupt_string_in_dataset_file_is_named_data_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][0]
    path = out / "data" / entry["path"]
    raw = bytearray(path.read_bytes())
    raw[6 + 2 + 2] = 0xFF  # magic, version, task id, name length -> first name byte
    path.write_bytes(bytes(raw))
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    assert entry["path"] in capsys.readouterr().err


@pytest.mark.parametrize("field", ["num_classes", "input_channels"])
def test_eval_names_a_dataset_file_whose_header_is_corrupt(tmp_path, capsys, field):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][0]
    path = out / "data" / entry["path"]
    raw = bytearray(path.read_bytes())
    # magic (4), version (2), task id (2), name (2 + len), kind (1) -> num_classes (2),
    # then ndim (1) -> the first extent of the input shape (4)
    at = 6 + 2 + 2 + len(entry["name"].encode()) + 1
    raw[at if field == "num_classes" else at + 3] += 2
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert entry["path"] in err and "CRC32" in err, err
    assert not (out / "results.csv").exists()


def test_truncated_checkpoint_is_named_under_eval(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    path = out / "checkpoint_final.mtlc"
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    assert main(["eval", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert "checkpoint_final.mtlc" in err and "truncated" in err


def test_resume_from_checkpoint_past_iterations_is_config_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=40, checkpoint_every=20)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    final = (out / "checkpoint_final.mtlc").read_bytes()

    shorter = json.loads(cfg.read_text())
    shorter["iterations"] = 20
    cfg.write_text(json.dumps(shorter))
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "checkpoint_slot1.mtlc" in err and "40" in err and "20" in err
    assert (out / "checkpoint_final.mtlc").read_bytes() == final


@pytest.mark.parametrize("task", [0, 1], ids=["classification", "binary-seg"])
def test_eval_of_task_without_eval_examples_is_data_error(tmp_path, capsys, task):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][task]
    path = out / "data" / entry["path"]
    ds = load_dataset(path)
    ds.split[:] = TRAIN
    save_dataset(path, ds)
    # the config's n_eval is at least 1, so such data is not the config's
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg), "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert entry["path"] in err and f"n_train is {len(ds.split)}," in err, err
    assert not (out / "results.csv").exists()


ONE_CONV = [{"type": "conv", "filters": 6, "kernel": 3, "padding": 1},
            {"type": "relu"}, {"type": "gap"}]
TWO_CONV = ONE_CONV[:2] + [{"type": "conv", "filters": 5, "kernel": 3, "stride": 2,
                            "padding": 1}, {"type": "relu"}, {"type": "gap"}]


@pytest.mark.parametrize("encoder_spec", [ONE_CONV, TWO_CONV], ids=["one-conv", "two-conv"])
def test_chunked_eval_matches_whole_split_forward(monkeypatch, encoder_spec):
    n_eval = cli.EVAL_CHUNK + 11
    tasks = [
        gen_classification_task(4, (3, 16, 16), 8, n_eval, 0.3, seed=70, task_id=0),
        gen_segmentation_task(KIND_INSTANCE_SEG, 16, 3, 3, 8, n_eval, seed=71, task_id=1),
        gen_segmentation_task(KIND_BINARY_SEG, 16, 3, 1, 8, n_eval, seed=72, task_id=2),
    ]
    store, rng = ParamStore(), np.random.default_rng(73)
    encoder = build_encoder(parse_encoder_spec(encoder_spec), (3, 16, 16), store, rng)
    decoders = build_decoders(tasks, encoder, store, rng)
    for ds, dec in zip(tasks, decoders):
        idx = ds.indices("eval")
        whole = forward_task(encoder, dec, Tensor(ds.inputs[idx]), None).data
        chunks = [forward_task(encoder, dec, Tensor(ds.inputs[idx[s:s + cli.EVAL_CHUNK]]),
                               None).data for s in range(0, n_eval, cli.EVAL_CHUNK)]
        assert len(chunks) == 2
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

        chunked = cli.evaluate_task(encoder, dec, ds)
        with monkeypatch.context() as m:
            m.setattr(cli, "EVAL_CHUNK", n_eval)
            assert cli.evaluate_task(encoder, dec, ds) == chunked


def test_train_zero_iterations_checkpoint_equals_init(tmp_path):
    from mtlab.cli import _build_models, _load_manifest_tasks
    from mtlab.config import load_config

    cfg, out = _small_config(tmp_path, iterations=0)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    rows = _rows(out / "train_log.csv")
    assert rows == []

    conf = load_config(cfg)
    tasks = list(_load_manifest_tasks(conf).values())
    store, _, _, _ = _build_models(conf, tasks)
    ck = load_checkpoint(out / "checkpoint_final.mtlc")
    assert ck.t == 0
    for group, gdata in ck.groups.items():
        for pid, (theta, _, _) in gdata["params"].items():
            np.testing.assert_array_equal(theta, store.get(pid).data)


def test_eval_untrained_checkpoint_is_chance_level(tmp_path):
    cfg, out = _small_config(tmp_path, iterations=0)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["eval", "--config", str(cfg), "--no-timestamp"]) == 0
    rows = _rows(out / "results.csv")
    assert len(rows) == 2  # one row per task
    cls = next(r for r in rows if r["metric"] == "accuracy")
    assert abs(float(cls["value"]) - 0.25) <= 0.1  # K=4 chance level


def test_eval_checkpoint_model_mismatch_is_data_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    # same datasets, different encoder: parameter sets disagree
    payload = json.loads(cfg.read_text())
    payload["encoder"][0]["filters"] = 12
    cfg.write_text(json.dumps(payload))
    assert main(["eval", "--config", str(cfg), "--no-timestamp"]) == 3
    assert "checkpoint_final.mtlc" in capsys.readouterr().err


RUN_RECORD = ("train_log.csv", "checkpoint_final.mtlc", "grad_trace.mtlg")


def _record(out):
    return {name: (out / name).read_bytes() for name in RUN_RECORD}


def _crash_at(monkeypatch, iteration):
    """Make training raise at `iteration` of the next run, as a crash would."""
    step, calls = trainer.train_step, []

    def crashing(*args):
        calls.append(None)
        if len(calls) == iteration:
            raise RuntimeError("simulated crash")
        return step(*args)

    monkeypatch.setattr(trainer, "train_step", crashing)


def _crashed_run(tmp_path, monkeypatch, crash_at=25, **overrides):
    """A straight run's record and file names, then the same run crashed at `crash_at`."""
    cfg, out = _small_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    straight, names = _record(out), sorted(p.name for p in out.iterdir())
    with monkeypatch.context() as m:
        _crash_at(m, crash_at)
        assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 4
    return cfg, out, straight, names


def test_train_resume_matches_straight_run(tmp_path):
    cfg, out = _small_config(tmp_path, iterations=40, checkpoint_every=20)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    straight = _record(out)

    half = json.loads(cfg.read_text())
    half["iterations"] = 20
    cfg.write_text(json.dumps(half))
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0

    full = json.loads(cfg.read_text())
    full["iterations"] = 40
    cfg.write_text(json.dumps(full))
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 0
    assert _record(out) == straight


def test_resume_after_a_crash_ends_with_the_straight_runs_files(tmp_path, monkeypatch):
    cfg, out, straight, names = _crashed_run(tmp_path, monkeypatch, iterations=40,
                                             checkpoint_every=10)
    assert not (out / "checkpoint_final.mtlc").exists()
    assert (out / "grad_trace.journal").exists()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 0
    assert _record(out) == straight
    # the journal and the older slot are gone, as after the straight run
    assert sorted(p.name for p in out.iterdir()) == names
    assert "grad_trace.journal" not in names and "checkpoint_slot1.mtlc" in names


@pytest.mark.parametrize("damage", ["garbled-slot", "torn-slot", "torn-journal-tails"])
def test_resume_past_a_torn_write_ends_with_the_straight_runs_files(tmp_path, monkeypatch,
                                                                    capsys, damage):
    cfg, out, straight, _ = _crashed_run(tmp_path, monkeypatch, iterations=40,
                                         checkpoint_every=10)
    # the crash at 25 came after saves at 10 (slot 0) and 20 (slot 1)
    newest = out / "checkpoint_slot1.mtlc"
    raw = bytearray(newest.read_bytes())
    if damage == "garbled-slot":  # an overwrite in place that stopped midway
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
    elif damage == "torn-slot":   # a first write to the slot that stopped midway
        newest.write_bytes(bytes(raw[:len(raw) // 2]))
    else:                         # journal appends that stopped midway
        with open(out / "train_log.csv", "ab") as fh:
            fh.write(b"21,1,0.5")
        with open(out / "grad_trace.journal", "ab") as fh:
            fh.write(b"\x40\x00\x00\x00MTLJ")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 0
    skipped = "skipping checkpoint slot" in capsys.readouterr().err
    assert skipped == damage.endswith("slot")
    assert _record(out) == straight


def test_resume_past_the_log_is_a_data_error_naming_it(tmp_path, monkeypatch, capsys):
    cfg, out, _, _ = _crashed_run(tmp_path, monkeypatch, iterations=40, checkpoint_every=10)
    log = out / "train_log.csv"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:15]))  # the header and iterations 1..14
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 3
    err = capsys.readouterr().err
    assert "train_log.csv" in err and "iteration 20" in err
    assert log.read_bytes() == b"".join(lines[:15])


def test_fresh_run_clears_the_previous_runs_resume_point(tmp_path, monkeypatch, capsys):
    cfg, out, _, _ = _crashed_run(tmp_path, monkeypatch, crash_at=5, iterations=40,
                                  checkpoint_every=20)
    # the crash came before the first save: nothing of the earlier run is left,
    # and config_used.json is the crashed run's own, written when it started
    for name in ("checkpoint_slot0.mtlc", "checkpoint_slot1.mtlc", "grad_trace.journal",
                 "checkpoint_final.mtlc", "grad_trace.mtlg"):
        assert not (out / name).exists(), name
    assert _rows(out / "train_log.csv") == []
    assert json.loads((out / "config_used.json").read_text())["seed"] == 5
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 3
    assert "no checkpoint slot" in capsys.readouterr().err


def test_resume_with_a_changed_model_is_a_data_error_naming_the_slot(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=40, checkpoint_every=20)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    log = (out / "train_log.csv").read_bytes()
    payload = json.loads(cfg.read_text())
    payload["encoder"][0]["filters"] = 5
    cfg.write_text(json.dumps(payload))
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 3
    err = capsys.readouterr().err
    assert "checkpoint_slot1.mtlc does not match the configured models" in err
    assert (out / "train_log.csv").read_bytes() == log


def test_config_used_is_written_at_start_with_the_end_of_run_bytes(tmp_path, monkeypatch):
    cfg, out, _, _ = _crashed_run(tmp_path, monkeypatch, crash_at=5, iterations=40)
    at_start = (out / "config_used.json").read_bytes()
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert (out / "config_used.json").read_bytes() == at_start


@pytest.mark.parametrize("key,value", [("batch_size", 4), ("alpha", [0.25, 0.75]),
                                       ("adam", {"lr": 0.01})])
def test_resume_with_a_changed_training_config_is_a_config_error(tmp_path, capsys,
                                                                  key, value):
    cfg, out = _small_config(tmp_path, iterations=20, checkpoint_every=10, batch_size=2)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    payload = json.loads(cfg.read_text())
    payload.update({"iterations": 30, key: value})
    cfg.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 2
    err = capsys.readouterr().err
    assert key in err and "config_used.json" in err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before


def test_resume_without_config_used_is_a_data_error_naming_it(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=20, checkpoint_every=10)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    (out / "config_used.json").unlink()
    log = (out / "train_log.csv").read_bytes()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 3
    assert "config_used.json" in capsys.readouterr().err
    assert (out / "train_log.csv").read_bytes() == log


def test_train_on_segmentation_targets_of_another_size_is_a_data_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][1]
    path = out / "data" / entry["path"]
    ds = load_dataset(path)
    ds.targets = ds.targets[:, :8, :8].copy()
    save_dataset(path, ds)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert entry["path"] in err and "examples 0..31" in err


def test_diagnose_outputs(tmp_path):
    cfg, out = _small_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["diagnose", "--config", str(cfg), "--no-timestamp"]) == 0

    smoothed = _rows(out / "diagnostics" / "loss_smoothed.csv")
    raw = _rows(out / "train_log.csv")
    assert len(smoothed) == len(raw) == 40

    consec = _rows(out / "diagnostics" / "consecutive_cosine.csv")
    assert len(consec) == 40 - 1  # no zero-gradient skips in this run
    assert all(0.0 <= float(r["cos_distance"]) <= 2.0 for r in consec)

    matrix = _rows(out / "diagnostics" / "pairwise_matrix.csv")
    assert len(matrix) == 4  # k*k rows for k=2
    for r in matrix:
        if r["samples"] == "0":
            assert r["mean_cos_distance"] == ""
        else:
            assert 0.0 <= float(r["mean_cos_distance"]) <= 2.0


def test_diagnose_without_trace_is_explicit_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, diagnostics="off")
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["diagnose", "--config", str(cfg), "--no-timestamp"]) == 3
    assert "diagnostics" in capsys.readouterr().err


def test_pq_command_self_comparison(tmp_path, capsys):
    ds = gen_segmentation_task("instance-segmentation", 16, 3, 3, 2, 1, seed=3)
    mask_path = tmp_path / "m.mtlm"
    save_mask(mask_path, ds.gt_masks([0]))
    assert main(["pq", str(mask_path), str(mask_path)]) == 0
    out = capsys.readouterr().out
    assert "PQ 1.0" in out


def test_pq_command_hand_fixture(tmp_path, capsys):
    gt = np.zeros((4, 8), dtype=np.int32)
    gt[0, 0:4] = 1
    pred = np.zeros((4, 8), dtype=np.int32)
    pred[0, 1:5] = 1
    pred[3, 0:3] = 2
    save_mask(tmp_path / "gt.mtlm", InstanceStack(gt[None], [(0, 1, 1)]))
    save_mask(tmp_path / "pred.mtlm", InstanceStack(pred[None], [(0, 1, 1), (0, 2, 1)]))
    assert main(["pq", str(tmp_path / "pred.mtlm"), str(tmp_path / "gt.mtlm")]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = dict(line.split(None, 1) for line in lines)
    assert float(values["PQ"]) == pytest.approx(0.4, abs=5e-16)
    assert values["TP"] == "1" and values["FP"] == "1" and values["FN"] == "0"


def test_pq_command_dimension_mismatch(tmp_path):
    a = np.zeros((1, 4, 4), dtype=np.int32)
    a[0, 0, 0] = 1
    b = np.zeros((1, 5, 5), dtype=np.int32)
    b[0, 0, 0] = 1
    save_mask(tmp_path / "a.mtlm", InstanceStack(a, [(0, 1, 1)]))
    save_mask(tmp_path / "b.mtlm", InstanceStack(b, [(0, 1, 1)]))
    assert main(["pq", str(tmp_path / "a.mtlm"), str(tmp_path / "b.mtlm")]) == 3


def test_pq_command_names_a_mask_file_with_duplicate_labels(tmp_path, capsys):
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[0, 0] = 1
    save_mask(tmp_path / "gt.mtlm", InstanceStack(ids[None], [(0, 1, 1)]))
    bad = tmp_path / "pred.mtlm"
    w = BlockWriter(MASK_MAGIC, MASK_VERSION)
    w.tensor(ids)
    w.tensor(np.array([[1, 1], [1, 2]], dtype=np.int32))   # id 1 labeled twice
    w.save(bad)
    assert main(["pq", str(bad), str(tmp_path / "gt.mtlm")]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "more than one label" in err


def test_concentration_std_decreasing_and_deterministic(tmp_path):
    out = tmp_path / "conc"
    args = ["concentration", "--out", str(out), "--no-timestamp",
            "--dims", "4,100,10000", "--pairs", "2000", "--seed", "3"]
    assert main(args) == 0
    rows = _rows(out / "concentration.csv")
    stds = [float(r["std"]) for r in rows]
    assert stds[0] > stds[1] > stds[2]
    first = (out / "concentration.csv").read_bytes()
    assert main(args) == 0
    assert (out / "concentration.csv").read_bytes() == first


@pytest.mark.parametrize("flags,words", [
    (["--pairs", "10"], ["--pairs", "1000"]),
    (["--dims", "1"], ["--dims", "'1'"]),
    (["--dims", "4,a"], ["--dims", "'4,a'"]),
    (["--dims", ","], ["--dims"]),
], ids=["few-pairs", "dim-1", "dim-not-a-number", "no-dims"])
def test_bad_concentration_flags_are_a_config_error_naming_the_flag(tmp_path, capsys, flags,
                                                                    words):
    out = tmp_path / "conc"
    assert main(["concentration", "--out", str(out), "--no-timestamp", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(w in err for w in words), err
    assert not out.exists()


def test_concentration_d100_band(tmp_path):
    out = tmp_path / "conc"
    assert main(["concentration", "--out", str(out), "--no-timestamp",
                 "--dims", "100", "--pairs", "20000", "--seed", "1"]) == 0
    (row,) = _rows(out / "concentration.csv")
    assert abs(float(row["std"]) - 0.1) <= 0.005


def test_diagnose_skips_blank_lines_and_names_a_bad_train_log_row(tmp_path, capsys):
    cfg, out = _small_config(tmp_path)
    for cmd in ("generate", "train", "diagnose"):
        assert main([cmd, "--config", str(cfg), "--no-timestamp"]) == 0
    log = out / "train_log.csv"
    smoothed = (out / "diagnostics" / "loss_smoothed.csv").read_bytes()
    text = log.read_text()
    log.write_text(text + "\n")
    assert main(["diagnose", "--config", str(cfg), "--no-timestamp"]) == 0
    assert (out / "diagnostics" / "loss_smoothed.csv").read_bytes() == smoothed
    lines = text.splitlines(keepends=True)
    lines[5] = lines[5].replace(lines[5].split(",")[0], "5.5", 1)
    log.write_text("".join(lines))
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert str(log) in err and "line 6" in err and "5.5" in err


def test_eval_names_task_and_example_of_gt_id_without_class(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=0)
    payload = json.loads(cfg.read_text())
    payload["suite"]["tasks"][1] = {"kind": "instance-segmentation", "image_size": 16,
                                    "max_instances": 2, "num_classes": 2,
                                    "n_train": 8, "n_eval": 6, "name": "cells"}
    cfg.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    entry = json.loads((out / "data" / "manifest.json").read_text())["tasks"][1]
    path = out / "data" / entry["path"]
    ds = load_dataset(path)
    bad = int(ds.indices("eval")[3])
    labeled = np.count_nonzero(ds.targets.labels[:, 0] == bad)
    ds.targets.ids[bad, 0, 0] = labeled + 1      # an id past its class table
    save_dataset(path, ds)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and f"example {bad}: id map" in err


SKETCHED = [{"type": "conv", "filters": 16, "kernel": 3, "padding": 1}, {"type": "relu"},
            {"type": "conv", "filters": 32, "kernel": 3, "stride": 2, "padding": 1},
            {"type": "relu"}, {"type": "gap"}]  # 5088 encoder parameters > 4096


def _trace_from_memory(cfg_path, path):
    """save_trace of the whole trace of an uninterrupted train() without a record."""
    from mtlab.config import load_config

    cfg = load_config(cfg_path)
    tasks = list(cli._load_manifest_tasks(cfg).values())
    store, enc, decs, states = cli._build_models(cfg, tasks)
    tcfg = trainer.TrainConfig(iterations=cfg.iterations, batch_size=cfg.batch_size,
                               seed=cfg.seed, diagnostics=cfg.diagnostics)
    log = trainer.train(tasks, enc, decs, store, states, cli._sampler(cfg, len(tasks)), tcfg)
    trainer.save_trace(path, log.trace)


@pytest.mark.parametrize("mode", ["exact", "sketch"])
@pytest.mark.parametrize("run", ["shorter-than-a-checkpoint", "checkpoint-multiple",
                                 "rows-past-the-last-checkpoint", "resume-from-slot",
                                 "resume-from-finished-run"])
def test_final_trace_has_the_bytes_of_the_trace_saved_from_memory(tmp_path, monkeypatch,
                                                                   mode, run):
    overrides = {"shorter-than-a-checkpoint": dict(iterations=15, checkpoint_every=20),
                 "checkpoint-multiple": dict(iterations=40, checkpoint_every=20),
                 "rows-past-the-last-checkpoint": dict(iterations=40, checkpoint_every=15),
                 "resume-from-slot": dict(iterations=40, checkpoint_every=10),
                 "resume-from-finished-run": dict(iterations=20, checkpoint_every=10)}[run]
    cfg, out = _small_config(tmp_path, diagnostics=mode,
                             **({"encoder": SKETCHED} if mode == "sketch" else {}), **overrides)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    if run == "resume-from-slot":
        with monkeypatch.context() as m:
            _crash_at(m, 25)
            assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 4
        assert (out / "grad_trace.journal").exists()
    else:
        assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    if run == "resume-from-finished-run":
        payload = json.loads(cfg.read_text())
        payload["iterations"] = 40
        cfg.write_text(json.dumps(payload))
    if run.startswith("resume"):
        assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 0
    assert not (out / "grad_trace.journal").exists()
    _trace_from_memory(cfg, tmp_path / "from_memory.mtlg")
    assert (out / "grad_trace.mtlg").read_bytes() == (tmp_path / "from_memory.mtlg").read_bytes()
    assert trainer.load_trace(out / "grad_trace.mtlg").stored_dim == \
        (4096 if mode == "sketch" else 6 * 27 + 6)


def test_generate_saves_each_dataset_before_generating_the_next(tmp_path, monkeypatch):
    cfg, out = _small_config(tmp_path)
    saved_before = []
    for name in ("gen_classification_task", "gen_segmentation_task"):
        gen = getattr(cli, name)

        def counting(*args, _gen=gen, **kwargs):
            saved_before.append(len(list((out / "data").glob("*.mtld"))))
            return _gen(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert saved_before == [0, 1]


@pytest.mark.parametrize("change", ["regenerated", "edited"])
def test_resume_on_other_datasets_is_a_data_error_naming_the_file(tmp_path, capsys, change):
    cfg, out = _small_config(tmp_path, iterations=20, checkpoint_every=10)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    manifest = json.loads((out / "data" / "manifest.json").read_text())
    if change == "regenerated":  # the same suite from another seed: every file differs
        assert main(["generate", "--config", str(cfg), "--seed", "6", "--no-timestamp"]) == 0
        name = manifest["tasks"][0]["path"]
    else:  # one input value of the second task, written back as a valid file
        name = manifest["tasks"][1]["path"]
        ds = load_dataset(out / "data" / name)
        ds.inputs[0, 0, 0, 0] += 1.0
        save_dataset(out / "data" / name, ds)
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    payload = json.loads(cfg.read_text())
    payload["iterations"] = 30
    cfg.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 3
    err = capsys.readouterr().err
    # data from another seed is not the config's; an edited file is, but for its bytes
    assert name in err and ("seed is" if change == "regenerated" else "CRC32") in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before


def test_config_used_records_each_datasets_crc32_trailer(tmp_path):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    used = json.loads((out / "config_used.json").read_text())
    names = [e["path"] for e in json.loads((out / "data" / "manifest.json").read_text())["tasks"]]
    assert used["dataset_crc32"] == {
        name: int.from_bytes((out / "data" / name).read_bytes()[-4:], "little")
        for name in names}
    del used["dataset_crc32"]
    assert used == json.loads(json.dumps(cli.load_config(cfg).raw))


def test_every_command_runs_without_importing_scipy(tmp_path):
    cfg, out = _small_config(tmp_path, iterations=6, checkpoint_every=3)
    payload = json.loads(cfg.read_text())  # an instance task, for class-aware PQ
    payload["suite"]["tasks"].append({"kind": "instance-segmentation", "image_size": 16,
                                      "num_classes": 2, "n_train": 8, "n_eval": 4})
    cfg.write_text(json.dumps(payload))
    # numpy 2 imports numpy.ma (about 13 ms) only on first use; the pipeline's
    # commands do not use it
    code = f"""
import sys
import numpy as np
eager = "numpy.ma" in sys.modules
from mtlab.cli import main
from mtlab.metrics import InstanceStack
from mtlab.tasks import save_mask
cfg, out = {str(cfg)!r}, {str(out)!r}
for command in ("generate", "train", "eval", "diagnose", "concentration"):
    assert main([command, "--config", cfg, "--no-timestamp"]) == 0, command
assert eager or "numpy.ma" not in sys.modules
mask = InstanceStack(np.array([[[0, 1], [2, 2]]]), [(0, 1, 1), (0, 2, 2)])
save_mask(out + "/mask.mtlm", mask)
assert main(["pq", out + "/mask.mtlm", out + "/mask.mtlm", "--class-aware"]) == 0
assert eager or "numpy.ma" not in sys.modules
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


def test_train_opens_each_dataset_file_and_the_manifest_once(tmp_path, monkeypatch):
    cfg, out = _small_config(tmp_path, iterations=3)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    opened = []
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    monkeypatch.undo()
    data = sorted((out / "data").iterdir())
    assert len(data) == 3  # two datasets and the manifest
    assert {path.name: opened.count(path) for path in data} == {path.name: 1 for path in data}


def test_a_failed_config_used_write_leaves_the_resume_point_whole(tmp_path, monkeypatch):
    cfg, out = _small_config(tmp_path, iterations=20, checkpoint_every=10)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    used = (out / "config_used.json").read_bytes()
    dump = json.dump

    def torn(obj, fh, **kwargs):  # half the text reaches the file, then the write fails
        text = json.dumps(obj, **kwargs)
        fh.write(text[:len(text) // 2])
        raise OSError("No space left on device")

    with monkeypatch.context() as m:
        m.setattr(json, "dump", torn)
        assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 4
    assert json.dump is dump
    assert (out / "config_used.json").read_bytes() == used
    assert not (out / "config_used.json.tmp").exists()
    final = (out / "checkpoint_final.mtlc").read_bytes()
    assert main(["train", "--config", str(cfg), "--no-timestamp", "--resume"]) == 0
    assert (out / "checkpoint_final.mtlc").read_bytes() == final


@pytest.mark.parametrize("alpha", ["uniform", [1.0]], ids=["uniform", "alpha-list"])
def test_data_of_another_suite_is_a_data_error_naming_the_manifest(tmp_path, capsys, alpha):
    cfg, out = _small_config(tmp_path, iterations=4)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    payload = json.loads(cfg.read_text())  # the config now names the first task only
    payload["suite"]["tasks"] = payload["suite"]["tasks"][:1]
    payload["alpha"] = alpha
    cfg.write_text(json.dumps(payload))
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg), "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert "manifest.json lists 2 datasets" in err and "has 1 tasks" in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("key, value, shown", [
    ("kind", "instance-segmentation", "kind is 'binary-segmentation'"),
    ("name", "other", "name is 'shapes_binary_t1'"),
    ("max_instances", 3, None),  # not in the file: the same data either way
    ("n_train", 25, "n_train is 24,"),
    ("n_eval", 9, "n_eval is 8,"),
])
def test_data_that_is_not_the_configs_task_is_a_data_error(tmp_path, capsys, key, value, shown):
    cfg, out = _small_config(tmp_path, iterations=4)
    assert main(["generate", "--config", str(cfg), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
    payload = json.loads(cfg.read_text())
    payload["suite"]["tasks"][1][key] = value
    if key == "kind":
        payload["suite"]["tasks"][1]["num_classes"] = 1
    cfg.write_text(json.dumps(payload))
    capsys.readouterr()
    for command in ("train", "eval"):
        code = main([command, "--config", str(cfg), "--no-timestamp"])
        err = capsys.readouterr().err
        if shown is None:
            assert code == 0, err
        else:
            assert code == 3 and "task_01_shapes_binary_t1.mtld" in err and shown in err, err


def test_data_generated_from_another_seed_is_a_data_error(tmp_path, capsys):
    cfg, out = _small_config(tmp_path, iterations=4)
    assert main(["generate", "--config", str(cfg), "--no-timestamp", "--seed", "6"]) == 0
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg), "--no-timestamp"]) == 3
        err = capsys.readouterr().err
        assert "task_00_patch_k4_t0.mtld" in err and "its seed is" in err, err

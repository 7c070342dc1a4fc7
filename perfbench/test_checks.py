"""Fast tests of the benchmark: each check passes on a real run and fails on a
deliberately corrupted copy of its output.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from mtlab.cli import main as mtlab_main  # noqa: E402

PAIRS = 4000
CONFIG = {
    "seed": 5,
    "suite": {"tasks": [
        {"kind": "classification", "num_classes": 3, "n_train": 24, "n_eval": 12,
         "input_shape": [3, 16, 16]},
        {"kind": "binary-segmentation", "image_size": 16, "max_instances": 2,
         "n_train": 24, "n_eval": 12},
        {"kind": "instance-segmentation", "image_size": 16, "max_instances": 2,
         "num_classes": 2, "n_train": 24, "n_eval": 12},
    ]},
    "encoder": [{"type": "conv", "filters": 4, "kernel": 3, "stride": 2, "padding": 1},
                {"type": "relu"}, {"type": "gap"}],
    "alpha": [0.5, 0.25, 0.25],
    "iterations": 60,
    "checkpoint_every": 20,
    "diagnostics": "exact",
}
COMMANDS = [["generate"], ["train"], ["eval"], ["diagnose"],
            ["concentration", "--dims", "16,64,256", "--pairs", str(PAIRS)]]
FLOORS = {"accuracy": 0.0, "PQ": 0.0, "mean": 0.0}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    config = {**CONFIG, "out_dir": str(root / "run")}
    (root / "config.json").write_text(json.dumps(config))
    for cmd in COMMANDS:
        assert mtlab_main([cmd[0], "--config", str(root / "config.json"),
                           "--no-timestamp", *cmd[1:]]) == 0
    return root / "run", config


@pytest.fixture
def out(run):
    return checks.load_outputs(*run)


def test_clean_run_passes_every_check(out):
    assert checks.run_checks(out, FLOORS, PAIRS) == [
        (name, None) for name in ("eval", "gradients", "adam_steps", "sampler", "trace",
                                  "cosines", "rolling_mean", "pairwise", "floors",
                                  "concentration")]


def test_eval_fails_on_perturbed_parameter(out):
    out.checkpoint["groups"]["encoder"]["params"]["encoder/layer00.weight"][0][:] += 0.5
    with pytest.raises(checks.CheckFailure, match="recomputed"):
        checks.check_eval(out)


def test_eval_fails_on_flipped_label(out):
    ds = out.datasets[0]
    i = np.flatnonzero(ds["split"] == 1)[0]
    ds["targets"][i] = (ds["targets"][i] + 1) % ds["num_classes"]
    with pytest.raises(checks.CheckFailure, match="accuracy"):
        checks.check_eval(out)


def test_eval_fails_on_edited_pq(out):
    out.results[1]["value"] = repr(float(out.results[1]["value"]) + 1e-3)
    with pytest.raises(checks.CheckFailure, match="PQ"):
        checks.check_eval(out)


def test_gradients_fail_on_scaled_gradient(out):
    program = checks.ProgramModel(out)

    def off_by_one_percent(task, x, y):
        loss, grads = program.gradients(task, x, y)
        grads["encoder/layer00.weight"] = grads["encoder/layer00.weight"] * 1.01
        return loss, grads

    with pytest.raises(checks.CheckFailure, match="central differences"):
        checks.check_gradients(out, off_by_one_percent)


def test_adam_steps_fail_on_extra_decoder_step(out):
    out.checkpoint["groups"]["decoder1"]["t"] += 1
    with pytest.raises(checks.CheckFailure, match="decoder1"):
        checks.check_adam_steps(out)


def test_sampler_fails_on_skewed_task_counts(out):
    out.log["task"][:] = 0
    with pytest.raises(checks.CheckFailure, match="fit alpha"):
        checks.check_sampler(out)


def test_trace_fails_on_edited_task_row(out):
    out.trace["task"][7] = (out.trace["task"][7] + 1) % 3
    with pytest.raises(checks.CheckFailure, match="differ"):
        checks.check_trace(out)


def test_cosines_fail_on_edited_trace_row(out):
    out.trace["vecs"][10, 0] += 1.0
    with pytest.raises(checks.CheckFailure, match="cosine"):
        checks.check_cosines(out)


def test_rolling_mean_fails_on_edited_loss(out):
    out.log["loss"][30] += 1e-6
    with pytest.raises(checks.CheckFailure, match="smoothed loss"):
        checks.check_rolling_mean(out)


def test_pairwise_fails_on_edited_sample_count(out):
    row = next(r for r in out.pairwise if int(r["samples"]) > 0)
    row["samples"] = str(int(row["samples"]) + 1)
    with pytest.raises(checks.CheckFailure, match="transitions"):
        checks.check_pairwise(out)


def test_pairwise_fails_on_edited_mean(out):
    row = next(r for r in out.pairwise if int(r["samples"]) > 0)
    row["mean_cos_distance"] = repr(float(row["mean_cos_distance"]) + 1e-6)
    with pytest.raises(checks.CheckFailure, match="recomputed"):
        checks.check_pairwise(out)


def test_concentration_fails_on_wide_std(out):
    out.concentration[1]["std"] = repr(float(out.concentration[1]["std"]) * 1.1)
    with pytest.raises(checks.CheckFailure, match="sqrt"):
        checks.check_concentration(out, PAIRS)


def test_concentration_fails_on_std_falling_too_fast(out):
    for row in out.concentration:
        row["std"] = repr(int(row["dim"]) ** -0.6)
    with pytest.raises(checks.CheckFailure):
        checks.check_concentration(out, PAIRS)


def test_floors_fail_below_floor(out):
    with pytest.raises(checks.CheckFailure, match="accuracy .* below the floor"):
        checks.check_floors(out, {"accuracy": 1.01, "mean": 0.0})
    with pytest.raises(checks.CheckFailure, match="mean eval score"):
        checks.check_floors(out, {"mean": 1.01})


def test_same_bytes_fails_on_differing_rounds():
    checks.check_same_bytes([{"a": "1"}, {"a": "1"}])
    with pytest.raises(checks.CheckFailure, match="different outputs"):
        checks.check_same_bytes([{"a": "1"}, {"a": "2"}])


def test_traced_round_reports_layers(run, tmp_path):
    out_dir, config = run
    config = {**config, "out_dir": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    spec = {"src": str(HERE.parent / "src"), "config": str(tmp_path / "config.json"),
            "trace": True, "commands": [[c[0], c[1:]] for c in COMMANDS[:4]],
            "result": str(tmp_path / "result.json"), "spans": str(tmp_path / "spans.csv"),
            "t0": 0.0}
    (tmp_path / "round.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "round.json")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    res = json.loads((tmp_path / "result.json").read_text())
    layers = res["layers"]
    assert res["failed"] == []
    assert layers["trainer.step_samples"] == CONFIG["iterations"]
    assert layers["optim.adam_elements"] > 0 and layers["autodiff.conv2d_calls"] > 0
    assert layers["trainer.checkpoints"] == 4   # three periodic, one final
    assert layers["trainer.span_coverage"] > 0.9
    assert layers["cli.eval_alloc_peak_mib"] > 0
    for name in ("train_log.csv", "checkpoint_final.mtlc", "grad_trace.mtlg"):
        assert (tmp_path / "run" / name).read_bytes() == (out_dir / name).read_bytes()


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "seg_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

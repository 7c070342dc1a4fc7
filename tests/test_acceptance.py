"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The end-to-end criterion trains the full default 11-task suite
(T=5000) through the CLI and is shared by the diagnostics criterion.
"""

import csv
import json
import shutil
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import test_autodiff
import test_metrics
from mtlab.cli import main
from mtlab.diagnostics import concentration_experiment
from mtlab.metrics import panoptic_quality
from mtlab.model import Activation, Conv, GlobalAvgPool, ParamStore, build_encoder
from mtlab.optim import adam_init, adam_step
from mtlab.autodiff import Tensor
from mtlab.tasks import gen_classification_task
from mtlab.tensorio import TruncatedFileError
from mtlab.trainer import (SamplerConfig, build_decoders, init_adam_states,
                           iteration_rng, sample_task, train_step)
from mtlab.tasks import sample_batch


def _report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


# ---------------------------------------------------------------------------
# 1. gradient correctness for every op kind

def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    for case in test_autodiff.GRAD_CASES:
        for seed in range(20):
            case(np.random.default_rng(seed))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, f"{len(test_autodiff.GRAD_CASES)} op cases x 20 seeds vs central "
               f"differences in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Adam oracle

def test_criterion_2_adam_oracle():
    t0 = time.monotonic()
    lr, eps, g = 1e-3, 1e-8, 2.0
    params = {"w": Tensor(np.array([0.5]))}
    st = adam_init(params, lr=lr, eps=eps)
    adam_step(st, params, {"w": Tensor(np.array([g]))})
    delta = params["w"].data[0] - 0.5
    assert abs(delta - (-lr * g / (abs(g) + eps))) < 1e-12

    params = {"theta": Tensor(np.array([0.0]))}
    st = adam_init(params, lr=0.1)
    for _ in range(500):
        grad = 2.0 * (params["theta"].data[0] - 3.0)
        adam_step(st, params, {"theta": Tensor(np.array([grad]))})
    assert abs(params["theta"].data[0] - 3.0) < 1e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"adam oracle took {elapsed:.2f}s"
    _report(2, f"first-step closed form to 1e-12 and 500-step quadratic "
               f"convergence in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. sampler fidelity

def test_criterion_3_sampler_fidelity():
    t0 = time.monotonic()
    n = 100_000
    for alpha in (np.full(11, 1 / 11), np.array([0.5, 0.3, 0.2])):
        sampler = SamplerConfig(alpha.copy())
        crit = stats.chi2.ppf(0.999, df=len(alpha) - 1)
        failures = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            draws = np.fromiter((sample_task(sampler, rng) for _ in range(n)),
                                dtype=np.int64, count=n)
            observed = np.bincount(draws, minlength=len(alpha))
            chi2 = ((observed - n * alpha) ** 2 / (n * alpha)).sum()
            failures += chi2 >= crit
        assert failures <= 1, f"alpha={alpha}: {failures} of 20 seeds failed"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sampler fidelity took {elapsed:.1f}s"
    _report(3, f"chi-square below 0.999 quantile for uniform k=11 and skewed "
               f"k=3, 20 seeds each, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. decoder isolation

def test_criterion_4_decoder_isolation():
    tasks = [gen_classification_task(3, (3, 16, 16), 24, 8, 0.3, seed=s, task_id=i)
             for i, s in enumerate((70, 71, 72))]
    store = ParamStore()
    rng = np.random.default_rng(1)
    enc = build_encoder([Conv(6, 3, padding=1), Activation("relu"), GlobalAvgPool()],
                        (3, 16, 16), store, rng)
    decs = build_decoders(tasks, enc, store, rng)
    states = init_adam_states(store)
    sampler = SamplerConfig.uniform(3)

    def group_bytes(g):
        return b"".join(store.get(pid).data.tobytes() for pid in store.sorted_ids(g))

    snap = {i: group_bytes(f"decoder{i}") for i in range(3)}
    for t in range(1, 101):
        rng_t = iteration_rng(9, t)
        i = sample_task(sampler, rng_t)
        x, y = sample_batch(tasks[i], "train", 4, rng_t)
        train_step(enc, decs, store, states, i, (x, y))
        for j in range(3):
            current = group_bytes(f"decoder{j}")
            if j == i:
                snap[j] = current
            else:
                assert current == snap[j], \
                    f"iteration {t}: decoder {j} changed while task {i} was sampled"
    _report(4, "non-sampled decoder bytes identical across 100 iterations, k=3")


# ---------------------------------------------------------------------------
# 5. PQ oracle equivalence

def test_criterion_5_pq_oracle_equivalence():
    t0 = time.monotonic()

    for seed in range(200):
        rng = np.random.default_rng(seed)
        pred = test_metrics._random_mask(rng)
        gt = test_metrics._random_mask(rng)
        tp = panoptic_quality(pred, gt).matches
        assert {(p, g) for _, p, g, _ in tp} == test_metrics._exhaustive_match(pred, gt)

    ids = np.zeros((8, 8), dtype=np.int32)
    ids[1:4, 1:4] = 1
    perfect = test_metrics._mask(ids)
    assert panoptic_quality(perfect, perfect).pq[0] == 1.0

    empty = test_metrics._mask(np.zeros((8, 8), dtype=np.int32))
    assert panoptic_quality(empty, perfect).pq[0] == 0.0

    gt = np.zeros((4, 8), dtype=np.int32)
    gt[0, 0:4] = 1
    pred = np.zeros((4, 8), dtype=np.int32)
    pred[0, 1:5] = 1
    pred[3, 0:3] = 2
    rep = panoptic_quality(test_metrics._mask(pred), test_metrics._mask(gt))
    assert rep.pq[0] == pytest.approx(0.4, abs=5e-16)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"PQ oracle took {elapsed:.1f}s"
    _report(5, f"200 random masks match exhaustive matching; fixtures give "
               f"PQ 1/0/0.4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end MTL run and its diagnostics

# every key of the end-to-end run's config but out_dir (tools/samebytes.py runs it too)
CRITERION_6_CONFIG = {"seed": 11, "iterations": 5000, "batch_size": 8, "alpha": "uniform",
                      "checkpoint_every": 2500, "diagnostics": "exact"}


@pytest.fixture(scope="module")
def mtl_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mtl_e2e")
    out = root / "run"
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({**CRITERION_6_CONFIG, "out_dir": str(out)}))
    assert main(["generate", "--config", str(cfg_path), "--no-timestamp"]) == 0
    t0 = time.monotonic()
    assert main(["train", "--config", str(cfg_path), "--no-timestamp"]) == 0
    train_seconds = time.monotonic() - t0
    assert main(["eval", "--config", str(cfg_path), "--no-timestamp"]) == 0
    return SimpleNamespace(cfg=cfg_path, out=out, train_seconds=train_seconds)


def test_criterion_6_end_to_end_default_suite(mtl_run):
    assert mtl_run.train_seconds <= 600.0, \
        f"training took {mtl_run.train_seconds:.0f}s, budget is 600s"

    results = _rows(mtl_run.out / "results.csv")
    assert len(results) == 11
    for row in results:
        value = float(row["value"])
        if row["metric"] == "accuracy":
            assert value >= 0.85, f"{row['name']}: accuracy {value:.3f} < 0.85"
        else:
            assert value >= 0.6, f"{row['name']}: PQ {value:.3f} < 0.6"

    # determinism: a second same-seed run reproduces the log and checkpoint bytes
    log_bytes = (mtl_run.out / "train_log.csv").read_bytes()
    ck_bytes = (mtl_run.out / "checkpoint_final.mtlc").read_bytes()
    trace_bytes = (mtl_run.out / "grad_trace.mtlg").read_bytes()
    assert main(["train", "--config", str(mtl_run.cfg), "--no-timestamp"]) == 0
    assert (mtl_run.out / "train_log.csv").read_bytes() == log_bytes
    assert (mtl_run.out / "checkpoint_final.mtlc").read_bytes() == ck_bytes
    assert (mtl_run.out / "grad_trace.mtlg").read_bytes() == trace_bytes

    worst = min(float(r["value"]) for r in results)
    _report(6, f"11 tasks above thresholds (worst {worst:.3f}), "
               f"{mtl_run.train_seconds:.0f}s train, bit-identical rerun")


def test_criterion_7_diagnostics_shapes(mtl_run):
    assert main(["diagnose", "--config", str(mtl_run.cfg), "--no-timestamp"]) == 0
    out = mtl_run.out / "diagnostics"

    smoothed = _rows(out / "loss_smoothed.csv")
    assert len(smoothed) == 5000  # window-10 series aligned to all T iterations

    consec = _rows(out / "consecutive_cosine.csv")
    assert len(consec) >= 2
    assert all(0.0 <= float(r["cos_distance"]) <= 2.0 for r in consec)

    # every consecutively sampled (prev, curr) pair must be present in the matrix
    log = _rows(mtl_run.out / "train_log.csv")
    seq = [int(r["task_id"]) for r in log]
    sampled_pairs = set(zip(seq, seq[1:]))
    matrix = {(int(r["task_prev"]), int(r["task_curr"])): r
              for r in _rows(out / "pairwise_matrix.csv")}
    assert len(matrix) == 11 * 11
    for pair in sampled_pairs:
        row = matrix[pair]
        assert int(row["samples"]) > 0
        assert 0.0 <= float(row["mean_cos_distance"]) <= 2.0
    _report(7, f"smoothed series length 5000, cosine series in [0,2], "
               f"{len(sampled_pairs)} sampled cells all present in the 11x11 matrix")


# ---------------------------------------------------------------------------
# 8. concentration claim

def test_criterion_8_concentration_claim():
    t0 = time.monotonic()
    dims = [4, 16, 100, 1024, 10000]
    rng = np.random.Generator(np.random.SFC64(12345))
    results = concentration_experiment(dims, 20_000, rng)
    stds = np.array([r.std for r in results])
    slope = np.polyfit(np.log(dims), np.log(stds), 1)[0]
    assert -0.55 <= slope <= -0.45, f"log-log slope {slope:.3f} outside [-0.55,-0.45]"
    d100 = stds[dims.index(100)]
    assert abs(d100 - 0.1) <= 0.005, f"std(d=100) = {d100:.4f} outside 0.1 +- 0.005"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"concentration experiment took {elapsed:.1f}s"
    _report(8, f"slope {slope:.3f}, std(d=100) {d100:.4f}, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. resumability

def test_criterion_9_resumability(tmp_path):
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    base = {
        "seed": 21,
        "out_dir": str(out),
        "suite": {"tasks": [
            {"kind": "classification", "num_classes": 3, "n_train": 24, "n_eval": 8,
             "difficulty": 0.3, "input_shape": [3, 16, 16]},
            {"kind": "binary-segmentation", "image_size": 16, "max_instances": 2,
             "n_train": 24, "n_eval": 8},
        ]},
        "encoder": [{"type": "conv", "filters": 6, "kernel": 3, "padding": 1},
                    {"type": "relu"}, {"type": "gap"}],
        "iterations": 200,
        "batch_size": 4,
        "checkpoint_every": 100,
        "diagnostics": "exact",
    }
    cfg_path.write_text(json.dumps(base))
    assert main(["generate", "--config", str(cfg_path), "--no-timestamp"]) == 0
    assert main(["train", "--config", str(cfg_path), "--no-timestamp"]) == 0
    record = ("checkpoint_final.mtlc", "train_log.csv", "grad_trace.mtlg")
    straight = [(out / name).read_bytes() for name in record]
    shutil.rmtree(out / "data")  # regenerate to prove no hidden state carries over
    assert main(["generate", "--config", str(cfg_path), "--no-timestamp"]) == 0

    base["iterations"] = 100
    cfg_path.write_text(json.dumps(base))
    assert main(["train", "--config", str(cfg_path), "--no-timestamp"]) == 0

    base["iterations"] = 200
    cfg_path.write_text(json.dumps(base))
    assert main(["train", "--config", str(cfg_path), "--no-timestamp", "--resume"]) == 0
    for name, before in zip(record, straight):
        assert (out / name).read_bytes() == before, \
            f"resumed run's {name} differs from the uninterrupted run's"
    _report(9, "checkpoint at T/2 resumes to bit-identical final parameters, "
               "log and gradient trace")

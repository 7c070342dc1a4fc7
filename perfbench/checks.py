"""Correctness checks on one run's outputs, computed apart from mtlab.

Every check compares an output file with an independent computation or a
known property, never with a stored copy of an earlier output:

- eval:          accuracy and PQ recomputed from checkpoint_final.mtlc with
                 this module's numpy forward pass and brute-force IoU matching
- gradients:     mtlab's reverse-mode gradients against central differences
                 of this module's numpy loss, a few coordinates per tensor
- adam_steps:    each decoder group's Adam step count equals its task's row
                 count in train_log.csv, the encoder's equals the iterations
- sampler:       task counts pass a lenient chi-square test against alpha
- trace:         one trace row per iteration, with the logged task
- cosines:       consecutive cosines recomputed from the trace vectors
- rolling_mean:  the smoothed loss recomputed by cumulative sum
- pairwise:      matrix sample counts equal the task transitions in the log,
                 values the mean of each cell's last WINDOW distances
- concentration: std * sqrt(d) near 1 and a log-log slope near -1/2
- floors:        each task's eval score and their mean above the workload's floors
- same_bytes:    every round of one seed writes the same log, checkpoint,
                 trace and results bytes
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage, stats

import mtlfiles

METRIC_TOL = 1e-6      # results.csv against the recomputed accuracy / PQ
DIAG_TOL = 1e-9        # diagnostics CSVs against values recomputed from trace / log
LOSS_RTOL = 1e-9       # mtlab's loss value against the numpy loss
FD_STEPS = (1e-6, 1e-7)  # a mismatch must hold at both: one step may cross a relu kink
FD_RTOL = 1e-4         # relative to max(|gradient|, rms of the tensor's gradient)
FD_LOSS_ULP = 4e-15    # rounding of a loss near 1; adds FD_LOSS_ULP / h to the tolerance
FD_COORDS = 3
FD_BATCH = 4           # training examples per task in the gradient check
CHUNK = 64             # eval images per batch of the numpy forward pass
CHI2_MIN_P = 1e-6
CONC_STD_TOL = 0.05    # |std * sqrt(d) - 1|
CONC_SLOPE = (-0.55, -0.45)
WINDOW = 10            # `mtlab diagnose` default window
SKETCH_DIM = 4096
FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)


class CheckFailure(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# run outputs

@dataclass
class RunOutputs:
    config: dict
    datasets: list[dict]
    checkpoint: dict
    log: dict                 # "t", "task", "loss" arrays from train_log.csv
    results: list[dict]
    trace: dict
    cosines: list[dict]
    smoothed: list[dict]
    pairwise: list[dict]
    concentration: list[dict] | None
    dataset_paths: list[Path]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {pid: p[0] for g in self.checkpoint["groups"].values()
                for pid, p in g["params"].items()}


def load_outputs(run_dir, config: dict) -> RunOutputs:
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "data" / "manifest.json").read_text())
    paths = [run_dir / "data" / e["path"] for e in manifest["tasks"]]
    datasets = [mtlfiles.read_dataset(p) for p in paths]
    rows = mtlfiles.read_csv(run_dir / "train_log.csv")
    log = {"t": np.array([int(r["t"]) for r in rows]),
           "task": np.array([int(r["task_id"]) for r in rows]),
           "loss": np.array([float(r["loss"]) for r in rows])}
    diag = run_dir / "diagnostics"
    conc = run_dir / "concentration.csv"
    return RunOutputs(
        config=config, datasets=datasets,
        checkpoint=mtlfiles.read_checkpoint(run_dir / "checkpoint_final.mtlc"),
        log=log, results=mtlfiles.read_csv(run_dir / "results.csv"),
        trace=mtlfiles.read_trace(run_dir / "grad_trace.mtlg"),
        cosines=mtlfiles.read_csv(diag / "consecutive_cosine.csv"),
        smoothed=mtlfiles.read_csv(diag / "loss_smoothed.csv"),
        pairwise=mtlfiles.read_csv(diag / "pairwise_matrix.csv"),
        concentration=mtlfiles.read_csv(conc) if conc.exists() else None,
        dataset_paths=paths)


# ---------------------------------------------------------------------------
# numpy reference model

def conv2d(x, w, b, stride, padding):
    """Cross-correlation as a sum over kernel offsets (no im2col)."""
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (H + 2 * padding - kh) // stride + 1
    wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, ho, wo, F))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                        j:j + stride * (wo - 1) + 1:stride]
            out += np.tensordot(window, w[:, :, i, j], axes=([1], [1]))
    return out.transpose(0, 3, 1, 2) + b.reshape(1, F, 1, 1)


def encoder_forward(params, spec, x, keep_map: bool):
    h = x
    for i, layer in enumerate(spec):
        kind = layer["type"]
        if kind == "conv":
            h = conv2d(h, params[f"encoder/layer{i:02d}.weight"],
                       params[f"encoder/layer{i:02d}.bias"],
                       layer.get("stride", 1), layer.get("padding", 0))
        elif kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind == "gap":
            if keep_map:
                return h
            h = h.mean(axis=(2, 3))
        else:
            raise ValueError(f"the reference model has no {kind!r} layer")
    return h


def task_logits(params, spec, ds: dict, x):
    tid = ds["task_id"]
    if ds["kind"] == "classification":
        feats = encoder_forward(params, spec, x, keep_map=False)
        return feats @ params[f"decoder{tid}/head.weight"] + params[f"decoder{tid}/head.bias"]
    fmap = encoder_forward(params, spec, x, keep_map=True)
    fmap = fmap.repeat(x.shape[2] // fmap.shape[2], axis=2)
    fmap = fmap.repeat(x.shape[3] // fmap.shape[3], axis=3)
    w = params[f"decoder{tid}/proj.weight"][:, :, 0, 0]
    return np.einsum("bchw,kc->bkhw", fmap, w) + params[f"decoder{tid}/proj.bias"][None]


def class_map(ds: dict, i: int) -> np.ndarray:
    lut = np.concatenate([[0], ds["class_tables"][i]])
    return lut[ds["id_maps"][i]]


def batch_targets(ds: dict, idx):
    if ds["kind"] == "instance-segmentation":
        return np.stack([class_map(ds, i) for i in idx])
    return ds["targets"][idx]


def task_loss(logits, ds: dict, y) -> float:
    if ds["kind"] == "binary-segmentation":
        z, t = logits, y[:, None].astype(np.float64)
        return float((np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())
    m = logits.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
    picked = np.take_along_axis(logits, y.astype(np.int64)[:, None], axis=1)[:, 0]
    return float((lse - picked).mean())


# ---------------------------------------------------------------------------
# panoptic quality by brute force

def segments(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(class, pixel mask) for each 4-connected component of each nonzero label."""
    out = []
    for c in np.unique(labels):
        if c == 0:
            continue
        comp, n = ndimage.label(labels == c, structure=FOUR_CONNECTED)
        out += [(int(c), comp == j) for j in range(1, n + 1)]
    return out


def panoptic_quality(pred, gt, class_aware: bool) -> float:
    """Mean over ground-truth classes (one pooled class if not class-aware)."""
    classes = sorted({c for c, _ in gt}) if class_aware else [None]
    scores = []
    for cls in classes:
        p = [m for c, m in pred if cls is None or c == cls]
        g = [m for c, m in gt if cls is None or c == cls]
        ious = [(a & b).sum() / (a | b).sum() for a in p for b in g]
        matched = [v for v in ious if v > 0.5]
        tp, fp, fn = len(matched), len(p) - len(matched), len(g) - len(matched)
        denom = tp + 0.5 * fp + 0.5 * fn
        rq = tp / denom if denom else 0.0
        sq = sum(matched) / tp if tp else 0.0
        scores.append(sq * rq)
    return float(np.mean(scores)) if scores else 0.0


def recompute_metric(params, spec, ds: dict) -> tuple[str, float]:
    idx = np.flatnonzero(ds["split"] == 1)
    logits = np.concatenate([task_logits(params, spec, ds, ds["inputs"][idx[s:s + CHUNK]])
                             for s in range(0, len(idx), CHUNK)])
    if ds["kind"] == "classification":
        return "accuracy", float(np.mean(logits.argmax(axis=1) == ds["targets"][idx]))
    pqs = []
    for row, i in enumerate(idx):
        if ds["kind"] == "binary-segmentation":
            pred = segments((logits[row, 0] >= 0).astype(int))
            gt = segments((ds["targets"][i] > 0.5).astype(int))
            pqs.append(panoptic_quality(pred, gt, class_aware=False))
        else:
            pred = segments(logits[row].argmax(axis=0))
            ids, table = ds["id_maps"][i], ds["class_tables"][i]
            gt = [(int(table[k - 1]), ids == k) for k in range(1, len(table) + 1)
                  if (ids == k).any()]
            pqs.append(panoptic_quality(pred, gt, class_aware=True))
    return "PQ", float(np.mean(pqs))


# ---------------------------------------------------------------------------
# checks

def check_eval(out: RunOutputs):
    _require(len(out.results) == len(out.datasets),
             f"results.csv has {len(out.results)} rows for {len(out.datasets)} tasks")
    params = out.params
    for row, ds in zip(out.results, out.datasets):
        metric, value = recompute_metric(params, out.config["encoder"], ds)
        _require(row["metric"] == metric and int(row["task_id"]) == ds["task_id"],
                 f"task {ds['task_id']}: results.csv row {row} is not its {metric}")
        _require(abs(float(row["value"]) - value) <= METRIC_TOL,
                 f"task {ds['task_id']}: results.csv {metric} {row['value']} but "
                 f"recomputed {value!r}")


class ProgramModel:
    """mtlab's own models loaded with the run's final parameters."""

    def __init__(self, out: RunOutputs):
        from mtlab.autodiff import Tensor
        from mtlab.config import parse_encoder_spec
        from mtlab.model import ParamStore, build_encoder
        from mtlab.tasks import load_dataset
        from mtlab.trainer import build_decoders
        tasks = [load_dataset(p) for p in out.dataset_paths]
        rng = np.random.default_rng(0)
        self.store = ParamStore()
        self.encoder = build_encoder(parse_encoder_spec(out.config["encoder"]),
                                     tasks[0].spec.input_shape, self.store, rng)
        self.decoders = build_decoders(tasks, self.encoder, self.store, rng)
        for pid, theta in out.params.items():
            self.store.set(pid, Tensor(theta))

    def gradients(self, task: int, x, y) -> tuple[float, dict[str, np.ndarray]]:
        from mtlab import autodiff as ad
        from mtlab.model import forward_task_logits
        dec = self.decoders[task]
        logits = forward_task_logits(self.encoder, dec, ad.Tensor(x), ad.Graph())
        if dec.kind == "segmentation" and dec.nonlinearity == "sigmoid":
            loss = ad.binary_cross_entropy(logits, y[:, None].astype(np.float64))
        else:
            loss = ad.cross_entropy(logits, y.astype(np.int64))
        return loss.item(), {pid: g.data for pid, g in ad.backward(loss).items()}


def _central_difference(params, pid, coord, h, loss) -> float:
    flat = params[pid].reshape(-1)
    keep = flat[coord]
    flat[coord] = keep + h
    up = loss(params)
    flat[coord] = keep - h
    down = loss(params)
    flat[coord] = keep
    return (up - down) / (2 * h)


def check_gradients(out: RunOutputs, gradients=None):
    """`gradients(task, x, y) -> (loss, {param id: gradient})`, mtlab's by default."""
    gradients = gradients or ProgramModel(out).gradients
    params = {pid: p.copy() for pid, p in out.params.items()}
    spec = out.config["encoder"]
    first_seg = next((k for k, ds in enumerate(out.datasets)
                      if ds["kind"] != "classification"), None)
    pick = np.random.default_rng(12345)
    for k, ds in enumerate(out.datasets):
        idx = np.flatnonzero(ds["split"] == 0)[:FD_BATCH]
        x, y = ds["inputs"][idx], batch_targets(ds, idx)
        loss, grads = gradients(k, x, y)
        loss_at = lambda p: task_loss(task_logits(p, spec, ds, x), ds, y)  # noqa: E731
        ref = loss_at(params)
        _require(abs(loss - ref) <= LOSS_RTOL * max(1.0, abs(ref)),
                 f"task {k}: mtlab loss {loss!r} but numpy loss {ref!r}")
        groups = [f"decoder{ds['task_id']}"] + (["encoder"] if k in (0, first_seg) else [])
        for pid in sorted(p for p in params if p.split("/")[0] in groups):
            _require(pid in grads, f"task {k}: no gradient for {pid}")
            g = grads[pid]
            scale = max(float(np.sqrt(np.mean(g * g))), 1e-12)
            coords = {int(np.argmax(np.abs(g)))} | set(
                pick.integers(0, g.size, FD_COORDS - 1).tolist())
            for c in sorted(coords):
                got = float(g.reshape(-1)[c])
                fds = [_central_difference(params, pid, c, h, loss_at) for h in FD_STEPS]
                _require(any(abs(got - fd) <= FD_RTOL * max(abs(got), scale) + FD_LOSS_ULP / h
                             for fd, h in zip(fds, FD_STEPS)),
                         f"task {k}: d loss / d {pid}[{c}] is {got!r} in mtlab, "
                         f"{fds} by central differences")


def check_adam_steps(out: RunOutputs):
    groups = out.checkpoint["groups"]
    iterations = out.config["iterations"]
    _require(out.checkpoint["t"] == iterations and out.checkpoint["seed"] == out.config["seed"],
             f"checkpoint_final is (seed {out.checkpoint['seed']}, t {out.checkpoint['t']}), "
             f"expected ({out.config['seed']}, {iterations})")
    _require(groups["encoder"]["t"] == iterations,
             f"encoder Adam took {groups['encoder']['t']} steps in {iterations} iterations")
    counts = np.bincount(out.log["task"], minlength=len(out.datasets))
    for ds in out.datasets:
        steps = groups[f"decoder{ds['task_id']}"]["t"]
        _require(steps == counts[ds["task_id"]],
                 f"decoder{ds['task_id']} Adam took {steps} steps but the log "
                 f"samples task {ds['task_id']} {counts[ds['task_id']]} times")


def _alpha(out: RunOutputs) -> np.ndarray:
    a = out.config["alpha"]
    k = len(out.datasets)
    a = np.full(k, 1.0 / k) if a == "uniform" else np.asarray(a, dtype=np.float64)
    return a / a.sum()


def check_sampler(out: RunOutputs):
    t = out.log["t"]
    _require(np.array_equal(t, np.arange(1, out.config["iterations"] + 1)),
             f"train_log.csv rows are not iterations 1..{out.config['iterations']}")
    counts = np.bincount(out.log["task"], minlength=len(out.datasets))
    p = stats.chisquare(counts, _alpha(out) * counts.sum()).pvalue
    _require(p >= CHI2_MIN_P, f"task counts {counts.tolist()} fit alpha with p = {p:.2e}")


def check_trace(out: RunOutputs):
    tr = out.trace
    dim = sum(p[0].size for p in out.checkpoint["groups"]["encoder"]["params"].values())
    stored = SKETCH_DIM if tr["mode"] == "sketch" and dim > SKETCH_DIM else dim
    _require(tr["mode"] == out.config["diagnostics"] and tr["dim"] == dim
             and tr["vecs"].shape == (len(tr["t"]), stored),
             f"trace is {tr['mode']} with vectors {tr['vecs'].shape} for a "
             f"{dim}-parameter encoder")
    _require(np.array_equal(tr["t"], out.log["t"]) and np.array_equal(tr["task"], out.log["task"]),
             "trace iterations or tasks differ from train_log.csv")


def _cosines(vecs: np.ndarray):
    """(index of the later entry, similarity) for consecutive nonzero pairs."""
    norms = np.linalg.norm(vecs, axis=1)
    later = np.flatnonzero((norms[1:] > 0) & (norms[:-1] > 0)) + 1
    dots = np.einsum("ij,ij->i", vecs[later - 1], vecs[later])
    return later, dots / (norms[later - 1] * norms[later])


def check_cosines(out: RunOutputs):
    later, sims = _cosines(out.trace["vecs"])
    rows = out.cosines
    _require(len(rows) == len(later),
             f"consecutive_cosine.csv has {len(rows)} rows, the trace gives {len(later)}")
    for row, i, sim in zip(rows, later, sims):
        key = (int(row["t"]), int(row["task_prev"]), int(row["task_curr"]))
        want = (int(out.trace["t"][i]), int(out.trace["task"][i - 1]), int(out.trace["task"][i]))
        _require(key == want, f"consecutive_cosine.csv row {key}, trace gives {want}")
        _require(abs(float(row["cos_similarity"]) - sim) <= DIAG_TOL
                 and abs(float(row["cos_distance"]) - (1 - sim)) <= DIAG_TOL,
                 f"t={key[0]}: cosine {row['cos_similarity']} but the trace gives {sim!r}")


def check_rolling_mean(out: RunOutputs):
    loss = out.log["loss"]
    c = np.concatenate([[0.0], np.cumsum(loss)])
    i = np.arange(len(loss))
    lo = np.maximum(0, i - WINDOW + 1)
    want = (c[i + 1] - c[lo]) / (i + 1 - lo)
    got = np.array([float(r["loss_smoothed"]) for r in out.smoothed])
    _require(got.shape == want.shape, f"loss_smoothed.csv has {got.size} rows for {loss.size}")
    err = np.abs(got - want)
    _require(err.max() <= DIAG_TOL, f"smoothed loss off by {err.max():.3e} at row "
                                    f"{int(err.argmax())}")


def check_pairwise(out: RunOutputs):
    k = len(out.datasets)
    later, sims = _cosines(out.trace["vecs"])
    tasks = out.trace["task"]
    dists: dict[tuple[int, int], list[float]] = {}
    for i, s in zip(later, sims):
        dists.setdefault((int(tasks[i - 1]), int(tasks[i])), []).append(1.0 - s)
    transitions = np.zeros((k, k), dtype=np.int64)
    np.add.at(transitions, (out.log["task"][:-1], out.log["task"][1:]), 1)
    _require(len(out.pairwise) == k * k, f"pairwise_matrix.csv has {len(out.pairwise)} rows")
    for row in out.pairwise:
        i, j, n = int(row["task_prev"]), int(row["task_curr"]), int(row["samples"])
        _require(n == transitions[i, j],
                 f"cell ({i},{j}) has {n} samples, the log has {transitions[i, j]} transitions")
        cell = dists.get((i, j), [])
        if not cell:
            _require(row["mean_cos_distance"] == "", f"cell ({i},{j}) has no pairs but a value")
            continue
        want = float(np.mean(cell[-WINDOW:]))
        _require(abs(float(row["mean_cos_distance"]) - want) <= DIAG_TOL,
                 f"cell ({i},{j}) mean distance {row['mean_cos_distance']}, recomputed {want!r}")


def check_concentration(out: RunOutputs, pairs: int):
    rows = out.concentration
    _require(rows, "concentration.csv is missing or empty")
    dims = np.array([int(r["dim"]) for r in rows], dtype=np.float64)
    std = np.array([float(r["std"]) for r in rows])
    mean = np.array([float(r["mean"]) for r in rows])
    scaled = std * np.sqrt(dims)
    _require(np.all(np.abs(scaled - 1) <= CONC_STD_TOL),
             f"std * sqrt(d) = {np.round(scaled, 4).tolist()}, not within "
             f"{CONC_STD_TOL} of 1")
    _require(np.all(np.abs(mean) <= 5 * std / math.sqrt(pairs)),
             f"mean cosines {mean.tolist()} are not centred on 0")
    slope = np.polyfit(np.log(dims), np.log(std), 1)[0]
    _require(CONC_SLOPE[0] <= slope <= CONC_SLOPE[1], f"log-log slope {slope:.4f}")


def check_floors(out: RunOutputs, floors: dict):
    """`floors` maps "accuracy" / "PQ" to a per-task floor and "mean" to one for
    the mean over tasks; a metric without a floor is not checked per task."""
    values = [float(row["value"]) for row in out.results]
    for row, value in zip(out.results, values):
        floor = floors.get(row["metric"], -math.inf)
        _require(value >= floor, f"task {row['task_id']} {row['name']}: {row['metric']} "
                                 f"{row['value']} below the floor {floor}")
    mean = float(np.mean(values))
    _require(mean >= floors["mean"], f"mean eval score {mean!r} below the floor {floors['mean']}")


def check_same_bytes(digests: list[dict]):
    """Rounds of one seed must write identical files (one digest dict per round)."""
    distinct = {tuple(sorted(d.items())) for d in digests}
    _require(len(distinct) == 1,
             f"{len(distinct)} different outputs from {len(digests)} rounds of one seed")


def run_checks(out: RunOutputs, floors: dict, concentration_pairs: int | None):
    """[(check name, failure message or None)] for every check that applies."""
    checks = [("eval", check_eval), ("gradients", check_gradients),
              ("adam_steps", check_adam_steps), ("sampler", check_sampler),
              ("trace", check_trace), ("cosines", check_cosines),
              ("rolling_mean", check_rolling_mean), ("pairwise", check_pairwise),
              ("floors", lambda o: check_floors(o, floors))]
    if concentration_pairs:
        checks.append(("concentration", lambda o: check_concentration(o, concentration_pairs)))
    report = []
    for name, fn in checks:
        try:
            fn(out)
            report.append((name, None))
        except CheckFailure as exc:
            report.append((name, str(exc)))
    return report

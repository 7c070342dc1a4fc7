"""Experiment runner: generate data, train, evaluate, diagnose, score masks.

Every command is deterministic given config + seed; the only
non-deterministic output byte is an optional leading timestamp comment in
CSV files, disabled with --no-timestamp. Exit codes: 0 success, 2 config
error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import gc
import json
import sys
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import (MIN_DIM, MIN_PAIRS, concentration_experiment, consecutive_trace,
                          pairwise_matrix)
from .metrics import (MaskError, accuracy, connected_components,
                      instances_from_class_map, panoptic_quality, rolling_mean)
from .model import ModelSpecError, ParamStore, build_encoder, forward_task
from .tasks import (KIND_BINARY_SEG, KIND_CLASSIFICATION, DatasetHeader, TaskDataset,
                    _task_seed, gen_classification_task, gen_segmentation_task, load_dataset,
                    load_mask, read_header, save_dataset, suite_spec)
from .tensorio import FileFormatError, replacing
from .trainer import (FINAL_CHECKPOINT_FILE, LOG_FILE, TRACE_FILE, Checkpoint, RunRecord,
                      SamplerConfig, TrainConfig, apply_checkpoint, build_decoders,
                      init_adam_states, load_checkpoint, load_trace, new_log,
                      save_checkpoint, save_trace, train)


class DataError(RuntimeError):
    pass


EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_RUNTIME = 0, 2, 3, 4


def set_malloc_policy() -> None:
    """Keep freed memory in the heap for the next training step to reuse.

    Each step frees its tape (activations and im2col columns, several MB)
    when it returns. Under glibc's dynamic thresholds that memory went back
    to the kernel every step and the next step page-faulted it in again: on
    the two-conv stride-2 encoder, 15x the minor faults, 9x the system time
    and a quarter less throughput than when the tapes waited for the cyclic
    garbage collector. Serving blocks up to 32 MiB from the heap
    and trimming it only past 256 MiB of free top stops that. Both must be
    set: setting either one turns off the dynamic adjustment of the other,
    which faulted more still. Does nothing where the C library has no
    `mallopt` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 256 << 20)


def _csv_writer(path: Path, header: list[str], rows, timestamp: bool):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# suite construction

def build_suite(cfg: ExperimentConfig) -> Iterator[TaskDataset]:
    """The configured suite's datasets, generated one at a time as it is iterated."""
    for i, task in enumerate(cfg.suite):
        seed = _task_seed(cfg.seed, i)
        if task["kind"] == KIND_CLASSIFICATION:
            yield gen_classification_task(
                task["num_classes"], task["input_shape"], task["n_train"], task["n_eval"],
                task["difficulty"], seed, task_id=i, name=task["name"])
        else:
            yield gen_segmentation_task(
                task["kind"], task["image_size"], task["max_instances"], task["num_classes"],
                task["n_train"], task["n_eval"], seed, task_id=i, name=task["name"])


def _manifest_files(cfg: ExperimentConfig) -> list[tuple[str, Path]]:
    """(name as the manifest gives it, path) of each dataset file, in its order."""
    if not cfg.manifest_path.exists():
        raise DataError(f"no dataset manifest at {cfg.manifest_path}; "
                        f"run 'mtlab generate' first")
    try:
        with open(cfg.manifest_path) as fh:
            files = [(entry["path"], cfg.data_dir / entry["path"])
                     for entry in json.load(fh)["tasks"]]
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {cfg.manifest_path} is not valid JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise DataError(f"manifest {cfg.manifest_path} needs a 'tasks' list of entries "
                        f"with a 'path': {exc!r}") from None
    for _, path in files:
        if not path.exists():
            raise DataError(f"dataset file {path} listed in manifest is missing")
    return files


def _check_suite(cfg: ExperimentConfig, files: list[tuple[str, Path]],
                 heads: list[DatasetHeader]) -> None:
    """Each dataset file must hold the task its config suite entry generates: the
    same kind, name, classes, input shape, split sizes and seed, and so the same
    task id at the same index. Data generated from another config or edited by
    hand is a DataError naming the file and the first key that differs."""
    if len(files) != len(cfg.suite):
        raise DataError(f"manifest {cfg.manifest_path} lists {len(files)} datasets but "
                        f"the config's suite has {len(cfg.suite)} tasks")
    for i, ((_, path), head, entry) in enumerate(zip(files, heads, cfg.suite)):
        spec = suite_spec(entry, i)
        n_train, n_eval = head.split_sizes()
        for key, have, want in (
                *((key, getattr(head.spec, key), getattr(spec, key)) for key
                  in ("task_id", "kind", "name", "num_classes", "input_shape")),
                ("n_train", n_train, entry["n_train"]), ("n_eval", n_eval, entry["n_eval"]),
                ("seed", head.seed, _task_seed(cfg.seed, i))):
            if have != want:
                raise DataError(f"dataset file {path} does not hold suite task {i} of the "
                                f"config: its {key} is {have!r}, the config's {want!r}")


def _load_manifest_tasks(cfg: ExperimentConfig, split: str | None = None) -> dict:
    """Every dataset of the manifest by its name there, whole or only the rows of
    `split`, each checked against its config suite entry once its bytes are CRC-checked."""
    files = _manifest_files(cfg)
    tasks = [load_dataset(path, split=split) for _, path in files]
    _check_suite(cfg, files, [ds.header for ds in tasks])
    return {name: ds for (name, _), ds in zip(files, tasks)}


def _build_models(cfg: ExperimentConfig, tasks):
    """Shared encoder, decoders and Adam states for `tasks`, datasets or dataset
    headers: only their specs are read."""
    store = ParamStore()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    shape = tasks[0].spec.input_shape
    try:
        encoder = build_encoder(cfg.encoder, shape, store, rng)
        decoders = build_decoders(tasks, encoder, store, rng)
    except ModelSpecError as exc:
        raise ConfigError(f"encoder does not fit the suite's input shape {shape}: "
                          f"{exc}") from None
    states = init_adam_states(store, **cfg.adam)
    return store, encoder, decoders, states


def _sampler(cfg: ExperimentConfig, k: int) -> SamplerConfig:
    """The sampler over k tasks; an alpha list has k entries, as load_config
    checks it against the suite and `_check_suite` the suite against the data."""
    if cfg.alpha == "uniform":
        return SamplerConfig.uniform(k)
    return SamplerConfig(np.asarray(cfg.alpha, dtype=np.float64))


# ---------------------------------------------------------------------------
# evaluation

# Eval images per forward and scoring pass. It sets speed as well as memory:
# larger chunks spill the activations out of cache (on a 2-vCPU EPYC with one
# BLAS thread, seg_eval's eval throughput peaked at 16-32 and was 30% lower
# at 256).
EVAL_CHUNK = 16


def evaluate_task(encoder, decoder, ds: TaskDataset) -> tuple[str, float]:
    """Eval-split metric for one task, untaped: accuracy or mean panoptic quality.

    The split goes through the model EVAL_CHUNK images at a time, and each
    chunk's segmentation is labeled and scored as one stack; every image's
    prediction and score are the same as when it is run and scored alone.
    """
    idx = ds.indices("eval")
    labels, pqs = [], []
    for start in range(0, len(idx), EVAL_CHUNK):
        chunk = idx[start:start + EVAL_CHUNK]
        pred = forward_task(encoder, decoder, Tensor(ds.inputs[chunk]), None).data
        if ds.spec.kind == KIND_CLASSIFICATION:
            labels.append(pred.argmax(axis=1))
            continue
        if ds.spec.kind == KIND_BINARY_SEG:
            rep = panoptic_quality(connected_components(pred[:, 0] >= 0.5), ds.gt_masks(chunk))
        else:
            rep = panoptic_quality(instances_from_class_map(pred.argmax(axis=1)),
                                   ds.gt_masks(chunk), class_aware=True)
        pqs.append(rep.pq)
    if ds.spec.kind == KIND_CLASSIFICATION:
        return "accuracy", accuracy(np.concatenate(labels), ds.targets[idx])
    return "PQ", float(np.mean(np.concatenate(pqs)))


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: ExperimentConfig, timestamp: bool) -> int:
    cfg.data_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ds in build_suite(cfg):
        fname = f"task_{ds.spec.task_id:02d}_{ds.spec.name}.mtld"
        save_dataset(cfg.data_dir / fname, ds)
        entries.append({
            "path": fname,
            "task_id": ds.spec.task_id,
            "name": ds.spec.name,
            "kind": ds.spec.kind,
            "num_classes": ds.spec.num_classes,
            "input_shape": list(ds.spec.input_shape),
            "seed": ds.seed,
            "n_train": int(len(ds.indices("train"))),
            "n_eval": int(len(ds.indices("eval"))),
        })
        del ds  # so the next task is generated with no other dataset held
    manifest = {"seed": cfg.seed, "tasks": entries}
    with open(cfg.manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} dataset files and manifest to {cfg.data_dir}")
    return EXIT_OK


def _newest_slot(record: RunRecord) -> tuple[int, Checkpoint]:
    """The slot holding the latest iteration among those that read cleanly."""
    found = []
    for i, path in enumerate(record.slots):
        if not path.exists():
            continue
        try:
            ck = load_checkpoint(path)
        except FileFormatError as exc:  # torn by a save that did not finish
            print(f"skipping checkpoint slot: {exc}", file=sys.stderr)
            continue
        found.append((ck.t, i, ck))
    if not found:
        raise DataError(f"cannot resume: no checkpoint slot in {record.slots[0].parent} "
                        f"reads cleanly ({', '.join(p.name for p in record.slots)})")
    _, i, ck = max(found)
    return i, ck


# The config keys a resumed run must share with the run it continues, as that
# run's config_used.json holds them. `iterations` and `checkpoint_every` may
# change; the seed is checked against the slot.
RESUME_KEYS = ("suite", "encoder", "alpha", "batch_size", "adam", "diagnostics", "log_every")
# config_used.json's record of the datasets trained on: the CRC32 trailer of
# each dataset file, by its name in the manifest
DATASETS_KEY = "dataset_crc32"


def _check_resume_config(cfg: ExperimentConfig, path: Path, datasets: dict[str, int]) -> None:
    if not path.exists():
        raise DataError(f"cannot resume: {path} does not exist, so the config of the "
                        f"run to continue is unknown")
    try:
        used = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot resume: {path} is not valid JSON: {exc}") from None
    keys = (*RESUME_KEYS, DATASETS_KEY)
    if not isinstance(used, dict) or not set(keys) <= set(used) \
            or not isinstance(used[DATASETS_KEY], dict):
        raise DataError(f"cannot resume: {path} does not hold every key of {', '.join(keys)}")
    for key in RESUME_KEYS:
        now = json.loads(json.dumps(cfg.raw[key]))  # as the file would hold it
        if now != used[key]:
            raise ConfigError(f"cannot resume: {key} is {now!r} in the config but "
                              f"{used[key]!r} in {path}")
    for name, crc in datasets.items():
        if used[DATASETS_KEY].get(name) != crc:
            raise DataError(f"cannot resume: dataset file {cfg.data_dir / name} has CRC32 "
                            f"{crc:#010x}, not that of the file the run trained on "
                            f"({path} records {used[DATASETS_KEY].get(name)!r})")


def cmd_train(cfg: ExperimentConfig, timestamp: bool, resume: bool) -> int:
    # each task holds its train rows only, from which sample_batch draws the
    # examples it would draw from the whole dataset
    named = _load_manifest_tasks(cfg, split="train")
    datasets = {name: ds.crc32 for name, ds in named.items()}
    tasks = list(named.values())
    sampler = _sampler(cfg, len(tasks))
    store, encoder, decoders, states = _build_models(cfg, tasks)
    tcfg = TrainConfig(iterations=cfg.iterations, batch_size=cfg.batch_size,
                       seed=cfg.seed, checkpoint_every=cfg.checkpoint_every,
                       diagnostics=cfg.diagnostics)
    log = new_log(tcfg, len(tasks), store.total_size(encoder.group))
    record = RunRecord(cfg.out_dir, cfg.log_every)

    start_t = 0
    if resume:
        slot, ck = _newest_slot(record)
        path = record.slots[slot]
        if ck.seed != cfg.seed:
            raise DataError(f"cannot resume: {path} has seed {ck.seed}, the config "
                            f"seed {cfg.seed}")
        if ck.t > cfg.iterations:
            raise ConfigError(f"cannot resume: {path} is at iteration {ck.t}, past "
                              f"the configured iterations {cfg.iterations}")
        try:
            apply_checkpoint(ck, store, states)
        except ValueError as exc:
            raise DataError(f"cannot resume: {path} does not match the configured "
                            f"models: {exc}") from None
        _check_resume_config(cfg, record.config_path, datasets)
        record.resume(slot, ck.t, log.trace)
        start_t = ck.t
    else:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        record.clear()
        _csv_writer(record.log_path, ["t", "task_id", "loss"], [], timestamp)
    # written whole or not at all: a resume needs it, and this run may be one
    with replacing(record.config_path, "w") as fh:
        json.dump({**cfg.raw, DATASETS_KEY: datasets}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    log = train(tasks, encoder, decoders, store, states, sampler, tcfg,
                start_t=start_t, log=log, record=record)

    record.append_log(log)
    save_checkpoint(record.final_path, store, states, cfg.seed, cfg.iterations)
    if log.trace is not None:
        save_trace(record.trace_path, log.trace, record.journal if record.journaled else None)
    record.finish()
    print(f"trained {len(log.records)} iterations; outputs in {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, timestamp: bool) -> int:
    files = _manifest_files(cfg)
    heads = [read_header(path) for _, path in files]
    ck_path = cfg.out_dir / FINAL_CHECKPOINT_FILE
    try:
        _check_suite(cfg, files, heads)
        store, encoder, decoders, states = _build_models(cfg, heads)
        if not ck_path.exists():
            raise DataError(f"checkpoint {ck_path} does not exist")
        ck = load_checkpoint(ck_path)
        try:
            apply_checkpoint(ck, store, states)
        except ValueError as exc:
            raise DataError(f"checkpoint {ck_path} does not match the configured "
                            f"models: {exc}") from None
    except (ConfigError, DataError):
        # The suite check and the models read the headers, whose bytes are
        # CRC-checked only as each file is loaded to be scored: a corrupt header
        # is named first.
        for _, path in files:
            load_dataset(path, split="eval")
        raise

    rows = []
    for (_, path), head, dec in zip(files, heads, decoders):
        ds = load_dataset(path, split="eval")
        metric, value = evaluate_task(encoder, dec, ds)
        del ds  # so the next task loads with no other dataset held
        spec = head.spec
        rows.append((spec.task_id, spec.name, metric, _fmt(value)))
        print(f"task {spec.task_id:2d} {spec.name:24s} {metric}={value:.4f}")
    _csv_writer(cfg.out_dir / "results.csv", ["task_id", "name", "metric", "value"],
                rows, timestamp)
    return EXIT_OK


def _read_train_log(path: Path):
    if not path.exists():
        raise DataError(f"train log {path} does not exist; run 'mtlab train' first")
    ts, tasks, losses = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "t":
                continue
            try:
                t, task, loss = row
                ts.append(int(t))
                tasks.append(int(task))
                losses.append(float(loss))
            except ValueError:
                raise DataError(f"train log {path} line {reader.line_num}: expected "
                                f"integer t, integer task_id and a loss, got {row}") from None
    return np.array(ts), np.array(tasks), np.array(losses)


DIAGNOSE_WINDOW = 10  # of the smoothed loss and of the pairwise matrix's rolling means


def cmd_diagnose(cfg: ExperimentConfig, timestamp: bool) -> int:
    trace_path = cfg.out_dir / TRACE_FILE
    if not trace_path.exists():
        raise DataError(
            f"no gradient trace at {trace_path}: the run had diagnostics "
            f"disabled (config diagnostics='off')")
    trace = load_trace(trace_path)
    ts, task_ids, losses = _read_train_log(cfg.out_dir / LOG_FILE)

    out = cfg.out_dir / "diagnostics"
    smoothed = rolling_mean(losses, DIAGNOSE_WINDOW)
    _csv_writer(out / "loss_smoothed.csv", ["t", "task_id", "loss", "loss_smoothed"],
                [(int(t), int(i), _fmt(l), _fmt(s))
                 for t, i, l, s in zip(ts, task_ids, losses, smoothed)],
                timestamp)

    pairs, skipped = consecutive_trace(trace)
    _csv_writer(out / "consecutive_cosine.csv",
                ["t", "task_prev", "task_curr", "cos_similarity", "cos_distance"],
                [(p.t, p.task_prev, p.task_curr, _fmt(p.similarity), _fmt(p.distance))
                 for p in pairs],
                timestamp)

    matrix = pairwise_matrix(pairs, trace.num_tasks, window=DIAGNOSE_WINDOW)
    k = trace.num_tasks
    rows = [(i, j, _fmt(matrix.values[i, j]) if matrix.counts[i, j] else "",
             int(matrix.counts[i, j])) for i in range(k) for j in range(k)]
    _csv_writer(out / "pairwise_matrix.csv",
                ["task_prev", "task_curr", "mean_cos_distance", "samples"],
                rows, timestamp)
    print(f"diagnostics written to {out} ({len(pairs)} consecutive pairs, "
          f"{len(skipped)} skipped)")
    return EXIT_OK


def cmd_pq(pred_path: Path, gt_path: Path, class_aware: bool,
           out: Path | None, timestamp: bool) -> int:
    pred = load_mask(pred_path)
    gt = load_mask(gt_path)
    rep = panoptic_quality(pred, gt, class_aware=class_aware)
    # each file is a stack of one: its scores are element 0
    pq, sq, rq = (float(s[0]) for s in (rep.pq, rep.sq, rep.rq))
    print(f"PQ {pq!r}")
    print(f"SQ {sq!r}")
    print(f"RQ {rq!r}")
    print(f"TP {len(rep.matches)}")
    print(f"FP {len(rep.fp)}")
    print(f"FN {len(rep.fn)}")
    if rep.per_class is not None:
        for cls, scores in sorted(rep.per_class.items()):
            c_sq, c_rq, c_pq = (float(s[0]) for s in scores)
            print(f"class {cls}: PQ {c_pq!r} SQ {c_sq!r} RQ {c_rq!r}")
    if out is not None:
        _csv_writer(out / "pq_report.csv",
                    ["pq", "sq", "rq", "tp", "fp", "fn"],
                    [(_fmt(pq), _fmt(sq), _fmt(rq),
                      len(rep.matches), len(rep.fp), len(rep.fn))],
                    timestamp)
    return EXIT_OK


def cmd_concentration(cfg: ExperimentConfig, timestamp: bool, dims: list[int],
                      pairs: int) -> int:
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    stats = concentration_experiment(dims, pairs, rng)
    rows = [(s.dim, _fmt(s.mean), _fmt(s.std), _fmt(s.p05), _fmt(s.p95))
            for s in stats]
    _csv_writer(cfg.out_dir / "concentration.csv",
                ["dim", "mean", "std", "p05", "p95"], rows, timestamp)
    for s in stats:
        print(f"dim {s.dim:6d}: mean {s.mean:+.5f} std {s.std:.5f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(sp):
    sp.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--out", type=Path, default=None, help="override the output dir")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp comment from CSV outputs")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mtlab",
                                description="desk-scale multi-task learning lab")
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_ in [("generate", "generate the synthetic task suite"),
                        ("train", "run the sampled-task training loop"),
                        ("eval", "score a checkpoint on every task's eval split"),
                        ("diagnose", "emit loss/cosine diagnostics CSVs"),
                        ("concentration", "cosine concentration vs dimensionality")]:
        sp = sub.add_parser(name, help=help_)
        _add_common(sp)
        if name == "train":
            sp.add_argument("--resume", action="store_true",
                            help="continue from the newest checkpoint slot")
        if name == "concentration":
            sp.add_argument("--dims", default="4,16,100,1024,10000")
            sp.add_argument("--pairs", type=int, default=20_000)

    sp = sub.add_parser("pq", help="panoptic quality of one mask file vs another")
    sp.add_argument("pred", type=Path)
    sp.add_argument("gt", type=Path)
    sp.add_argument("--class-aware", action="store_true")
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--no-timestamp", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    set_malloc_policy()
    if not gc.get_freeze_count():
        # Start-up objects (modules, classes, functions) live as long as the
        # process; frozen, full collections skip them (walking ~41k of them
        # took about 24 ms per full collection).
        gc.freeze()
    timestamp = not args.no_timestamp
    try:
        if args.command == "pq":
            return cmd_pq(args.pred, args.gt, args.class_aware, args.out, timestamp)
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "generate":
            return cmd_generate(cfg, timestamp)
        if args.command == "train":
            return cmd_train(cfg, timestamp, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(cfg, timestamp)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, timestamp)
        if args.command == "concentration":
            dims = [d for d in args.dims.split(",") if d]
            if not dims or not all(d.strip().isdecimal() and int(d) >= MIN_DIM for d in dims):
                raise ConfigError(f"--dims must be a comma-separated list of integers >= "
                                  f"{MIN_DIM}, got {args.dims!r}")
            if args.pairs < MIN_PAIRS:
                raise ConfigError(f"--pairs must be >= {MIN_PAIRS}, got {args.pairs}")
            return cmd_concentration(cfg, timestamp, [int(d) for d in dims], args.pairs)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileFormatError, MaskError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything else is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""The multi-task training loop.

Each iteration samples a task index from Cat(k, alpha), draws a batch from
that task's dataset, runs the shared encoder plus the sampled task's
decoder, and applies Adam to the encoder group and that decoder group
only. Every iteration derives its own RNG stream from (seed, t), so runs
are reproducible and checkpoint-resume continues bit-exactly.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .diagnostics import GradTrace
from .model import (EncoderModel, ParamStore, build_classification_decoder,
                    build_segmentation_decoder, forward_task_logits)
from .optim import AdamState, adam_init, adam_step
from .tasks import KIND_CLASSIFICATION, KIND_INSTANCE_SEG, TaskDataset, sample_batch
from .tensorio import BlockWriter, FileFormatError, append_frame, read_file, read_frames

CHECKPOINT_MAGIC = b"MTLC"
CHECKPOINT_VERSION = 1
TRACE_MAGIC = b"MTLG"
TRACE_VERSION = 1
JOURNAL_MAGIC = b"MTLJ"
JOURNAL_VERSION = 1

# a run's files in its output directory
LOG_FILE = "train_log.csv"
SLOT_FILES = ("checkpoint_slot0.mtlc", "checkpoint_slot1.mtlc")
JOURNAL_FILE = "grad_trace.journal"
TRACE_FILE = "grad_trace.mtlg"
FINAL_CHECKPOINT_FILE = "checkpoint_final.mtlc"
CONFIG_FILE = "config_used.json"

_ITER_STREAM = 100  # spawn-key tag for per-iteration RNG streams


class TrainError(RuntimeError):
    """Training failure; carries the 1-based iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        self.iteration = iteration
        super().__init__(f"iteration {iteration}: {cause}")


@dataclass
class SamplerConfig:
    """Probability vector over the k tasks; normalized on construction.

    `probs` holds the same values as Python floats, so `sample_task` sums
    them without making a numpy scalar per addition.
    """

    alpha: np.ndarray
    probs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alpha must be a non-empty 1-D probability vector")
        if (a < 0).any():
            raise ValueError("alpha entries must be >= 0")
        total = a.sum()
        if total <= 0:
            raise ValueError("alpha must have positive mass")
        self.alpha = a / total
        self.probs = tuple(self.alpha.tolist())

    @property
    def k(self) -> int:
        return self.alpha.size

    @classmethod
    def uniform(cls, k: int) -> "SamplerConfig":
        return cls(np.full(k, 1.0 / k))


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int = 8
    seed: int = 0
    checkpoint_every: int = 1000  # iterations between saves to a RunRecord
    diagnostics: str = "off"      # off | exact | sketch

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.diagnostics not in ("off", "exact", "sketch"):
            raise ValueError(f"diagnostics must be off/exact/sketch, got {self.diagnostics!r}")


@dataclass(frozen=True)
class TrainRecord:
    t: int
    task: int
    loss: float


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)
    trace: GradTrace | None = None


def new_log(config: TrainConfig, num_tasks: int, encoder_size: int) -> TrainLog:
    """An empty log, with a trace of the encoder gradients unless diagnostics are off."""
    if config.diagnostics == "off":
        return TrainLog()
    return TrainLog(trace=GradTrace(num_tasks=num_tasks, dim=encoder_size,
                                    mode=config.diagnostics, sketch_seed=config.seed))


def sample_task(sampler: SamplerConfig, rng) -> int:
    """Inverse-CDF draw over alpha with index-ascending cumulative order."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(sampler.probs):
        acc += p
        if u < acc:
            return i
    return sampler.k - 1  # u landed in the last bin's rounding slack


def iteration_rng(seed: int, t: int):
    """The dedicated RNG stream for iteration t of a run with this seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_ITER_STREAM, t)))


def build_decoders(tasks: list[TaskDataset], encoder: EncoderModel,
                   store: ParamStore, rng) -> list:
    """One decoder per task, sized from the task spec and encoder geometry; only
    each task's `.spec` is read, so dataset headers serve as well."""
    decoders = []
    for ds in tasks:
        spec = ds.spec
        if spec.kind == KIND_CLASSIFICATION:
            decoders.append(build_classification_decoder(
                spec.task_id, encoder.feature_dim, spec.num_classes, store, rng))
        else:
            # instance tasks predict K classes plus background per pixel
            k = spec.num_classes + 1 if spec.kind == KIND_INSTANCE_SEG else 1
            c, h, w = encoder.map_shape
            ih, iw = spec.input_shape[-2:]
            factors = []
            while h * int(np.prod(factors or [1])) * 2 <= ih:
                factors.append(2)
            decoders.append(build_segmentation_decoder(
                spec.task_id, encoder.map_shape, k, factors, (ih, iw), store, rng))
    return decoders


def init_adam_states(store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                     beta2: float = 0.999, eps: float = 1e-8) -> dict[str, AdamState]:
    return {g: adam_init(store.group(g), lr=lr, beta1=beta1, beta2=beta2, eps=eps)
            for g in store.group_names()}


def _task_loss(decoder, logits: Tensor, y) -> Tensor:
    """Per-pixel BCE for a one-class mask head, softmax cross-entropy otherwise."""
    if decoder.kind == "segmentation" and decoder.num_classes == 1:
        return ad.binary_cross_entropy(logits, np.asarray(y, dtype=np.float64)[:, None, :, :])
    return ad.cross_entropy(logits, np.asarray(y, dtype=np.int64))


def flatten_group_grads(store: ParamStore, group: str,
                        grads: dict[str, Tensor]) -> np.ndarray:
    """Gradients of one group as a flat vector in sorted parameter-id order.

    Parameters missing from the GradMap contribute zeros so the vector
    dimension is the same on every iteration.
    """
    parts = []
    for pid in store.sorted_ids(group):
        g = grads.get(pid)
        parts.append(np.ravel(g.data) if g is not None else np.zeros(store.get(pid).size))
    return np.concatenate(parts) if parts else np.zeros(0)


def train_step(encoder: EncoderModel, decoders: list, store: ParamStore,
               adam_states: dict[str, AdamState], task: int, batch):
    """One optimization step on the sampled task.

    Updates the encoder group and the sampled decoder group; all other
    decoder groups stay bit-identical. Returns (loss value, encoder
    GradMap) with the raw pre-update gradients for diagnostics.
    """
    x, y = batch
    decoder = decoders[task]
    graph = Graph()
    logits = forward_task_logits(encoder, decoder, x, graph)
    loss = _task_loss(decoder, logits, y)
    grads = ad.backward(loss)

    enc_grads = {pid: g for pid, g in grads.items()
                 if store.owner(pid) == encoder.group}
    dec_grads = {pid: g for pid, g in grads.items()
                 if store.owner(pid) == decoder.group}
    if enc_grads:
        adam_step(adam_states[encoder.group], store.group(encoder.group), enc_grads)
    if dec_grads:
        adam_step(adam_states[decoder.group], store.group(decoder.group), dec_grads)
    return loss.item(), enc_grads


def train(tasks: list[TaskDataset], encoder: EncoderModel, decoders: list,
          store: ParamStore, adam_states: dict[str, AdamState],
          sampler: SamplerConfig, config: TrainConfig, start_t: int = 0,
          log: TrainLog | None = None, record: "RunRecord | None" = None) -> TrainLog:
    """Run iterations start_t+1 .. iterations of the sampled-task loop.

    Fully deterministic given (seed, config, datasets): the task sequence,
    batches, and final parameters are reproducible, and resuming from a
    checkpoint at any t matches the uninterrupted run bit-exactly. With a
    `record`, every `checkpoint_every` iterations the run is journaled and
    checkpointed there, and the trace keeps only the rows since; without
    one, the trace keeps every row.
    """
    k = len(tasks)
    if not (k == len(decoders) == sampler.k):
        raise ValueError(
            f"task/decoder/alpha counts differ: {k}/{len(decoders)}/{sampler.k}")
    if log is None:
        log = new_log(config, k, store.total_size(encoder.group))

    for t in range(start_t + 1, config.iterations + 1):
        try:
            rng = iteration_rng(config.seed, t)
            i = sample_task(sampler, rng)
            x, y = sample_batch(tasks[i], "train", config.batch_size, rng)
            loss, enc_grads = train_step(encoder, decoders, store, adam_states, i, (x, y))
        except Exception as exc:  # attach the failing iteration index
            raise TrainError(t, exc) from exc
        log.records.append(TrainRecord(t, i, loss))
        if log.trace is not None:
            log.trace.append(t, i, flatten_group_grads(store, encoder.group, enc_grads))
        if record is not None and t % config.checkpoint_every == 0:
            record.checkpoint(log, store, adam_states, config.seed, t)
    return log


# ---------------------------------------------------------------------------
# checkpointing

@dataclass
class Checkpoint:
    seed: int
    t: int
    groups: dict[str, dict]  # name -> {hyper, t, params: {id: (theta, m, v)}}


def save_checkpoint(path, store: ParamStore, adam_states: dict[str, AdamState],
                    seed: int, t: int, in_place: bool = False) -> None:
    """Everything needed to resume: parameters, Adam moments and counters,
    and the RNG state, which under per-iteration derived streams is just
    (seed, t). `in_place` overwrites `path` rather than renaming a new file
    over it (see `BlockWriter.save`)."""
    w = BlockWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.u64(seed)
    w.u64(t)
    groups = store.group_names()
    w.u16(len(groups))
    for name in groups:
        st = adam_states[name]
        w.string(name)
        w.f64(st.lr)
        w.f64(st.beta1)
        w.f64(st.beta2)
        w.f64(st.eps)
        w.u64(st.t)
        ids = store.sorted_ids(name)
        w.u32(len(ids))
        for pid in ids:
            w.string(pid)
            w.tensor(store.get(pid).data)
            w.tensor(st.m[pid])
            w.tensor(st.v[pid])
    w.save(path, in_place=in_place)


def load_checkpoint(path) -> Checkpoint:
    with read_file(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as r:
        seed = r.u64()
        t = r.u64()
        groups = {}
        for _ in range(r.u16()):
            name = r.string()
            hyper = dict(lr=r.f64(), beta1=r.f64(), beta2=r.f64(), eps=r.f64())
            gt = r.u64()
            params = {}
            for _ in range(r.u32()):
                pid = r.string()
                params[pid] = (r.tensor(), r.tensor(), r.tensor())
            groups[name] = dict(hyper=hyper, t=gt, params=params)
        r.finish()
    return Checkpoint(seed=seed, t=t, groups=groups)


def apply_checkpoint(ck: Checkpoint, store: ParamStore,
                     adam_states: dict[str, AdamState]) -> None:
    """Overwrite freshly built models/states with checkpointed values."""
    if set(ck.groups) != set(store.group_names()):
        raise ValueError(
            f"checkpoint groups {sorted(ck.groups)} do not match model groups "
            f"{store.group_names()}")
    for name, gdata in ck.groups.items():
        if set(gdata["params"]) != set(store.sorted_ids(name)):
            raise ValueError(f"checkpoint parameters for group {name!r} do not "
                             f"match the model")
        st = adam_states[name]
        st.lr = gdata["hyper"]["lr"]
        st.beta1 = gdata["hyper"]["beta1"]
        st.beta2 = gdata["hyper"]["beta2"]
        st.eps = gdata["hyper"]["eps"]
        st.t = gdata["t"]
        for pid, (theta, m, v) in gdata["params"].items():
            store.set(pid, Tensor(theta))
            st.m[pid] = m
            st.v[pid] = v


# ---------------------------------------------------------------------------
# gradient-trace persistence (exact or sketch vectors for cmd_diagnose)

def _write_rows(w: BlockWriter, ts: list[int], tasks: list[int], dim: int, vecs) -> None:
    """The t and task tensors of the rows, then their vectors as one (rows, dim)
    tensor, streamed from the arrays `vecs` yields."""
    w.tensor(np.array(ts, dtype=np.int32))
    w.tensor(np.array(tasks, dtype=np.int32))
    w.tensor_rows(len(ts), dim, vecs)


def _frame_index(r) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """A journal frame's t and task tensors and the shape of its vectors, which
    are read past, not kept."""
    return r.tensor(), r.tensor(), r.skip_tensor()


def _frame_vectors(r) -> np.ndarray:
    r.tensor()
    r.tensor()
    return r.tensor()


def save_trace(path, trace: GradTrace, journal=None) -> None:
    """Write the trace file: the rows of the `journal` file's frames, when one
    is given, then `trace.entries`. The journal is read twice, for the t and
    task tensors and then for the vectors, which go to the file one frame at
    a time, so the trace is never held in memory whole."""
    ts, tasks = [], []
    if journal is not None:
        for (f_ts, f_tasks, _), _ in read_frames(journal, JOURNAL_MAGIC, JOURNAL_VERSION,
                                                 _frame_index):
            ts += f_ts.tolist()
            tasks += f_tasks.tolist()
    journal_vecs = [] if journal is None else (
        vecs for vecs, _ in read_frames(journal, JOURNAL_MAGIC, JOURNAL_VERSION,
                                        _frame_vectors))
    w = BlockWriter(TRACE_MAGIC, TRACE_VERSION)
    w.u16(trace.num_tasks)
    w.u32(trace.dim)
    w.string(trace.mode)
    w.u32(trace.sketch_dim)
    w.u64(trace.sketch_seed)
    w.u32(len(ts) + len(trace.entries))
    _write_rows(w, ts + [e[0] for e in trace.entries], tasks + [e[1] for e in trace.entries],
                trace.stored_dim, chain(journal_vecs, (e[2] for e in trace.entries)))
    w.save(path)


def load_trace(path) -> GradTrace:
    with read_file(path, TRACE_MAGIC, TRACE_VERSION) as r:
        trace = GradTrace(num_tasks=r.u16(), dim=r.u32(), mode=r.string(),
                          sketch_dim=r.u32(), sketch_seed=r.u64())
        n = r.u32()
        ts, tasks, vecs = r.tensor(), r.tensor(), r.tensor()
        r.finish()
    if not len(ts) == len(tasks) == len(vecs) == n:
        raise FileFormatError(f"{path}: {n} entries, but tensors of {len(ts)}, "
                              f"{len(tasks)} and {len(vecs)} rows")
    trace.entries = list(zip(ts.tolist(), tasks.tolist(), vecs))
    return trace


# ---------------------------------------------------------------------------
# the run record: checkpoint slots and journals in the output directory

class RunRecord:
    """A run's resume point and record, kept in its output directory as it goes.

    Periodic checkpoints alternate between two slot files, each overwritten
    in place (`BlockWriter.save(in_place=True)`): a slot is never renamed
    over or truncated to zero, which on ext4 would flush it to disk on every
    save, and a save that fails can tear only the slot being written. Before
    each save, the records since the previous one are appended to
    train_log.csv, which is its own journal, and the trace rows to the trace
    journal as one length-prefixed, CRC-checked frame, after which the trace
    drops them from memory: the journal holds rows 1..`journaled`, the trace
    the rows since. `resume` cuts both files back to the slot's t; `finish`
    deletes the journal and the older slot once the run's final files are
    written.
    """

    def __init__(self, out_dir, log_every: int):
        out_dir = Path(out_dir)
        self.log_every = log_every
        self.log_path = out_dir / LOG_FILE
        self.slots = [out_dir / name for name in SLOT_FILES]
        self.journal = out_dir / JOURNAL_FILE
        self.trace_path = out_dir / TRACE_FILE
        self.final_path = out_dir / FINAL_CHECKPOINT_FILE
        self.config_path = out_dir / CONFIG_FILE
        self._next = 0        # the slot saved to next, the older one
        self._logged = 0      # log.records already in train_log.csv
        self.journaled = 0    # trace rows in the journal

    def clear(self) -> None:
        """Delete what an earlier run left here, so that nothing resumes from it."""
        for path in (*self.slots, self.journal, self.log_path, self.trace_path,
                     self.final_path, self.config_path):
            path.unlink(missing_ok=True)

    def append_log(self, log: TrainLog) -> None:
        """Append the logged records not yet in train_log.csv."""
        rows = [(r.t, r.task, repr(float(r.loss))) for r in log.records[self._logged:]
                if r.t % self.log_every == 0]
        with open(self.log_path, "a", newline="") as fh:
            csv.writer(fh).writerows(rows)
        self._logged = len(log.records)

    def checkpoint(self, log: TrainLog, store: ParamStore,
                   adam_states: dict[str, AdamState], seed: int, t: int) -> None:
        """Journal the run up to t, then save it to the older slot."""
        self.append_log(log)
        if log.trace is not None and log.trace.entries:
            self._append_rows(log.trace.entries, log.trace.stored_dim, self.journal)
            self.journaled += len(log.trace.entries)
            log.trace.entries.clear()
        save_checkpoint(self.slots[self._next], store, adam_states, seed, t, in_place=True)
        self._next = 1 - self._next

    @staticmethod
    def _append_rows(entries: list, stored_dim: int, path) -> None:
        """Append trace entries to the journal at `path` as one frame."""
        w = BlockWriter(JOURNAL_MAGIC, JOURNAL_VERSION)
        _write_rows(w, [e[0] for e in entries], [e[1] for e in entries], stored_dim,
                    (e[2] for e in entries))
        append_frame(path, w)

    def finish(self) -> None:
        """Delete the trace journal and the older slot; call once the final
        checkpoint, trace and log are written."""
        self.journal.unlink(missing_ok=True)
        self.slots[self._next].unlink(missing_ok=True)

    def resume(self, slot: int, t: int, trace: GradTrace | None) -> None:
        """Continue the record of the run in `slots[slot]`, which is at iteration t.

        train_log.csv is cut after its last row with an iteration <= t. The
        journal must hold the trace rows 1..t: its frames up to t are checked
        for their row counts and vector lengths without keeping the vectors.
        When there is no journal, a finished run's trace file gives the rows
        and seeds a new journal. `trace` stays empty; `save_trace` takes the
        rows from the journal. Every file is checked before any is cut: one
        that does not reach t is a FileFormatError naming it.
        """
        log_end = self._log_end(t)
        if trace is not None:
            if self.journal.exists():
                frames = [(f, end) for f, end in
                          read_frames(self.journal, JOURNAL_MAGIC, JOURNAL_VERSION,
                                      _frame_index) if (f[0] <= t).all()]
                source, journal_end = self.journal, frames[-1][1] if frames else 0
                shapes = [(len(ts), shape) for (ts, _, shape), _ in frames]
                rows = sum(n for n, _ in shapes)
                fits = all(shape == (n, trace.stored_dim) for n, shape in shapes)
            else:
                source, journal_end = self.trace_path, None
                kept = [e for e in load_trace(source).entries if e[0] <= t]
                rows = len(kept)
                fits = all(len(e[2]) == trace.stored_dim for e in kept)
            if rows != t or not fits:
                raise FileFormatError(
                    f"{source}: cannot resume from iteration {t}: it holds {rows} "
                    f"trace rows up to it, not {t} rows of {trace.stored_dim} values")

        if log_end < os.path.getsize(self.log_path):
            os.truncate(self.log_path, log_end)
        if trace is not None and journal_end is None:
            # a journal seeded from the trace file appears whole or not at all
            tmp = self.journal.with_name(self.journal.name + ".tmp")
            tmp.unlink(missing_ok=True)
            self._append_rows(kept, trace.stored_dim, tmp)
            os.replace(tmp, self.journal)
        elif trace is not None and journal_end < os.path.getsize(self.journal):
            os.truncate(self.journal, journal_end)
        self._next = 1 - slot
        self.journaled = t

    def _log_end(self, t: int) -> int:
        """Offset in train_log.csv just past its last row with an iteration <= t."""
        data = self.log_path.read_bytes()
        end, header, rows = 0, False, 0
        for line in data.splitlines(keepends=True):
            fields = line.rstrip(b"\r\n").split(b",")
            if fields == [b"t", b"task_id", b"loss"]:
                header = True
            elif header and line.endswith(b"\n") and len(fields) == 3 \
                    and fields[0].isdigit() and int(fields[0]) <= t:
                rows += 1
            elif not line.startswith(b"#"):
                break  # past t, or the tail of an append that did not finish
            end += len(line)
        if not header or rows != t // self.log_every:
            raise FileFormatError(
                f"{self.log_path}: cannot resume from iteration {t}: it holds {rows} "
                f"rows up to it, but a log of every {self.log_every} iterations has "
                f"{t // self.log_every}")
        return end

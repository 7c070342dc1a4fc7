"""Per-layer spans for a traced workload process.

`install` wraps mtlab's public functions at the names their callers look
them up by (`cli` imports `train` and `save_checkpoint` by name, `model`
calls ops through the `autodiff` module, `apply_activation` dispatches
through `_ACTIVATIONS`), so nothing inside `src/` changes. Each call keeps a
span (name, start, end, parent, value) in memory; `layer_metrics` turns the
spans into per-layer self times, call counts and sizes, and `write_spans`
writes them out once the workload has ended. tracemalloc never runs inside a
span: the eval allocation peak comes from one more, untimed `evaluate_task`
call made after the workload has ended.
"""

from __future__ import annotations

import csv
import functools
import os
import time
import tracemalloc

import numpy as np

AUTODIFF_OPS = ("conv2d", "add", "relu", "matmul", "upsample_nearest", "global_avg_pool",
                "reshape", "softmax", "sigmoid", "cross_entropy", "binary_cross_entropy")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, value]
        self._stack: list[int] = []
        self.largest_eval = None      # (eval images, args) of the largest evaluate_task

    def wrap(self, name, fn, value=None):
        """`name` is a string or a function of the call's args; `value(args, result)`
        is a number kept with the span, such as bytes written."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result

        return traced

    def keep_largest_eval(self, fn):
        """`fn` (evaluate_task) unchanged, but the args of its largest call are kept."""
        @functools.wraps(fn)
        def kept(encoder, decoder, ds):
            n = len(ds.indices("eval"))
            if self.largest_eval is None or n > self.largest_eval[0]:
                self.largest_eval = (n, (encoder, decoder, ds))
            return fn(encoder, decoder, ds)

        return kept

    def eval_alloc_peak_mib(self) -> float:
        """tracemalloc peak of the largest evaluate_task call, run once more; the
        spans of this extra call are dropped."""
        if self.largest_eval is None:
            return 0.0
        from mtlab import cli
        n_spans = len(self.spans)
        tracemalloc.start()
        try:
            cli.evaluate_task(*self.largest_eval[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del self.spans[n_spans:]
        return peak / 2**20


def _patch(tracer: Tracer, name, owners, value=None, fn=None):
    """Replace the same function under every (module, class or dict, attribute)."""
    def get(owner, attr):
        return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

    original = get(*owners[0])
    for owner, attr in owners:
        if get(owner, attr) is not original:
            raise RuntimeError(f"{attr} is not the same function under every caller")
    wrapped = tracer.wrap(name, fn or original, value)
    for owner, attr in owners:
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    from mtlab import autodiff as ad
    from mtlab import cli, diagnostics, metrics, model, tasks, tensorio, trainer

    for cmd in ("generate", "train", "eval", "diagnose", "concentration"):
        _patch(tracer, f"cli.{cmd}", [(cli, f"cmd_{cmd}")])

    examples = lambda args, ds: len(ds.inputs)  # noqa: E731
    _patch(tracer, "tasks.generate", [(tasks, "gen_classification_task"),
                                      (cli, "gen_classification_task")], examples)
    _patch(tracer, "tasks.generate", [(tasks, "gen_segmentation_task"),
                                      (cli, "gen_segmentation_task")], examples)
    _patch(tracer, "tasks.sample_batch", [(trainer, "sample_batch")])
    _patch(tracer, "tasks.save_dataset", [(cli, "save_dataset")])
    _patch(tracer, "tasks.load_dataset", [(cli, "load_dataset")])

    _patch(tracer, "tensorio.to_bytes", [(tensorio.BlockWriter, "to_bytes")],
           lambda args, raw: len(raw))
    _patch(tracer, "tensorio.save", [(tensorio.BlockWriter, "save")],
           lambda args, _: os.path.getsize(args[1]))
    _patch(tracer, "tensorio.read_file", [(tensorio, "read_file"), (trainer, "read_file"),
                                          (tasks, "read_file")],
           lambda args, _: os.path.getsize(args[0]))

    for op in AUTODIFF_OPS:
        owners = [(ad, op)] + ([(ad._ACTIVATIONS, op)] if op in ad._ACTIVATIONS else [])
        _patch(tracer, f"autodiff.{op}", owners)
    _patch(tracer, "autodiff.backward", [(ad, "backward")],
           lambda args, _: len(args[0].graph))

    _patch(tracer, lambda args: ("model.forward_cls" if args[1].kind == "classification"
                                 else "model.forward_seg"),
           [(model, "forward_task_logits"), (trainer, "forward_task_logits")])

    _patch(tracer, "optim.adam_step", [(trainer, "adam_step")],
           lambda args, _: sum(g.size for g in args[2].values()))

    _patch(tracer, "trainer.train", [(cli, "train")])
    _patch(tracer, "trainer.train_step", [(trainer, "train_step")])
    _patch(tracer, "trainer.flatten_group_grads", [(trainer, "flatten_group_grads")])
    _patch(tracer, "trainer.save_checkpoint", [(trainer, "save_checkpoint"),
                                               (cli, "save_checkpoint")])
    _patch(tracer, "trainer.load_checkpoint", [(cli, "load_checkpoint")])
    _patch(tracer, "trainer.save_trace", [(cli, "save_trace")],
           lambda args, _: os.path.getsize(args[0]))
    _patch(tracer, "trainer.load_trace", [(cli, "load_trace")])

    _patch(tracer, "diagnostics.trace_append", [(diagnostics.GradTrace, "append")])
    _patch(tracer, "diagnostics.consecutive_trace", [(cli, "consecutive_trace"),
                                                     (diagnostics, "consecutive_trace")])
    _patch(tracer, "diagnostics.pairwise_matrix", [(cli, "pairwise_matrix")])
    _patch(tracer, "diagnostics.concentration", [(cli, "concentration_experiment")])

    _patch(tracer, "metrics.panoptic_quality", [(cli, "panoptic_quality")])
    _patch(tracer, "metrics.components", [(cli, "connected_components"),
                                          (metrics, "connected_components")])
    _patch(tracer, "metrics.components", [(cli, "instances_from_class_map")])
    _patch(tracer, "metrics.accuracy", [(cli, "accuracy")])
    _patch(tracer, "metrics.rolling_mean", [(cli, "rolling_mean")])

    _patch(tracer, "cli.forward_task", [(cli, "forward_task")],
           lambda args, _: args[2].shape[0])
    _patch(tracer, "cli.evaluate_task", [(cli, "evaluate_task")],
           fn=tracer.keep_largest_eval(cli.evaluate_task))


class _Totals:
    def __init__(self, spans):
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(n)
        parents = np.array([s[3] for s in spans], dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self.by_name: dict[str, dict] = {}
        for s, d, self_d in zip(spans, dur, dur - child):
            e = self.by_name.setdefault(s[0], {"incl": [], "self": [], "value": []})
            e["incl"].append(d)
            e["self"].append(self_d)
            if s[4] is not None:
                e["value"].append(s[4])

    def get(self, name, key):
        return self.by_name.get(name, {}).get(key, [])

    def incl(self, *names):
        return float(sum(sum(self.get(n, "incl")) for n in names))

    def self_(self, *names):
        return float(sum(sum(self.get(n, "self")) for n in names))

    def calls(self, name):
        return len(self.get(name, "incl"))

    def values(self, name):
        return self.get(name, "value")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced workload process; see the README table."""
    t = _Totals(tracer.spans)
    steps_ms = np.array(t.get("trainer.train_step", "incl")) * 1e3
    writes = t.get("tensorio.save", "self")
    tape = t.values("autodiff.backward")
    m = {
        "tasks.generate_s": t.incl("tasks.generate"),
        "tasks.examples": sum(t.values("tasks.generate")),
        "tasks.sample_batch_s": t.self_("tasks.sample_batch"),
        "tasks.dataset_io_s": t.incl("tasks.save_dataset", "tasks.load_dataset"),
        "tensorio.encode_s": t.self_("tensorio.to_bytes"),
        "tensorio.write_s": t.self_("tensorio.save"),
        "tensorio.write_max_ms": max(writes, default=0.0) * 1e3,
        "tensorio.write_bytes": sum(t.values("tensorio.save")),
        "tensorio.read_s": t.self_("tensorio.read_file"),
        "tensorio.read_bytes": sum(t.values("tensorio.read_file")),
    }
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}_s"] = t.self_(f"autodiff.{op}")
    m.update({
        "autodiff.conv2d_calls": t.calls("autodiff.conv2d"),
        "autodiff.backward_s": t.self_("autodiff.backward"),
        "autodiff.tape_nodes": float(np.mean(tape)) if tape else 0.0,
        "model.forward_cls_s": t.incl("model.forward_cls"),
        "model.forward_seg_s": t.incl("model.forward_seg"),
        "optim.adam_step_s": t.self_("optim.adam_step"),
        "optim.adam_elements": sum(t.values("optim.adam_step")),
        "trainer.step_s": t.incl("trainer.train_step"),
        "trainer.step_ms_p50": float(np.percentile(steps_ms, 50)) if steps_ms.size else 0.0,
        "trainer.step_ms_p99": float(np.percentile(steps_ms, 99)) if steps_ms.size else 0.0,
        "trainer.step_samples": int(steps_ms.size),
        "trainer.loop_self_s": t.self_("trainer.train"),
        "trainer.flatten_grads_s": t.self_("trainer.flatten_group_grads"),
        "trainer.checkpoint_s": t.incl("trainer.save_checkpoint"),
        "trainer.checkpoints": t.calls("trainer.save_checkpoint"),
        "trainer.trace_save_s": t.incl("trainer.save_trace"),
        "trainer.trace_load_s": t.incl("trainer.load_trace"),
        "trainer.span_coverage": (1.0 - t.self_("cli.train") / t.incl("cli.train")
                                  if t.calls("cli.train") else 0.0),
        "diagnostics.trace_append_s": t.incl("diagnostics.trace_append"),
        "diagnostics.consecutive_trace_s": t.self_("diagnostics.consecutive_trace"),
        "diagnostics.pairwise_matrix_s": t.self_("diagnostics.pairwise_matrix"),
        "diagnostics.concentration_s": t.incl("diagnostics.concentration"),
        "diagnostics.trace_mib": sum(t.values("trainer.save_trace")) / 2**20,
        "metrics.panoptic_quality_s": t.self_("metrics.panoptic_quality"),
        "metrics.panoptic_quality_calls": t.calls("metrics.panoptic_quality"),
        "metrics.components_s": t.self_("metrics.components"),
        "metrics.accuracy_s": t.self_("metrics.accuracy"),
        "metrics.rolling_mean_s": t.self_("metrics.rolling_mean"),
        "cli.eval_forward_s": t.incl("cli.forward_task"),
        "cli.eval_images": sum(t.values("cli.forward_task")),
        "cli.eval_alloc_peak_mib": tracer.eval_alloc_peak_mib(),
    })
    return {k: float(v) for k, v in m.items()}


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "start_s", "end_s", "parent", "value"])
        for s in tracer.spans:
            w.writerow([s[0], repr(s[1]), repr(s[2]), s[3], "" if s[4] is None else s[4]])

"""The benchmark's workloads: one mtlab config, command list and quality floor each.

Every workload is a whole `generate -> train -> eval -> diagnose` pipeline
run by one process; the seed given to the benchmark becomes the config seed,
so the same seed gives the same datasets, task sequence and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

ONE_CONV_ENCODER = [
    {"type": "conv", "filters": 32, "kernel": 3, "stride": 1, "padding": 1},
    {"type": "relu"},
    {"type": "gap"},
]

# The second conv halves the map, so segmentation decoders upsample by 2, and
# 896 + 9248 = 10144 encoder parameters exceed the 4096-dim count-sketch.
TWO_CONV_ENCODER = [
    {"type": "conv", "filters": 32, "kernel": 3, "stride": 1, "padding": 1},
    {"type": "relu"},
    {"type": "conv", "filters": 32, "kernel": 3, "stride": 2, "padding": 1},
    {"type": "relu"},
    {"type": "gap"},
]

ADAM = {"lr": 0.002, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}

# Skewed task distribution for deep_sketch (normalized by mtlab): the instance
# task is sampled five times as often as the rarest classification task.
SKEWED_ALPHA = [0.16, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.20, 0.07, 0.06, 0.06]

# 768 eval images per task: `evaluate_task` scores a whole split as one taped
# batch, so the eval forward pass sets the process's peak memory.
SEG_EVAL_TASKS = [
    {"kind": "instance-segmentation", "image_size": 32, "max_instances": 6,
     "num_classes": 5, "n_train": 64, "n_eval": 768},
    {"kind": "instance-segmentation", "image_size": 32, "max_instances": 5,
     "num_classes": 4, "n_train": 64, "n_eval": 768},
    {"kind": "binary-segmentation", "image_size": 32, "max_instances": 6,
     "n_train": 64, "n_eval": 768},
    {"kind": "binary-segmentation", "image_size": 32, "max_instances": 4,
     "n_train": 64, "n_eval": 768},
]

CONCENTRATION_DIMS = (16, 128, 1024, 10144)
CONCENTRATION_PAIRS = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                    # every key but seed and out_dir
    commands: tuple                 # (subcommand, extra args) in run order
    floors: dict                    # "accuracy" / "PQ" per task, "mean" over tasks

    def mtlab_config(self, seed: int, out_dir: str) -> dict:
        return {"seed": seed, "out_dir": out_dir, **self.config}


PIPELINE = (("generate", ()), ("train", ()), ("eval", ()), ("diagnose", ()))

WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="paper_suite",
            config={
                "suite": {"preset": "default", "n_train": 128, "n_eval": 64},
                "encoder": ONE_CONV_ENCODER, "alpha": "uniform",
                "iterations": 3000, "batch_size": 8, "adam": ADAM,
                "log_every": 1, "checkpoint_every": 1000, "diagnostics": "exact",
            },
            commands=PIPELINE,
            floors={"accuracy": 0.6, "PQ": 0.6, "mean": 0.9},
        ),
        Workload(
            name="seg_eval",
            config={
                "suite": {"tasks": SEG_EVAL_TASKS},
                "encoder": ONE_CONV_ENCODER, "alpha": "uniform",
                "iterations": 600, "batch_size": 8, "adam": {**ADAM, "lr": 0.01},
                "log_every": 1, "checkpoint_every": 1000, "diagnostics": "exact",
            },
            commands=PIPELINE,
            floors={"PQ": 0.7, "mean": 0.9},
        ),
        Workload(
            name="deep_sketch",
            config={
                "suite": {"preset": "default", "n_train": 128, "n_eval": 64},
                "encoder": TWO_CONV_ENCODER, "alpha": SKEWED_ALPHA,
                "iterations": 1000, "batch_size": 8, "adam": ADAM,
                "log_every": 1, "checkpoint_every": 50, "diagnostics": "sketch",
            },
            commands=PIPELINE + (("concentration", (
                "--dims", ",".join(str(d) for d in CONCENTRATION_DIMS),
                "--pairs", str(CONCENTRATION_PAIRS))),),
            floors={"mean": 0.7},
        ),
    ]
}

"""The benchmark's tracer and file readers still fit mtlab.

`perfbench/tracer.py` wraps mtlab functions at the names their callers look
them up by. A renamed or deleted function, or one imported by a caller
under a stale binding, makes `install` fail; this test runs it in a fresh
process, since it patches the modules it touches.

`perfbench/mtlfiles.py` reads run outputs from the documented formats, apart
from mtlab's loaders. A change to a format it reads fails here before it
fails the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mtlab.cli import main
from mtlab.trainer import load_checkpoint, load_trace

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_name_it_patches():
    code = "import tracer; tracer.install(tracer.Tracer())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _mtlfiles():
    spec = importlib.util.spec_from_file_location("perfbench_mtlfiles",
                                                  ROOT / "perfbench" / "mtlfiles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_readers_parse_the_run_outputs(tmp_path):
    mtlfiles = _mtlfiles()
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3, "out_dir": str(out),
        "suite": {"tasks": [
            {"kind": "classification", "num_classes": 3, "n_train": 16, "n_eval": 4,
             "input_shape": [3, 8, 8]},
            {"kind": "instance-segmentation", "image_size": 8, "max_instances": 2,
             "num_classes": 2, "n_train": 16, "n_eval": 4}]},
        "encoder": [{"type": "conv", "filters": 3, "kernel": 3, "padding": 1},
                    {"type": "relu"}, {"type": "gap"}],
        "iterations": 12, "batch_size": 2, "checkpoint_every": 5, "diagnostics": "exact",
    }))
    for cmd in ("generate", "train"):
        assert main([cmd, "--config", str(cfg), "--no-timestamp"]) == 0

    slots = sorted(out.glob("checkpoint_slot*.mtlc"))
    assert [p.name for p in slots] == ["checkpoint_slot1.mtlc"]
    for path, t in ((out / "checkpoint_final.mtlc", 12), (slots[0], 10)):
        theirs, ours = mtlfiles.read_checkpoint(path), load_checkpoint(path)
        assert (theirs["seed"], theirs["t"]) == (ours.seed, ours.t) == (3, t)
        assert set(theirs["groups"]) == set(ours.groups)
        for name, group in ours.groups.items():
            assert theirs["groups"][name]["t"] == group["t"]
            for pid, arrays in group["params"].items():
                for a, b in zip(theirs["groups"][name]["params"][pid], arrays):
                    assert a.tobytes() == b.tobytes()

    theirs, ours = mtlfiles.read_trace(out / "grad_trace.mtlg"), load_trace(
        out / "grad_trace.mtlg")
    assert (theirs["num_tasks"], theirs["dim"], theirs["mode"]) == \
        (ours.num_tasks, ours.dim, ours.mode)
    assert theirs["t"].tolist() == [e[0] for e in ours.entries] == list(range(1, 13))
    assert theirs["task"].tolist() == [e[1] for e in ours.entries]
    assert theirs["vecs"].tobytes() == np.stack([e[2] for e in ours.entries]).tobytes()
    rows = mtlfiles.read_csv(out / "train_log.csv")
    assert [int(r["t"]) for r in rows] == list(range(1, 13))

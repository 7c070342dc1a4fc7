"""The comparison core of `tools/samebytes.py` on two tiny output trees."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _samebytes():
    spec = importlib.util.spec_from_file_location("samebytes", ROOT / "tools" / "samebytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


FILES = {"seg_eval/run/results.csv": b"task_id,name\n0,a\n",
         "seg_eval/run/data/task_00_a.mtld": bytes(range(256)) * 3,
         "criterion_6/run/train_log.csv": b"t,task_id,loss\n"}


def test_equal_trees_are_the_same_file_by_file(tmp_path):
    sb = _samebytes()
    rows = sb.compare_trees(_tree(tmp_path / "a", FILES), _tree(tmp_path / "b", FILES))
    assert rows == [(rel, "same") for rel in sorted(FILES)]
    assert sb.undeclared(rows, []) == []


def test_one_differing_byte_is_an_undeclared_difference(tmp_path):
    sb = _samebytes()
    changed = dict(FILES)
    data = bytearray(FILES["seg_eval/run/data/task_00_a.mtld"])
    data[700] ^= 1
    changed["seg_eval/run/data/task_00_a.mtld"] = bytes(data)
    rows = sb.compare_trees(_tree(tmp_path / "a", FILES), _tree(tmp_path / "b", changed))
    assert dict(rows) == {**{rel: "same" for rel in FILES},
                          "seg_eval/run/data/task_00_a.mtld": "differs"}
    assert sb.undeclared(rows, []) == ["seg_eval/run/data/task_00_a.mtld"]
    assert sb.undeclared(rows, ["*/task_00_a.mtld"]) == []


def test_a_file_on_one_side_only_is_missing(tmp_path):
    sb = _samebytes()
    extra = {**FILES, "seg_eval/run/extra.csv": b""}
    rows = sb.compare_trees(_tree(tmp_path / "a", extra), _tree(tmp_path / "b", FILES))
    assert dict(rows)["seg_eval/run/extra.csv"] == "missing"
    assert sb.undeclared(rows, []) == ["seg_eval/run/extra.csv"]


def test_the_standard_runs_are_criterion_6_and_the_workloads_at_seed_1():
    runs = _samebytes().standard_runs()
    assert sorted(runs) == ["criterion_6", "deep_sketch", "paper_suite", "seg_eval"]
    for name, (config, commands) in runs.items():
        assert config["out_dir"] == "run" and config["seed"] == (11 if name == "criterion_6"
                                                                 else 1)
        assert [c for c, _ in commands][:4] == ["generate", "train", "eval", "diagnose"]

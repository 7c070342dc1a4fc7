"""Do a revision and the working tree write the same output bytes?

    python3 tools/samebytes.py REV [--differs PATTERN ...]

Exports REV (any commit git names) with `git archive` into a temp
directory, then runs with REV's `src/` and with the working tree's `src/`
the four standard configs, as the working tree defines them:
`CRITERION_6_CONFIG` of `tests/test_acceptance.py` (with the workloads'
PIPELINE plus `concentration`) and the three workloads of
`perfbench/workloads.py` at seed 1. Each command is a fresh
`python -m mtlab.cli` with one BLAS thread and `--no-timestamp`, from the
config's own directory with a relative `out_dir`, so `config_used.json` records the same `out_dir`
on both sides and every output file can be compared whole. What each command
prints is saved beside the config as `<command>.stdout` and compared too.

Prints one line per output file, `same`, `differs` or `missing` (on one
side), and exits 1 if a file differs or is missing without a `--differs`
pattern (an `fnmatch` pattern of paths such as `deep_sketch/grad_trace.mtlg`
or `*/results.csv`) declaring it; 2 if REV cannot be exported or a command
fails. Runs are bit-identical only on one machine and BLAS, so the two sides
run here, one after the other; the temp directory is removed afterwards.
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]
from test_acceptance import CRITERION_6_CONFIG  # noqa: E402
from workloads import PIPELINE, WORKLOADS  # noqa: E402

OUT_DIR = "run"  # each run's out_dir, relative to its config's directory


def standard_runs() -> dict[str, tuple[dict, tuple]]:
    """name -> (config, commands) of the four standard runs."""
    runs = {"criterion_6": ({**CRITERION_6_CONFIG, "out_dir": OUT_DIR},
                            PIPELINE + (("concentration", ()),))}
    for name, w in WORKLOADS.items():
        runs[name] = (w.mtlab_config(seed=1, out_dir=OUT_DIR), w.commands)
    return runs


def run_side(src: Path, dest: Path) -> Path:
    """Run every standard config with the mtlab in `src`; returns the directory
    holding each run's outputs as <name>/..."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    for name, (config, commands) in standard_runs().items():
        where = dest / name
        where.mkdir(parents=True)
        (where / "config.json").write_text(json.dumps(config))
        for cmd, extra in commands:
            proc = subprocess.run([sys.executable, "-m", "mtlab.cli", cmd, "--config",
                                   "config.json", "--no-timestamp", *extra], cwd=where, env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{src}: {name}: mtlab {cmd} exited {proc.returncode}:\n"
                                   f"{proc.stderr}")
            (where / f"{cmd}.stdout").write_text(proc.stdout)
    return dest


def _files(tree: Path) -> set[str]:
    return {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()}


def compare_trees(a: Path, b: Path) -> list[tuple[str, str]]:
    """(path, "same" | "differs" | "missing") of every file under a or b, by path."""
    rows = []
    for rel in sorted(_files(a) | _files(b)):
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            rows.append((rel, "missing"))
        else:
            same = filecmp.cmp(fa, fb, shallow=False)
            rows.append((rel, "same" if same else "differs"))
    return rows


def undeclared(rows: list[tuple[str, str]], patterns: list[str]) -> list[str]:
    """Paths that are not the same and match no declared pattern."""
    return [rel for rel, status in rows if status != "same"
            and not any(fnmatch.fnmatchcase(rel, p) for p in patterns)]


def export(rev: str, dest: Path) -> Path:
    """REV's tree, as git archive writes it, extracted into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)
    return dest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the revision to compare the working tree with")
    p.add_argument("--differs", action="append", default=[], metavar="PATTERN",
                   help="a path pattern of output files meant to change (repeatable)")
    args = p.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="samebytes-"))
    try:
        try:
            base = export(args.rev, work / "rev")
            runs = [run_side(src, work / side) for src, side in
                    ((base / "src", "rev-runs"), (ROOT / "src", "tree-runs"))]
        except subprocess.CalledProcessError as exc:  # git archive
            print(f"cannot export {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        rows = compare_trees(*runs)
        for rel, status in rows:
            print(f"{status:8s} {rel}")
        bad = undeclared(rows, args.differs)
        print(f"{len(rows)} files, {sum(s == 'same' for _, s in rows)} same, "
              f"{len(bad)} undeclared differences against {args.rev}")
        return 1 if bad else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

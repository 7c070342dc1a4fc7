"""mtlab pipeline benchmark: run one workload as a user would, time it, check it.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0

Run from the repository root. A run repeats whole rounds until `--seconds`
have passed (at least one round). A round is one fresh process running
`mtlab.cli.main` for each of the workload's commands in turn against a
fresh output directory named in its config file; each command is one
operation. After the timed rounds the first round's outputs go through the
checks in checks.py, and every round must have written the same bytes.

The last stdout line is one JSON object: correct, attempted, failed and
metrics, the median over rounds of each end-to-end metric (`--trace 0`) or
of each per-layer metric from a traced process (`--trace 1`). The exit code
is 0 only if every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
ROUND_TIMEOUT_S = 150
# One BLAS thread: with two, a busy second core stalls every small GEMM of the
# training step (train time rose 2.4x under one competing process on 2 cores).
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
SAME_BYTES = ("train_log.csv", "checkpoint_final.mtlc", "grad_trace.mtlg", "results.csv")

sys.path.insert(0, str(HERE))
import mtlfiles  # noqa: E402
from workloads import CONCENTRATION_PAIRS, WORKLOADS  # noqa: E402


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(workload, seed: int, trace: bool, round_dir: Path) -> dict:
    """Run every command of one round in a fresh process; returns its figures."""
    round_dir.mkdir(parents=True)
    out_dir = round_dir / "run"
    config = round_dir / "config.json"
    config.write_text(json.dumps(workload.mtlab_config(seed, str(out_dir)), indent=2))
    spec_path = round_dir / "round.json"
    result_path = round_dir / "result.json"
    spec = {"src": str(SRC), "config": str(config), "trace": trace,
            "commands": [[c, list(extra)] for c, extra in workload.commands],
            "result": str(result_path), "spans": str(OUT / f"spans_{workload.name}.csv")}
    spec["t0"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    commands = [c for c, _ in workload.commands]
    if proc.returncode != 0 or not result_path.exists():
        print(f"round process exited {proc.returncode}", file=sys.stderr)
        return {"failed": commands, "out_dir": out_dir}
    res = json.loads(result_path.read_text())
    rec = {"failed": res["failed"], "out_dir": out_dir, "layers": res.get("layers")}
    if res["failed"]:
        return rec
    done = {c: tuple(v) for c, v in res["done"].items()}
    manifest = json.loads((out_dir / "data" / "manifest.json").read_text())
    results = [float(row["value"]) for row in mtlfiles.read_csv(out_dir / "results.csv")]
    dur = {c: end - start for c, (start, end) in done.items()}
    rec["metrics"] = {
        "setup_s": done["generate"][1],
        "train_it_per_s": workload.config["iterations"] / dur["train"],
        "eval_images_per_s": sum(t["n_eval"] for t in manifest["tasks"]) / dur["eval"],
        "diagnose_s": dur["diagnose"] + dur.get("concentration", 0.0),
        "pipeline_s": max(end for _, end in done.values()),
        "peak_rss_mib": res["peak_rss_mib"],
        "disk_mib": _dir_bytes(out_dir) / 2**20,
        "eval_score_mean": statistics.fmean(results),
    }
    rec["digests"] = {name: _digest(out_dir / name) for name in SAME_BYTES}
    print(f"{round_dir.name}: " + "  ".join(f"{c} {d:.3f}s" for c, d in dur.items())
          + f"  peak {res['peak_rss_mib']:.0f} MiB")
    return rec


def check_run(workload, rounds: list[dict]) -> list[tuple[str, str | None]]:
    """Checks on the first round's outputs, plus identical bytes across rounds."""
    import checks
    try:
        checks.check_same_bytes([r["digests"] for r in rounds])
        report = [("same_bytes", None)]
    except checks.CheckFailure as exc:
        report = [("same_bytes", str(exc))]
    first = rounds[0]["out_dir"]
    out = checks.load_outputs(first, json.loads((first.parent / "config.json").read_text()))
    pairs = CONCENTRATION_PAIRS if any(c == "concentration" for c, _ in workload.commands) \
        else None
    return report + checks.run_checks(out, workload.floors, pairs)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtlab" / "cli.py").is_file():
        print(f"no mtlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run_root = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_root, ignore_errors=True)
    rounds = []
    try:
        deadline = time.monotonic() + args.seconds
        while not rounds or time.monotonic() < deadline:
            rec = run_round(workload, args.seed, bool(args.trace),
                            run_root / f"round{len(rounds)}")
            rounds.append(rec)
            if rec["failed"]:
                break
            if len(rounds) > 1:  # the first round's outputs are kept for the checks
                shutil.rmtree(rec["out_dir"].parent)
        attempted = len(rounds) * len(workload.commands)
        failed = sum(len(r["failed"]) for r in rounds)
        report = check_run(workload, rounds) if not failed else []
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    for name, problem in report:
        print(f"check {name}: {'ok' if problem is None else 'FAILED: ' + problem}")
    correct = bool(report) and all(problem is None for _, problem in report)
    metrics = {}
    if not failed:
        key = "layers" if args.trace else "metrics"
        units = declared_units(bool(args.trace))
        if set(units) != set(rounds[0][key]):
            print(f"measured metrics {sorted(rounds[0][key])} are not those BENCHMARK.json "
                  f"lists: {sorted(units)}", file=sys.stderr)
            return 1
        for name, unit in units.items():
            metrics[name] = {"value": statistics.median(r[key][name] for r in rounds),
                             "unit": unit}
    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted - failed}/{attempted} operations succeeded")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark of this checkout in one JSON file.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py BENCH_<n>.json

Runs ``perfbench/run.py --workload W --seed 1 --seconds 30`` for each
workload in turn and then the tier-1 test suite, and writes the named file
with: the git sha, the python and numpy versions and nproc of the run; each
workload's end-to-end figures (``throughput`` with the quartiles of the
per-cycle rates of all of the run's processes); and the wall time of the
test suite.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import OUT, WORKLOAD_NAMES  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SEED = 1
SECONDS = 30.0


def run_workload(name: str) -> dict:
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, check=True,
    )
    return json.loads((OUT / f"result-{name}-seed{SEED}-trace0.json").read_text())


def summarize(record: dict) -> dict:
    rates = [r for part in record["parts"] for r in part["cycle_rates"]]
    q1, _, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    result = record["result"]
    metrics = dict(result["metrics"])
    metrics["throughput"] = {**metrics["throughput"], "q1": q1, "q3": q3}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def tree_clean() -> bool:
    """Whether the tracked files match the commit that ``git_sha`` names."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and not proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file to write, such as BENCH_<n>.json at the repo root")
    args = parser.parse_args(argv)

    records = {name: run_workload(name) for name in WORKLOAD_NAMES}
    tier1 = run_tier1()
    host = records[WORKLOAD_NAMES[0]]["provenance"]
    doc = {
        "git_sha": host["git_sha"],
        "tree_clean": tree_clean(),
        "python": host["python"],
        "numpy": host["numpy"],
        "nproc": host["nproc"],
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {name: summarize(rec) for name, rec in records.items()},
        "tier1": tier1,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({name: w["metrics"]["throughput"] for name, w in doc["workloads"].items()}))
    return 0 if tier1["exit_code"] == 0 and all(
        w["correct"] and not w["failed"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

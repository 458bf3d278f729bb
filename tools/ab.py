"""Paired benchmark runs of a base revision against this checkout.

Usage, from the root of a source checkout:

    python3 tools/ab.py --base REV [--workload W] [--pairs K] [--null] [--out AB_<n>.json]

Exports REV with ``git archive`` into ``base`` in a temporary directory,
which is removed afterwards, and the checkout's tracked files, uncommitted
edits included, into its sibling ``chge``: both sides run from paths of one
length, so where a tree lies cannot pass for what its code does.  Pair i
runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0`` on
both trees, one after the other, where S is ``BENCHMARK.json``'s
``run_seconds``; the side that runs first alternates from pair to pair, so
a drift of the host's speed falls on both sides alike.  A record that
backs a gain needs at least ten pairs, so fewer are refused except with
``--null``, whose change side is a second export of REV, in ``null``: the
spread of its pairs sizes the noise of the layout alone.  ``--workload
all`` runs the pairs of each workload in turn.

Prints each pair's end-to-end metrics, then, per metric, the medians of
both sides, their ratio, the pairs the change wins (by the direction
``BENCHMARK.json`` gives), the exact two-sided sign-test p value of
those wins against the pairs it loses, tied pairs dropped, and both sides'
``iqr``; then runs the tier-1 suite (``TIER1``) once in the change's export.
Each run's minor page faults, its own and its processes' (``ru_minflt`` of
``RUSAGE_CHILDREN`` before and after it), go on its pair's line and into its
pair's record as ``minflt``, and both sides' medians into the workload's
``minflt``: a workload whose memory the allocator hands back to the system
and faults in again shows it there.  Writes all of it, with the host, to
``--out``: the performance record.
Exits 1 if any run fails or reports ``correct: false``, or tier 1 fails.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOAD_NAMES  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = float(BENCH["run_seconds"])
#: Fewest pairs of a record that can back a gain.
MIN_PAIRS = 10
#: Each end-to-end metric's better direction, "higher" or "lower".
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
#: The tier-1 test suite, run with the tree's ``src`` first on PYTHONPATH.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def tree_clean() -> bool:
    """Whether the tracked files of this checkout match the commit HEAD names."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and not proc.stdout.strip()


def run_tier1(tree: Path) -> dict:
    """``TIER1`` in ``tree``: its wall time, exit code and last line of output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def snapshot() -> str:
    """A commit of the checkout's tracked files, uncommitted edits included:
    the one ``git stash create`` makes, which moves no ref and touches no
    file, or HEAD when nothing is edited."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    return stash or rev_parse("HEAD")


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` in ``dest``, made with ``git archive``; no worktree."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One measured run of ``perfbench/run.py`` in ``tree``: its printed result,
    with ``ok`` false if the run exited non-zero or reports a wrong output,
    and ``minflt`` the minor page faults of the run and its processes."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["ok"] = proc.returncode == 0 and result["correct"] is True
    result["minflt"] = minflt
    if not result["ok"]:
        result["stderr"] = proc.stderr[-2000:]
    return result


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p value of ``wins`` against ``losses``.

    Under the null each untied pair falls to either side with chance 1/2,
    so the p value is twice the binomial tail of the smaller count, at
    most 1; with no untied pair it is 1.
    """
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def iqr(xs: list[float]) -> float:
    """The distance between the quartiles of ``xs``; 0 for one value."""
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (0.0,) * 3
    return q3 - q1


def summarize(pairs: list[dict]) -> dict:
    """Per metric: both sides' medians, change / base, the pairs the change
    wins, the sign-test p value of its wins against its losses
    (``sign_test_p``) and each side's ``iqr``.

    Each pair is ``{"base": {metric: value}, "change": {metric: value}}``; a
    metric is one of ``BETTER``, every one of them positive, and a tie wins
    for neither side.  A gain is clear when the medians differ by more
    than that distance.
    """
    summary = {}
    for name, better in BETTER.items():
        rows = [(p["base"][name], p["change"][name]) for p in pairs
                if name in p["base"] and name in p["change"]]
        if not rows:
            continue
        bases, changes = [b for b, _ in rows], [c for _, c in rows]
        base, change = statistics.median(bases), statistics.median(changes)
        wins = sum((c > b) if better == "higher" else (c < b) for b, c in rows)
        losses = sum((c < b) if better == "higher" else (c > b) for b, c in rows)
        summary[name] = {
            "better": better,
            "base_median": base,
            "base_iqr": iqr(bases),
            "change_median": change,
            "change_iqr": iqr(changes),
            "ratio": change / base,
            "change_wins": wins,
            "sign_p": sign_test_p(wins, losses),
            "pairs": len(rows),
        }
    return summary


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(trees: dict, workload: str, pairs: int) -> tuple[list, bool]:
    records, ok = [], True
    for i in range(1, pairs + 1):
        order = ("base", "change") if i % 2 else ("change", "base")
        results = {side: run_once(trees[side], workload, i) for side in order}
        ok = ok and all(r["ok"] for r in results.values())
        records.append({
            "seed": i, "first": order[0],
            **{side: values(r) for side, r in results.items()},
            "failed": {side: r["failed"] for side, r in results.items()},
            "minflt": {side: r["minflt"] for side, r in results.items()},
        })
        for side, r in results.items():
            if not r["ok"]:
                print(f"error: {workload} seed {i} on the {side} side failed: "
                      f"{r.get('stderr', '').strip()[-300:]}", file=sys.stderr)
        row = records[-1]
        print(f"{workload} pair {i} ({order[0]} first): " + ", ".join(
            f"{name} {row['base'].get(name, float('nan')):.4g} -> "
            f"{row['change'].get(name, float('nan')):.4g}" for name in BETTER
        ) + f", minflt {row['minflt']['base']} -> {row['minflt']['change']}", flush=True)
    return records, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", default="exact-sweep", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--null", action="store_true",
                        help="run a second copy of the base as the change side")
    parser.add_argument("--out", default="AB.json", help="file to write, such as AB_<n>.json")
    args = parser.parse_args(argv)
    if args.pairs < (1 if args.null else MIN_PAIRS):
        parser.error(f"need --pairs >= {MIN_PAIRS}, or >= 1 with --null")

    sha, head = rev_parse(args.base), rev_parse("HEAD")
    # A SIGTERM exits through the finally below, which removes the exports.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {"base": export(sha, tmp / "base"), "change": (
            export(sha, tmp / "null") if args.null else export(snapshot(), tmp / "chge"))}
        doc = {"base": sha, "change": sha if args.null else head, "null": args.null,
               "change_tree_clean": args.null or tree_clean(), "seconds": SECONDS,
               "host": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                        "numpy": importlib.metadata.version("numpy")},
               "workloads": {}}
        all_ok = True
        for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
            records, ok = run_pairs(trees, workload, args.pairs)
            all_ok = all_ok and ok
            summary = summarize(records)
            minflt = {f"{side}_median": statistics.median(r["minflt"][side] for r in records)
                      for side in ("base", "change")}
            doc["workloads"][workload] = {"pairs": records, "summary": summary,
                                          "minflt": minflt}
            for name, s in summary.items():
                print(f"{workload} {name}: base {s['base_median']:.4g}, change "
                      f"{s['change_median']:.4g} ({s['ratio']:.3f}x), change better in "
                      f"{s['change_wins']} of {s['pairs']} pairs (sign test p {s['sign_p']:.3g}); "
                      f"IQR base {s['base_iqr']:.4g}, change {s['change_iqr']:.4g}")
            print(f"{workload} minflt: base {minflt['base_median']:.4g}, "
                  f"change {minflt['change_median']:.4g}")
        doc["tier1"] = tier1 = run_tier1(trees["change"])
        print(f"tier 1 on the change tree: exit {tier1['exit_code']} in {tier1['wall_s']:.1f} s: "
              f"{tier1['summary']}")
        all_ok = all_ok and tier1["exit_code"] == 0
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

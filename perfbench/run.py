"""Benchmark of the truecount library: one workload per process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc|exact-sweep|cli-mix|all \
        --seed N --seconds S --trace 0|1

A process imports ``truecount`` from ``src/``, builds the workload's inputs
from the seed and makes one warm-up cycle; that is its set-up.  It then
calls the workload in whole cycles, one caller in a closed loop, and checks
every output against the oracles in ``oracles.py``.  ``--trace 0`` runs
three such processes in turn, each for a third of ``--seconds`` of wall
time (and at least 100 calls in all), and prints the end-to-end metrics;
``--trace 1`` runs one process for ``--seconds`` that follows each cycle with
the same cycle made with every public function of the package wrapped, and
prints per-module figures per cycle.  The last line of standard output is
one JSON object; the full result, with provenance, goes to
``perfbench/out/``.

The host's speed drifts by tens of percent within a minute, so every timing
is scaled by a reference: a fixed piece of work made apart from the program
(``reference_time``), timed between calls throughout the run.  Figures are
reported at the speed at which the reference takes ``REF_NOMINAL_S``; the
unscaled figures are kept in the result file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("mc", "exact-sweep", "cli-mix")
MIN_CALLS = 100
PARTS = 3  # processes one measured run is split into
PART_CYCLES = 1_000_000  # cycle numbers of part i start at i * PART_CYCLES
RUN_TIMEOUT_S = 170
REF_EVERY_S = 0.05  # call time between two timings of the reference
REF_NOMINAL_S = 0.004  # reference time at which figures are reported
REF_WINDOW = 8  # reference timings on either side of a call that scale it


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=None,
                        help="measure one part of a run and print it as JSON (used by the run)")
    return parser.parse_args(argv)


def import_program():
    """Import truecount from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "truecount" / "__init__.py").is_file():
        sys.exit(f"error: no truecount sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import truecount

    if Path(truecount.__file__).resolve().parent != (src / "truecount").resolve():
        sys.exit(f"error: imported truecount from {truecount.__file__}, not {src}")
    import workloads

    return workloads


def run_all(args) -> int:
    """Each workload in a fresh process of its own."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        code = code or proc.returncode
    return code


def process_age() -> float:
    """Seconds since this process started (the kernel's start time, 10 ms ticks)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def reference_time() -> float:
    """Seconds taken by one fixed piece of work that does not use the program.

    Integer and ``Fraction`` arithmetic in pure Python and numpy shuffles of
    a 10,400-card shoe, about the mix the workloads spend their time on;
    about 4 ms on the machine the benchmark was defined on.
    """
    t0 = time.perf_counter()
    x = 0
    for k in range(20_000):
        x += k * k
    f = Fraction(0)
    for k in range(200):
        step = Fraction(k % 11, 7 + k % 5)
        f += step
        f -= step
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(5):
        rng.permutation(10_400)
    return time.perf_counter() - t0


class Loop:
    """Whole cycles of a workload's calls, each call timed on its own.

    With ``reference`` set, the reference is timed once at the start and
    after a call whenever ``REF_EVERY_S`` of call time has passed since its
    last timing.
    """

    def __init__(self, workload, reference: bool = False):
        self.workload = workload
        self.reference = reference
        self.durations: list[float] = []
        self.ref_times: list[float] = [reference_time()] if reference else []
        self.ref_marks: list[int] = []  # per call: reference timings made before its end
        self.cycle_ends: list[int] = []  # per cycle: calls made up to its end
        self.cycle_ops: list[int] = []  # per cycle: operations that succeeded
        self.since_ref = 0.0
        self.spent = 0.0
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.started = time.perf_counter()

    def done(self, seconds: float, min_calls: int = MIN_CALLS) -> bool:
        return (time.perf_counter() - self.started >= seconds
                and len(self.durations) >= min_calls)

    def cycle(self, index: int, check: bool) -> list:
        """Make cycle ``index``; returns the outputs of its calls."""
        clock = time.perf_counter
        wl = self.workload
        outputs = []
        succeeded = 0
        spent = 0.0
        for call in wl.calls(index):
            t0 = clock()
            out = call.run()
            dt = clock() - t0
            self.durations.append(dt)
            self.ref_marks.append(len(self.ref_times))
            spent += dt
            if self.reference:
                self.since_ref += dt
                if self.since_ref >= REF_EVERY_S:
                    self.ref_times.append(reference_time())
                    self.since_ref = 0.0
            ok = wl.check(index, call, out) if check else True
            outputs.append(out)
            self.attempted += call.ops
            self.failed += 0 if ok else call.ops
            succeeded += call.ops if ok else 0
        self.cycle_ends.append(len(self.durations))
        self.cycle_ops.append(succeeded)
        self.spent += spent
        self.cycles += 1
        return outputs

    def scaled(self) -> tuple[list[float], list[float], list[float]]:
        """Per call the host's slowdown, then call durations and cycle rates
        scaled by it.

        A call's slowdown is the median of the ``REF_WINDOW`` reference
        timings on either side of it over ``REF_NOMINAL_S``: the host's speed
        changes within seconds, and scaling by the whole run's median would
        stretch the calls made in a slow patch of a mostly fast run.
        """
        refs = self.ref_times
        slowdowns = [statistics.median(refs[max(0, m - REF_WINDOW):m + REF_WINDOW]) / REF_NOMINAL_S
                     for m in self.ref_marks]
        durations = [d / s for d, s in zip(self.durations, slowdowns)]
        rates, start = [], 0
        for end, ops in zip(self.cycle_ends, self.cycle_ops):
            rates.append(ops / sum(durations[start:end]))
            start = end
        return slowdowns, durations, rates


def provenance(args) -> dict:
    from truecount import kernels
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "kernels_backend": kernels.backend_name(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not args.trace and args.part is None:
        return run_parts(args)
    workloads = import_program()
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    Loop(workload).cycle(-1, check=False)
    setup_s = process_age()
    if args.trace:
        loop = Loop(workload)
        result_metrics = traced_run(workload, loop, args.seconds)
        workload.finish()
        workload.pool([workload.details])
        result = {
            "correct": not workload.errors,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": result_metrics,
        }
        return report(args, {
            "provenance": provenance(args),
            "calls": len(loop.durations),
            "cycles": loop.cycles,
            "call_seconds": loop.spent,
            "errors": workload.errors,
            "details": workload.details,
            "result": result,
        })

    reference_time()  # the first timing pays for warming the reference up
    loop = Loop(workload, reference=True)
    first = args.part * PART_CYCLES
    while not loop.done(args.seconds, math.ceil(MIN_CALLS / PARTS)):
        loop.cycle(first + loop.cycles, check=True)
    workload.finish()
    slowdowns, durations, rates = loop.scaled()
    print(json.dumps({
        "provenance": provenance(args),
        "setup_s": setup_s / slowdowns[0],
        "unscaled_setup_s": setup_s,
        "slowdown": statistics.median(slowdowns),
        "reference_timings": len(loop.ref_times),
        "durations": durations,
        "cycle_rates": rates,
        "cycles": loop.cycles,
        "call_seconds": loop.spent,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "errors": workload.errors,
        "details": workload.details,
    }))
    return 0


def run_parts(args) -> int:
    """A measured run: ``PARTS`` fresh processes in turn, each a share of it.

    A process's speed relative to the reference differs by about 5 % from
    one process to the next, so a run pools several; the set-up of each is
    one sample of ``setup_s``.  Each process scales its own timings
    (``Loop.scaled``; set-up by the slowdown at its first call).
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for part in range(PARTS):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS),
             "--trace", "0", "--part", str(part)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            print(f"error: part {part} of the run exited with {proc.returncode}", file=sys.stderr)
            return 1
        parts.append(json.loads(out.strip().splitlines()[-1]))

    workloads = import_program()
    pooled = workloads.WORKLOADS[args.workload](args.seed, OUT)
    pooled.pool([p["details"] for p in parts])
    durations = [d for p in parts for d in p.pop("durations")]
    rates = [r for p in parts for r in p["cycle_rates"]]
    setups = [p["setup_s"] for p in parts]
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    errors = [e for p in parts for e in p["errors"]] + pooled.errors
    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "throughput": metric(statistics.median(rates), "op/s"),
            "call_p50_ms": metric(1e3 * deciles[4], "ms"),
            "call_p90_ms": metric(1e3 * deciles[8], "ms"),
            "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in parts), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }
    provenance_ = parts[0].pop("provenance")
    for p in parts[1:]:
        del p["provenance"]
    return report(args, {
        "provenance": {**provenance_, "seconds": args.seconds, "parts": PARTS},
        "calls": len(durations),
        "cycles": sum(p["cycles"] for p in parts),
        "call_seconds": sum(p["call_seconds"] for p in parts),
        "reference_nominal_s": REF_NOMINAL_S,
        "errors": errors,
        "pooled": pooled.details,
        "parts": parts,
        "result": result,
    })


def report(args, record: dict) -> int:
    """Write the full record to ``perfbench/out/`` and print the result."""
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for message in record["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    p = record["provenance"]
    print(f"# {args.workload}: {record['cycles']} cycles, {record['calls']} calls; "
          f"git {p['git_sha'][:12]}, python {p['python']}, numpy {p['numpy']}, "
          f"nproc {p['nproc']}, kernels {p['kernels_backend']}, seed {args.seed}; "
          f"full record in {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


def traced_run(workload, loop: Loop, seconds: float) -> dict[str, dict]:
    """Each untraced cycle followed by the same cycle traced; figures per cycle.

    Pairing the cycles keeps slow patches of the host out of the overhead.
    """
    from spans import COUNTERS, Tracer

    tracer = Tracer()
    traced = Loop(workload)
    while not loop.done(seconds):
        index = loop.cycles
        expected = [workload.digest(out) for out in loop.cycle(index, check=True)]
        tracer.install()
        try:
            outputs = traced.cycle(index, check=False)
        finally:
            tracer.uninstall()
        if expected != [workload.digest(out) for out in outputs]:
            workload.fail(f"traced cycle {index} gave other outputs than the untraced one")
    self_times, roots = tracer.self_times()
    traced_wall = traced.spent
    k = loop.cycles
    tracer.save(OUT / f"trace-{workload.name}-seed{workload.seed}.npz")
    out = {f"{g}.self_s": metric(t / k, "s/cycle") for g, t in self_times.items()}
    out.update({name: metric(tracer.counts[name] / k, "count/cycle") for name in COUNTERS})
    out["reports.bytes"]["unit"] = "B/cycle"
    out["other_s"] = metric((traced_wall - roots) / k, "s/cycle")
    out["trace.wall_s"] = metric(traced_wall / k, "s/cycle")
    out["trace.overhead_s"] = metric((traced_wall - loop.spent) / k, "s/cycle")
    workload.details["traced_spans"] = len(tracer.start)
    return out


if __name__ == "__main__":
    sys.exit(main())

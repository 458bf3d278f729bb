"""The benchmark's workloads: inputs made from the seed, calls, and checks.

A workload is a fixed list of calls, repeated in cycles.  ``calls(cycle)``
returns the calls of one cycle; each call carries the number of operations
it attempts, decided by the benchmark from its inputs, so a run that makes
whole cycles attempts the same operations every time.  ``check`` verifies
one output against the oracles and says whether the operation succeeded;
``finish`` runs the checks that need the whole run.  Failures of the
program's outputs collect in ``errors``.

Every call looks the program's functions up through their module at call
time, so the traced run's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

from truecount import cli, counting, exact, seats, sim, verify


def derived_seed(*parts) -> int:
    """A 63-bit seed that depends only on ``parts``."""
    return random.Random(":".join(map(str, parts))).getrandbits(63)


@dataclass(frozen=True)
class Call:
    label: str
    ops: int
    run: Callable[[], object]
    inputs: dict


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        self.details: dict = {}

    def calls(self, cycle: int) -> list[Call]:
        raise NotImplementedError

    def check(self, cycle: int, call: Call, out) -> bool:
        raise NotImplementedError

    def digest(self, out):
        """What a replay of the call must reproduce exactly."""
        return out

    def finish(self) -> None:
        pass

    def pool(self, parts: list[dict]) -> None:
        """Checks over every process of a run; ``parts`` are their ``details``."""

    def fail(self, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(message)


# -- mc -------------------------------------------------------------------------

def _fractions(law) -> list[tuple[int, Fraction]]:
    return [(int(h), Fraction(repr(p))) for h, p in law]


def _s0_squared(system) -> Fraction:
    per_deck = {r: (16 if r == "T" and len(system.weights) == 10 else 4) for r in system.weights}
    return oracles.sigma0_squared(system.weights, per_deck)


class MonteCarlo(Workload):
    """Seeded simulations, each sized to roughly 0.1 s on a 2-core machine."""

    name = "mc"
    Z_MEAN = 5.0
    Z_VAR = 6.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        hi_lo = counting.get_system("hi-lo")
        halves = counting.get_system("halves")
        self.configs = []  # (label, trials, make_run(seed), predictions)
        for label, decks, model, trials in (
            ("seat-8d-p1", 8, seats.SeatCardModel(7, 1), 1300),
            ("seat-8d-p7", 8, seats.SeatCardModel(7, 7), 1300),
            ("seat-200d-p7-3cards", 200, seats.SeatCardModel.with_hand_mean(7, 7, 3.0), 290),
        ):
            cut = round(52 * decks * 0.5)
            law = _fractions(model.extra_cards_law)
            var_bet, var_play = oracles.seat_sigma_variances(
                _s0_squared(hi_lo), decks, cut, model.seats, model.position, law
            )
            cards_mean, cards_var = oracles.cards_per_hand_moments(law, model.seats)
            self.configs.append((
                label, trials,
                lambda s, d=decks, m=model, t=trials: sim.simulate_seat_sigma(hi_lo, d, 0.5, m, t, s),
                {"sigma_bet": (0.0, var_bet), "sigma_play": (0.0, var_play),
                 "cards_per_hand": (cards_mean, cards_var)},
            ))
        for label, system, trials in (("tc-8d-hi-lo", hi_lo, 2400), ("tc-8d-halves", halves, 2600)):
            cut = round(52 * 8 * 0.75)
            preds = {
                f"tc_increment_n{n}": (0.0, oracles.shoe_increment_variance(_s0_squared(system), 8, cut, n))
                for n in (1, 4, 16)
            }
            self.configs.append((
                label, trials,
                lambda s, sy=system, t=trials: sim.simulate_tc_increment(sy, 8, 0.75, [1, 4, 16], t, s),
                preds,
            ))
        fixed = sim.FixedAdvantageModel(0.51)
        mean, var = oracles.growth_moments([(1.0, 0.51)])
        self.configs.append((
            "bankroll-fixed-40k", 210,
            lambda s: sim.simulate_bankroll(fixed, 40_000, 210, s),
            {"growth_rate": (mean, var / 40_000)},
        ))
        two_point = sim.TwoPointAdvantageModel(0.52, 1e-4)
        spread = math.sqrt(1e-4)
        mean, var = oracles.growth_moments([(0.5, 0.52 - spread), (0.5, 0.52 + spread)])
        self.configs.append((
            "bankroll-two-point-10k", 280,
            lambda s: sim.simulate_bankroll(two_point, 10_000, 280, s),
            {"growth_rate": (mean, var / 10_000)},
        ))
        self.samples: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self.first: tuple[Call, str] | None = None

    def calls(self, cycle: int) -> list[Call]:
        out = []
        for label, trials, run, preds in self.configs:
            s = derived_seed("mc", self.seed, cycle, label)
            out.append(Call(label, trials, lambda r=run, s=s: r(s),
                            {"seed": s, "trials": trials, "predictions": preds}))
        return out

    def check(self, cycle: int, call: Call, out) -> bool:
        if self.first is None:
            self.first = (call, out.to_json())
        preds = call.inputs["predictions"]
        if out.trials != call.ops or set(out.stats) != set(preds):
            self.fail(f"{call.label}: report has trials={out.trials}, stats={sorted(out.stats)}")
            return False
        for stat, row in out.stats.items():
            self.samples.setdefault((call.label, stat), []).append((row.mean, row.std))
        return True

    def digest(self, out):
        return out.to_json()

    def finish(self) -> None:
        if self.first is not None:
            call, text = self.first
            if call.run().to_json() != text:
                self.fail(f"{call.label}: re-run with seed {call.inputs['seed']} changed the report")
        self.details["samples"] = {f"{label}|{stat}": rows for (label, stat), rows in self.samples.items()}

    def pool(self, parts: list[dict]) -> None:
        """Each statistic pooled over the run against its exact value.

        Pooled over all the run's processes: with the few calls of one
        process the spread of the per-call variances is too rough a
        standard error for a bound of 6.
        """
        samples: dict[tuple[str, str], list] = {}
        for details in parts:
            for key, rows in details.pop("samples").items():
                samples.setdefault(tuple(key.split("|")), []).extend(rows)
        trials = {label: t for label, t, _, _ in self.configs}
        preds = {label: p for label, _, _, p in self.configs}
        worst = {}
        for (label, stat), rows in sorted(samples.items()):
            mu, var = preds[label][stat]
            mu, var = float(mu), float(var)
            k, n = len(rows), trials[label]
            means = [m for m, _ in rows]
            variances = [s * s for _, s in rows]
            if var == 0:
                if any(v != 0 for v in variances) or any(m != mu for m in means):
                    self.fail(f"{label} {stat}: expected the constant {mu}")
                continue
            z_mean = (statistics.fmean(means) - mu) / math.sqrt(var / (k * n))
            # The spread of the per-call variances carries the sample's
            # kurtosis, which sets the standard error of their mean.
            se_var = statistics.stdev(variances) / math.sqrt(k) if k > 1 else float("inf")
            z_var = (statistics.fmean(variances) - var) / se_var if se_var > 0 else float("inf")
            worst[f"{label}.{stat}"] = {
                "calls": k, "predicted_std": math.sqrt(var),
                "pooled_std": math.sqrt(statistics.fmean(variances)),
                "z_mean": z_mean, "z_var": z_var,
            }
            if abs(z_mean) > self.Z_MEAN or abs(z_var) > self.Z_VAR:
                self.fail(
                    f"{label} {stat}: pooled std {math.sqrt(statistics.fmean(variances)):.6g} "
                    f"vs exact {math.sqrt(var):.6g} (z_mean {z_mean:.2f}, z_var {z_var:.2f})"
                )
        self.details["concordance"] = worst


# -- exact-sweep -------------------------------------------------------------------

class ExactSweep(Workload):
    """Moment, lemma and Kelly sweeps with explicit limits.

    The 15 calls of a cycle: nine moment sweeps over sampled compositions of
    two totals that add up to 44 (so each costs about the same), two lemma
    sweeps up to 4 cards, and four Kelly grids.
    """

    name = "exact-sweep"
    THEOREM_TOTALS = tuple((t, 44 - t) for t in range(14, 31, 2))
    # Two exhaustive sweeps to 4 cards (which take in every composition of 3)
    # are the slowest two fifteenths of a cycle, so call_p90_ms falls inside
    # a call of fixed inputs rather than in the tail of the sampled ones.
    LEMMA_N = (4, 4)
    KELLY_GRIDS = 4
    KELLY_STEP = 0.0005
    KELLY_STEPS = 800

    def calls(self, cycle: int) -> list[Call]:
        out = []
        for totals in self.THEOREM_TOTALS:
            s = derived_seed("theorem", self.seed, cycle, *totals)
            out.append(Call(
                "theorem-{}-{}".format(*totals), oracles.theorem_checks(totals, 1),
                lambda s=s, t=totals: verify.verify_theorem(
                    seed=s, exhaustive_limits=(), sampled_totals=t, samples_per_total=1),
                {"name": "theorem"},
            ))
        for n in self.LEMMA_N:
            out.append(Call(
                f"lemmas-{n}", oracles.lemma_checks(n),
                lambda n=n: verify.verify_lemmas(seed=0, exhaustive_n=n, random_instances=0),
                {"name": "lemmas"},
            ))
        for g in range(self.KELLY_GRIDS):
            rng = random.Random(f"kelly:{self.seed}:{cycle}:{g}")
            lo = round(0.505 + rng.randrange(450) * 1e-4, 4)
            hi = round(lo + self.KELLY_STEPS * self.KELLY_STEP, 4)
            out.append(Call(
                f"kelly-{g}", oracles.kelly_grid_checks(lo, hi, self.KELLY_STEP),
                lambda lo=lo, hi=hi: verify.verify_kelly(lo=lo, hi=hi, step=self.KELLY_STEP),
                {"name": "kelly"},
            ))
        return out

    def check(self, cycle: int, call: Call, out) -> bool:
        ok = out.name == call.inputs["name"] and out.passed and out.checked == call.ops
        if not ok:
            self.fail(
                f"{call.label}: {out.summary()}, expected {call.ops} checks; "
                f"{out.failures[:3]}"
            )
        return ok

    def digest(self, out):
        return (out.name, out.checked, tuple(out.failures))

    def finish(self) -> None:
        rng = random.Random(f"brute:{self.seed}")
        checked = 0
        for _ in range(12):
            weights = rng.choice(oracles.SWEEP_WEIGHT_SETS)
            total = rng.randint(3, 10)
            cuts = sorted(rng.randint(0, total) for _ in range(len(weights) - 1))
            counts = dict(zip(weights, (b - a for a, b in zip([0, *cuts], [*cuts, total]))))
            comp = counting.WeightComposition(counts)
            for n in range(1, total):
                want = tuple(sorted(oracles.brute_force_law(counts, n).items()))
                got = exact.tc_distribution(comp, n).atoms
                checked += 1
                if got != want:
                    self.fail(f"tc_distribution({counts}, {n}) differs from subset enumeration")
        self.details["brute_force_laws"] = checked


# -- cli-mix -----------------------------------------------------------------------

FORMATS = ("table", "csv", "json")
_CELL_SPLIT = re.compile(r"\s{2,}")

# Commands that fail today.  The documented contract for bad input is a
# typed error on stderr and exit code 2; meeting it turns each into a success.
FAULTY = (
    # n equals the cards left past the cut: exits 0 with NaN statistics.
    ["simulate", "--mode", "tc-increment", "--system", "hi-lo", "--decks", "1",
     "--penetration", "0.5", "--n-cards", "26", "--trials", "200", "--seed", "1"],
    # ZeroDivisionError traceback from GrowthStats.std.
    ["kelly", "--p0", "0.52", "--hands", "0"],
    # ValueError traceback from the int parse of --positions.
    ["sigma-table", "--penetration", "0.5", "--positions", "1,x"],
)


@dataclass(frozen=True)
class CliResult:
    code: object
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``truecount.cli.main(argv)`` in-process with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome under test
            code = f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue())


def parse_rows(text: str, fmt: str) -> list[tuple[str, list]]:
    """(row label, cells) of a rendered report table, notes left out."""
    if fmt == "json":
        doc = json.loads(text)
        return [(row["label"], row["cells"]) for row in doc["rows"]]
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))[2:]
    else:
        records = [_CELL_SPLIT.split(line) for line in text.splitlines()[2:]]
    return [(r[0], r[1:]) for r in records if len(r) > 1]


def _number(cell) -> float:
    value = float(str(cell).rstrip("*")) if not isinstance(cell, (int, float)) else float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


def _close(cell, want: float, fmt: str, precision: int) -> bool:
    got = _number(cell)
    if fmt == "json":
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return abs(got - want) <= 0.5 * 10.0**-precision + 1e-9 * max(1.0, abs(want))


class CliMix(Workload):
    """Every subcommand in-process, one caller, 31 commands per cycle."""

    name = "cli-mix"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(f"cli:{seed}")
        builtins = {s.name: s for s in counting.builtin_systems()}
        self.commands: list[tuple[str, list[str], Callable[[CliResult], None] | None]] = []
        add = self.commands.append

        sigma0 = {n: math.sqrt(_s0_squared(s)) for n, s in builtins.items()}
        for fmt in FORMATS:
            add(("systems", ["systems", "--format", fmt], self._table_check(
                fmt, 3, [(n, [sigma0[n]]) for n in builtins])))

        def sigma_table(label, system_args, s0):
            for fmt in FORMATS:
                decks = rng.choice((2, 4, 6, 8))
                pen = round(rng.uniform(0.25, 0.75), 3)
                n_seats = rng.randint(3, 7)
                positions = sorted(rng.sample(range(1, n_seats + 1), 3))
                hand = round(rng.uniform(2.2, 3.2), 2)
                bet, play = oracles.sigma_table_cells(s0, decks, pen, n_seats, positions, hand)
                add((label, ["sigma-table", *system_args, "--decks", str(decks),
                             "--penetration", str(pen), "--seats", str(n_seats),
                             "--positions", ",".join(map(str, positions)),
                             "--hand-mean", str(hand), "--format", fmt],
                     self._table_check(fmt, 3, [("sigma_bet", bet), ("sigma_play", play)])))

        # The systems are fixed and the seed varies the arguments only: a
        # system's weights change the cost of its calls by up to a fifth,
        # which would move the percentiles from one seed to the next.
        sigma_table("sigma-table", ["--system", "halves"], sigma0["halves"])
        file_system = builtins["thorp-ultimate"]
        path = workdir / f"system-{seed}.txt"
        weights13 = {r: file_system.weights["T" if r in "JQK" else r] for r in
                     ("A", "2", "3", "4", "5", "6", "7", "8", "9", "T", "J", "Q", "K")}
        path.write_text(
            f"# {file_system.name} with the ten-value ranks listed apart\n"
            + "".join(f"{r} {float(w)}\n" for r, w in weights13.items()),
            encoding="utf-8",
        )
        s0_file = math.sqrt(oracles.sigma0_squared(weights13, dict.fromkeys(weights13, 4)))
        sigma_table("sigma-table-file", ["--system", "bench-file", "--system-file", str(path)], s0_file)

        for fmt, fuzzy in zip(FORMATS, (False, True, True)):
            p0 = round(rng.uniform(0.505, 0.6), 4)
            var_p0 = round(rng.uniform(1e-5, 1e-3), 6) if fuzzy else 0.0
            hands = rng.choice((100, 1000, 40_000))
            cells = oracles.kelly_cells(p0, var_p0, hands)
            add(("kelly", ["kelly", "--p0", str(p0), "--var-p0", str(var_p0), "--hands",
                           str(hands), "--format", fmt],
                 self._table_check(fmt, 8, [(None, [c]) for c in cells])))

        for fmt in FORMATS:
            eps = round(rng.uniform(0.005, 0.03), 4)
            a, b = round(rng.uniform(0, 1), 3), round(rng.uniform(0, 1.5), 3)
            threshold = rng.choice((2.0, 3.0))
            cells = oracles.longrun_cells(eps, a, b, threshold)
            add(("longrun", ["longrun", "--eps", str(eps), "--sigma-bet-a", str(a),
                             "--sigma-bet-b", str(b), "--threshold", str(threshold),
                             "--format", fmt],
                 self._table_check(fmt, 1, [(None, [c]) for c in cells])))

        grid = oracles.kelly_grid_checks(0.505, 0.95, 0.005)
        add(("verify-kelly", ["verify", "kelly"], self._verify_check(grid)))

        for fmt, (sys_name, decks, left, n) in zip(FORMATS, (
            ("thorp-ultimate", 2, 40, 9), ("halves", 2, 52, 13), ("hi-lo", 6, 150, 45),
        )):
            counts = self._dealt_shoe(builtins[sys_name], decks, left, rng)
            spec = ",".join(f"{w}:{l}" for w, l in sorted(counts.items()))
            add((f"exact-{sys_name}", ["exact", f"--composition={spec}", "-n", str(n),
                                       "--format", fmt], self._exact_check(fmt, counts, n)))

        # Every mode in every format: the nine simulate calls are the slowest
        # three tenths of a cycle, so call_p90_ms falls inside them rather
        # than on the edge between two kinds of call.
        system = "zen"
        for i, fmt in enumerate(FORMATS):
            add(("simulate-seat-sigma", [
                "simulate", "--mode", "seat-sigma", "--system", system, "--decks", "8",
                "--penetration", "0.5", "--position", str(rng.randint(1, 7)),
                "--trials", "300", "--seed", str(derived_seed("sim", seed, 0, i)), "--format", fmt,
            ], self._simulate_check(fmt, {"sigma_bet", "sigma_play", "cards_per_hand"})))
            add(("simulate-tc-increment", [
                "simulate", "--mode", "tc-increment", "--system", system, "--decks", "8",
                "--penetration", "0.75", "--n-cards", "1,4,16", "--trials", "600",
                "--seed", str(derived_seed("sim", seed, 1, i)), "--format", fmt,
            ], self._simulate_check(fmt, {"tc_increment_n1", "tc_increment_n4", "tc_increment_n16"})))
            add(("simulate-bankroll", [
                "simulate", "--mode", "bankroll", "--p", "0.51", "--hands", "10000",
                "--trials", "200", "--seed", str(derived_seed("sim", seed, 2, i)), "--format", fmt,
            ], self._simulate_check(fmt, {"growth_rate"})))

        for argv in FAULTY:
            add((f"faulty-{argv[0]}", argv, None))
        self.reference: dict[int, str] = {}

    @staticmethod
    def _dealt_shoe(system, decks: int, left: int, rng: random.Random) -> dict[Fraction, int]:
        shoe = [w for r, w in system.weights.items()
                for _ in range((16 if r == "T" else 4) * decks)]
        counts: dict[Fraction, int] = {}
        for w in rng.sample(shoe, left):
            counts[w] = counts.get(w, 0) + 1
        return counts

    # -- per-command checks: each raises ValueError on a wrong output ----------

    @staticmethod
    def _table_check(fmt: str, precision: int, expected: list[tuple[str | None, list[float]]]):
        def check(res: CliResult):
            rows = parse_rows(res.stdout, fmt)
            if len(rows) != len(expected):
                raise ValueError(f"{len(rows)} rows, expected {len(expected)}")
            for (label, cells), (want_label, want) in zip(rows, expected):
                if want_label is not None and label != want_label:
                    raise ValueError(f"row {label!r}, expected {want_label!r}")
                if len(cells) != len(want) or not all(
                    _close(c, w, fmt, precision) for c, w in zip(cells, want)
                ):
                    raise ValueError(f"row {label!r}: {cells} vs closed form {want}")
        return check

    @staticmethod
    def _verify_check(grid: int):
        def check(res: CliResult):
            if res.stdout != f"kelly: PASS ({grid} checks)\n":
                raise ValueError(f"unexpected verify output {res.stdout!r}")
        return check

    @staticmethod
    def _exact_check(fmt: str, counts: dict[Fraction, int], n: int):
        N = sum(counts.values())
        tc = Fraction(oracles.running_count(counts), N)
        var = oracles.increment_variance(counts, n)

        def check(res: CliResult):
            rows = parse_rows(res.stdout, fmt)
            atoms = [(Fraction(label) / 52, Fraction(cells[0])) for label, cells in rows[:-3]]
            total, mean, atom_var = oracles.law_moments(atoms)
            (_, m_cells), (_, e_cells), (_, c_cells) = rows[-3:]
            if total != 1:
                raise ValueError(f"probabilities sum to {total}")
            if mean != tc or Fraction(m_cells[0]) != 52 * tc:
                raise ValueError(f"mean {m_cells[0]} / atoms {mean}, expected R/N = {tc}")
            if atom_var != var:
                raise ValueError(f"variance of the printed law {atom_var} != closed form {var}")
            sigma = 52 * math.sqrt(var)
            if not (_close(e_cells[0], sigma, fmt, 6) and _close(c_cells[0], sigma, fmt, 6)):
                raise ValueError(f"sigma cells {e_cells[0]}, {c_cells[0]} vs {sigma}")
        return check

    @staticmethod
    def _simulate_check(fmt: str, stats: set[str]):
        def check(res: CliResult):
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(res.stdout)))
                found = {r[0]: [float(x) for x in r[1:]] for r in rows[1:]}
                header_ok = rows[0] == ["statistic", "mean", "std", "stderr"]
            else:
                text = res.stdout
                if fmt == "table":
                    body, _, tail = text.rpartition("}\n")
                    text = body + "}"
                    for line in tail.splitlines():
                        if not line.startswith("predicted "):
                            raise ValueError(f"unexpected line {line!r}")
                        _number(line.rsplit(":", 1)[1])
                doc = json.loads(text)
                found = {k: list(v.values()) for k, v in doc["stats"].items()}
                header_ok = doc["kind"] in ("seat-sigma", "tc-increment", "bankroll")
            if not header_ok or set(found) != stats:
                raise ValueError(f"statistics {sorted(found)}, expected {sorted(stats)}")
            for values in found.values():
                for v in values:
                    _number(v)
        return check

    # -- workload interface --------------------------------------------------------

    def calls(self, cycle: int) -> list[Call]:
        return [
            Call(label, 1, lambda argv=argv: run_cli(argv), {"index": i, "check": check})
            for i, (label, argv, check) in enumerate(self.commands)
        ]

    def check(self, cycle: int, call: Call, out: CliResult) -> bool:
        checker = call.inputs["check"]
        if checker is None:
            return out.code == 2 and out.stderr.startswith("error:") and out.stdout == ""
        index = call.inputs["index"]
        if index in self.reference:
            if out.code != 0 or out.stdout != self.reference[index]:
                self.fail(f"{call.label}: output changed between identical calls")
                return False
            return True
        try:
            if out.code != 0:
                raise ValueError(f"exit {out.code}: {out.stderr.strip()[:200]}")
            checker(out)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            self.fail(f"{call.label} {self.commands[index][1]}: {exc}")
            return False
        self.reference[index] = out.stdout
        return True

    def digest(self, out: CliResult):
        return (out.code, out.stdout)


WORKLOADS = {w.name: w for w in (MonteCarlo, ExactSweep, CliMix)}

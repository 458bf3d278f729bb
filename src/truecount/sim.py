"""Seeded Monte Carlo engine for seat-sigma and bankroll experiments.

Reproducibility contract: trial ``i`` of a run with master seed ``s`` draws
from ``numpy.random.Philox(key=s, counter=i * 2**128)``, so reports are
bit-identical for a given (seed, trials, config) on any machine and under
any trial scheduling.  Seeds must lie in ``[0, 2**128)``, the Philox key
range.  The per-trial accounting runs through the numpy kernels in
:mod:`truecount.kernels`.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels
from .counting import CountSystem, fresh_shoe
from .errors import BadRangeError, InvariantError, ShoeExhaustedError
from .kelly import kelly_fraction
from .seats import SeatCardModel


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-split Philox stream for one trial."""
    if not 0 <= master_seed < 2**128:
        raise BadRangeError(f"seed must be in [0, 2**128), got {master_seed}")
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=trial * 2**128)
    )


@dataclass(frozen=True)
class StatRow:
    mean: float
    std: float
    stderr: float


@dataclass
class SimulationReport:
    """Empirical statistics of one simulation run."""

    kind: str
    seed: int
    trials: int
    config: dict
    stats: dict[str, StatRow] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "trials": self.trials,
            "config": self.config,
            "stats": {
                name: {"mean": row.mean, "std": row.std, "stderr": row.stderr}
                for name, row in sorted(self.stats.items())
            },
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["statistic", "mean", "std", "stderr"])
        for name, row in sorted(self.stats.items()):
            writer.writerow([name, repr(row.mean), repr(row.std), repr(row.stderr)])
        return buf.getvalue()


def _stat_row(samples: np.ndarray, notes: list[str], label: str) -> StatRow:
    mean = float(np.mean(samples))
    if samples.size < 2:
        notes.append(f"{label}: insufficient-sample (need >= 2 trials for a std)")
        return StatRow(mean, float("nan"), float("nan"))
    std = float(np.std(samples, ddof=1))
    return StatRow(mean, std, std / math.sqrt(samples.size))


def _shoe_cards(system: CountSystem, decks: int) -> tuple[np.ndarray, int]:
    """Shoe expanded to one integer-scaled weight per card."""
    comp = fresh_shoe(system, decks)
    scale = 1
    for w in comp.counts:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    parts = [
        np.full(l, int(w * scale), dtype=np.int64)
        for w, l in sorted(comp.counts.items())
        if l > 0
    ]
    return np.concatenate(parts), scale


def _cut_index(decks: int, penetration: float) -> int:
    if not 0 < penetration < 1:
        raise BadRangeError(f"penetration must be in (0, 1), got {penetration}")
    return round(52 * decks * penetration)


def predicted_increment_std(
    system: CountSystem, decks: int, penetration: float, n: int
) -> float:
    """Closed-form std (deck units) of the true-count change over n cards.

    Averages the per-composition dispersion over the random composition at
    the cut, with no large-deck approximations, so it is the exact target
    the simulator converges to.
    """
    if not (float(n).is_integer() and n >= 0):
        raise BadRangeError(f"n must be a whole number of cards, got {n}")
    n = int(n)
    n0 = 52 * decks
    cut = _cut_index(decks, penetration)
    remaining = n0 - cut
    if n >= remaining:
        raise BadRangeError(f"n={n} exceeds the {remaining} cards past the cut")
    s0_sq = Fraction(system.sigma0_squared())
    var_tc_cut = Fraction(cut) * s0_sq / ((n0 - 1) * remaining)
    mean_sigma1_sq = (s0_sq - var_tc_cut) / (remaining - 1) ** 2
    var = Fraction(remaining - 1, remaining - n) * n * mean_sigma1_sq
    return 52 * math.sqrt(var)


def simulate_tc_increment(
    system: CountSystem,
    decks: int,
    penetration: float,
    n_cards: Sequence[int],
    trials: int,
    seed: int,
) -> SimulationReport:
    """Measure the true-count change over exactly n unseen cards.

    Each trial shuffles a fresh shoe, reveals cards to the penetration
    point, then reveals ``n`` more; the report carries one statistic per
    requested ``n`` (deck units).
    """
    if trials < 1:
        raise BadRangeError(f"trials must be >= 1, got {trials}")
    n_cards = sorted(set(int(n) for n in n_cards))
    if not n_cards or n_cards[0] < 1:
        raise BadRangeError(f"n_cards must be positive integers, got {n_cards}")
    shoe, scale = _shoe_cards(system, decks)
    n0 = shoe.size
    cut = _cut_index(decks, penetration)
    max_n = n_cards[-1]
    # Strict, as in seat-sigma: the true count after n cards needs one unseen.
    if cut + max_n >= n0:
        raise ShoeExhaustedError(
            f"n={max_n} leaves no card unseen: {n0 - cut} remain past the cut"
        )
    r_cut = np.empty(trials, dtype=np.int64)
    tail = np.empty((trials, max_n), dtype=np.int64)
    for t in range(trials):
        perm = trial_rng(seed, t).permutation(shoe)
        r_cut[t] = perm[:cut].sum()
        tail[t] = perm[cut : cut + max_n]
    remaining = n0 - cut
    tc_cut = 52.0 * r_cut / (scale * remaining)
    notes: list[str] = []
    report = SimulationReport(
        kind="tc-increment",
        seed=seed,
        trials=trials,
        config={
            "system": system.name,
            "decks": decks,
            "penetration": penetration,
            "n_cards": n_cards,
        },
        notes=notes,
    )
    zeros = np.zeros(trials, dtype=np.int64)
    for n in n_cards:
        n_arr = np.full(trials, n, dtype=np.int64)
        _, r_after, _ = kernels.seat_tallies(r_cut, tail, n_arr, zeros)
        tc_after = 52.0 * r_after / (scale * (remaining - n))
        report.stats[f"tc_increment_n{n}"] = _stat_row(
            tc_after - tc_cut, notes, f"tc_increment_n{n}"
        )
    return report


def _sample_extras(
    rng: np.random.Generator, model: SeatCardModel
) -> np.ndarray:
    """One extra-card draw per seat from the model's hand-length law."""
    values = np.array([h for h, _ in model.extra_cards_law], dtype=np.int64)
    cum = np.cumsum([p for _, p in model.extra_cards_law])
    u = rng.random(model.seats)
    return values[np.searchsorted(cum, u, side="right").clip(max=values.size - 1)]


def simulate_seat_sigma(
    system: CountSystem,
    decks: int,
    penetration: float,
    model: SeatCardModel,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Empirical bet->play and play->dealer true-count dispersion for a seat."""
    if trials < 1:
        raise BadRangeError(f"trials must be >= 1, got {trials}")
    shoe, scale = _shoe_cards(system, decks)
    n0 = shoe.size
    cut = _cut_index(decks, penetration)
    base_deal = 2 * (model.seats + 1)
    # Strict: the dealer moment still needs at least one card in the shoe.
    worst = cut + base_deal + model.seats * model.max_extra
    if worst >= n0:
        raise ShoeExhaustedError(
            f"worst-case hand needs {worst} cards but the shoe holds {n0}"
        )
    max_tail = base_deal + model.seats * model.max_extra
    r_cut = np.empty(trials, dtype=np.int64)
    tail = np.empty((trials, max_tail), dtype=np.int64)
    n_bet = np.empty(trials, dtype=np.int64)
    n_play = np.empty(trials, dtype=np.int64)
    extras_total = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = trial_rng(seed, t)
        perm = rng.permutation(shoe)
        extras = _sample_extras(rng, model)
        r_cut[t] = perm[:cut].sum()
        tail[t] = perm[cut : cut + max_tail]
        n_bet[t] = base_deal + extras[: model.position - 1].sum()
        n_play[t] = extras[model.position - 1 :].sum()
        extras_total[t] = extras.sum()
    r_bet, r_play, r_dealer = kernels.seat_tallies(r_cut, tail, n_bet, n_play)
    remaining = n0 - cut
    tc_bet = 52.0 * r_bet / (scale * remaining)
    tc_play = 52.0 * r_play / (scale * (remaining - n_bet))
    dealer_left = remaining - n_bet - n_play
    tc_dealer = 52.0 * r_dealer / (scale * dealer_left)
    notes: list[str] = []
    report = SimulationReport(
        kind="seat-sigma",
        seed=seed,
        trials=trials,
        config={
            "system": system.name,
            "decks": decks,
            "penetration": penetration,
            "seats": model.seats,
            "position": model.position,
            "hand_mean": model.mean_cards_per_hand,
        },
        notes=notes,
    )
    report.stats["sigma_bet"] = _stat_row(tc_play - tc_bet, notes, "sigma_bet")
    report.stats["sigma_play"] = _stat_row(tc_dealer - tc_play, notes, "sigma_play")
    report.stats["cards_per_hand"] = _stat_row(
        2.0 + extras_total / model.seats, notes, "cards_per_hand"
    )
    return report


@dataclass(frozen=True)
class FixedAdvantageModel:
    """Same win probability every hand; bet at the Kelly fraction for p."""

    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise BadRangeError(f"need 0 < p < 1, got {self.p}")


@dataclass(frozen=True)
class TwoPointAdvantageModel:
    """Advantage p0 +/- sqrt(var_p0), equally likely, re-drawn every hand.

    The bet tracks the observed advantage of the hand, so the growth-rate
    noise includes the advantage-dispersion term.
    """

    p0: float
    var_p0: float

    def __post_init__(self):
        if not 0 < self.p0 < 1:
            raise BadRangeError(f"need 0 < p0 < 1, got {self.p0}")
        if self.var_p0 < 0:
            raise BadRangeError(f"need var_p0 >= 0, got {self.var_p0}")
        spread = math.sqrt(self.var_p0)
        if not (0 < self.p0 - spread and self.p0 + spread < 1):
            raise BadRangeError("two-point advantage leaves (0, 1)")

    @property
    def levels(self) -> tuple[float, float]:
        spread = math.sqrt(self.var_p0)
        return self.p0 - spread, self.p0 + spread


def simulate_bankroll(
    adv_model,
    n_hands: int,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Per-trial exponential growth rate G_n under Kelly betting."""
    if n_hands < 1 or trials < 1:
        raise BadRangeError(
            f"need n_hands >= 1 and trials >= 1, got {n_hands}, {trials}"
        )
    growth = np.empty(trials, dtype=np.float64)
    if isinstance(adv_model, FixedAdvantageModel):
        f = kelly_fraction(adv_model.p)
        up, down = math.log1p(f), math.log1p(-f)
        for t in range(trials):
            u = trial_rng(seed, t).random(n_hands)
            wins = kernels.count_wins(u, adv_model.p)
            growth[t] = (wins * up + (n_hands - wins) * down) / n_hands
        config = {"model": "fixed", "p": adv_model.p}
    elif isinstance(adv_model, TwoPointAdvantageModel):
        p_lo, p_hi = adv_model.levels
        f_lo, f_hi = kelly_fraction(p_lo), kelly_fraction(p_hi)
        up_lo, down_lo = math.log1p(f_lo), math.log1p(-f_lo)
        up_hi, down_hi = math.log1p(f_hi), math.log1p(-f_hi)
        for t in range(trials):
            rng = trial_rng(seed, t)
            u_state = rng.random(n_hands)
            u_win = rng.random(n_hands)
            n_hi, w_hi, w_lo = kernels.count_wins_two_state(u_state, u_win, p_lo, p_hi)
            n_lo = n_hands - n_hi
            growth[t] = (
                w_hi * up_hi
                + (n_hi - w_hi) * down_hi
                + w_lo * up_lo
                + (n_lo - w_lo) * down_lo
            ) / n_hands
        config = {"model": "two-point", "p0": adv_model.p0, "var_p0": adv_model.var_p0}
    else:
        raise BadRangeError(f"unsupported advantage model {adv_model!r}")
    if not np.all(np.isfinite(growth)):
        raise InvariantError("bankroll hit zero despite a sub-unit Kelly fraction")
    notes: list[str] = []
    report = SimulationReport(
        kind="bankroll",
        seed=seed,
        trials=trials,
        config={**config, "n_hands": n_hands},
        notes=notes,
    )
    report.stats["growth_rate"] = _stat_row(growth, notes, "growth_rate")
    return report

"""Seeded Monte Carlo engine for seat-sigma and bankroll experiments.

Reproducibility contract (stream version 2): trials run in chunks of
:data:`CHUNK`, and chunk ``c`` of a run with master seed ``s`` draws from
``numpy.random.Philox(key=s, counter=c * 2**128)``, so reports are
byte-identical for a given (seed, trials, config, numpy version) on any
machine and under any chunk scheduling.  Seeds must lie in ``[0, 2**128)``,
the Philox key range.

A shoe trial never shuffles the shoe: it needs only the running count at
the cut and the next few cards.  The census of the cards dealt before the
cut is drawn multivariate hypergeometric for the whole chunk, then the tail
card by card, each uniform among the cards left, which is the law of a
uniformly shuffled shoe.  Each tail card costs two int32 array passes
over the chunk, a compare and a subtract; its weight class is read off the
stored compares once the whole tail is drawn, and
:func:`truecount.kernels.running_counts` turns the classes into one table
per chunk of every trial's running-count change after each tail card, in
the smallest integer type that holds it (int8 while the largest scaled
weight times the tail length is at most 127, as for hi-lo seats), kept
apart from each trial's int64 count at the cut.  Arrays of per-trial
draws keep their trials on the last axis.  A bankroll trial draws its hands
per state of its model's (weight, p) law, then its wins.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from . import counting, kernels
from .counting import CountSystem, real_number, shown, whole_number
from .errors import BadRangeError, InvariantError, ShoeExhaustedError
from .kelly import FuzzyAdvantage, kelly_fraction
from .seats import SeatCardModel


#: Trials per random stream.  Part of the stream contract, not an option.
CHUNK = 4096

#: Version of the stream contract, written into JSON reports.
STREAM_VERSION = 2


def trial_rng(master_seed: int, chunk: int) -> np.random.Generator:
    """Counter-split Philox stream for one chunk of :data:`CHUNK` trials."""
    key = whole_number(master_seed, "seed", 0, 2**128)
    counter = whole_number(chunk, "chunk", 0, 2**128) * 2**128
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _by_chunk(seed: int, trials: int, draw) -> list[np.ndarray]:
    """Join the arrays of ``draw(stream, size)`` over a run's chunks.

    Each array holds its trials on its last axis, and the chunks are joined
    along it; a run of one chunk returns its arrays as drawn.
    """
    parts = [
        draw(trial_rng(seed, c), min(CHUNK, trials - start))
        for c, start in enumerate(range(0, trials, CHUNK))
    ]
    if len(parts) == 1:
        return list(parts[0])
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]


@dataclass(frozen=True)
class StatRow:
    mean: float
    std: float
    stderr: float


@dataclass
class SimulationReport:
    """Empirical statistics of one simulation run, of 2 trials (the fewest that
    give a std) to 2**63 - 1 (numpy's longest array)."""

    kind: str
    seed: int
    trials: int
    config: dict
    stats: dict[str, StatRow] = field(default_factory=dict)

    def __post_init__(self):
        self.trials = whole_number(self.trials, "trials", 2, 2**63)
        self.seed = whole_number(self.seed, "seed", 0, 2**128)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stream_version": STREAM_VERSION,
            "seed": self.seed,
            "trials": self.trials,
            "config": self.config,
            "stats": {
                name: {"mean": row.mean, "std": row.std, "stderr": row.stderr}
                for name, row in sorted(self.stats.items())
            },
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


def _stat_row(samples: np.ndarray, label: str) -> StatRow:
    if not np.isfinite(samples).all():
        raise InvariantError(f"{label}: non-finite sample")
    std = float(samples.std(ddof=1))
    return StatRow(float(samples.mean()), std, std / math.sqrt(samples.size))


def _shoe_classes(system: CountSystem, decks: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Integer-scaled weight and card count of each weight class of a shoe.

    No running count of the shoe, at the cut or the cut count plus a tail's
    change, passes its largest scaled weight times its cards, and that bound
    must lie below 2**63 for int64 arrays to hold it.
    """
    weights, counts, scale = system.scaled_classes
    if max(map(abs, weights)) * 52 * decks >= 2**63:
        raise BadRangeError(
            f"running counts of {system.name} in {decks} decks can pass the int64 range"
        )
    return (
        np.array(weights, dtype=np.int64),
        np.array(counts, dtype=np.int64) * decks,
        scale,
    )


def _draw_cut_and_tail(
    rng: np.random.Generator,
    size: int,
    weights: np.ndarray,
    counts: np.ndarray,
    cut: int,
    tail_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled running count at the cut and its change over ``tail_len`` cards.

    Returns each trial's int64 count at the cut and the chunk's
    :func:`truecount.kernels.running_counts` table, whose row j holds each
    trial's change after j cards past the cut.  Each tail card is a uniform
    position ``u`` among the cards left, and its class is the first whose
    running total of cards left exceeds ``u``.  The rows that ``u`` lies
    below are then exactly the rows of that class and after, which are the
    rows that lose the card: one compare and one subtract per card, and the
    classes are read off the stored compares once the tail is drawn.  The
    last row, all the cards left, is always above ``u``, so it is not kept.
    """
    census = rng.multivariate_hypergeometric(counts, cut, size=size)
    # Cards left in each class and the classes before it, one row per class
    # but the last, summed row by row: a cumsum over the short class axis
    # takes several times as long.  A shoe holds fewer than MAX_SHOE_CARDS
    # < 2**31 cards, so the rows and the draws fit int32, and an int32 draw
    # below 2**31 takes the same value and generator state as an int64 one.
    cum_left = np.subtract(counts[:-1, None], census.T[:-1], dtype=np.int32, order="C")
    for k in range(1, counts.size - 1):
        cum_left[k] += cum_left[k - 1]
    n_left = int(counts.sum()) - cut
    below = np.empty((tail_len, counts.size - 1, size), dtype=bool)
    for j in range(tail_len):
        u = rng.integers(0, n_left - j, size=size, dtype=np.int32)
        np.less(u, cum_left, out=below[j])
        cum_left -= below[j]
    # An int8 count holds up to 127 rows; a system has at most 13 classes.
    classes = counts.size - 1 - below.sum(axis=1, dtype=np.int8)
    return census @ weights, kernels.running_counts(weights, classes)


def _shoe_run(
    kind: str, system: CountSystem, decks: int, penetration: float,
    tail_len: int, trials: int, seed: int, config: dict, extra=None,
):
    """Deal every trial's shoe to the cut and ``tail_len`` cards past it.

    Each chunk draws the cut census and tail, then ``extra(rng, size)`` if
    given.  Returns the report, with the shoe's config keys before
    ``config``; ``true_counts(*ns)``, each trial's true count (deck units)
    after each n of ``ns`` tail cards; and the draws of ``extra``, if any.
    """
    decks, cut = counting._shoe_cut(decks, penetration)
    weights, counts, scale = _shoe_classes(system, decks)
    remaining = int(counts.sum()) - cut
    # The true count after the last tail card needs one card unseen.
    if tail_len >= remaining:
        raise ShoeExhaustedError(
            f"{shown(tail_len)} cards past the cut must leave one unseen, "
            f"but {remaining} remain"
        )

    shoe = {"system": system.name, "decks": decks, "penetration": penetration}
    report = SimulationReport(kind, seed, trials, {**shoe, **config})

    def draw(rng, size):
        shoe = _draw_cut_and_tail(rng, size, weights, counts, cut, tail_len)
        return shoe + ((extra(rng, size),) if extra else ())

    r_cut, change, *drawn = _by_chunk(report.seed, report.trials, draw)
    rows = np.arange(report.trials)

    def true_counts(*ns):
        return [
            52.0 * (r_cut + (change[n] if isinstance(n, int) else change[n, rows]))
            / (scale * (remaining - n))
            for n in ns
        ]

    return report, true_counts, *drawn


def simulate_tc_increment(
    system: CountSystem,
    decks: int,
    penetration: float,
    n_cards: Sequence[int],
    trials: int,
    seed: int,
) -> SimulationReport:
    """Measure the true-count change over exactly n unseen cards.

    Each trial deals a shuffled shoe to the penetration point, then reveals
    ``n`` more cards; the report carries one statistic per requested ``n``
    (deck units).
    """
    n_cards = sorted({whole_number(n, "n_cards", 1) for n in n_cards})
    if not n_cards:
        raise BadRangeError("n_cards must list at least one count")
    report, true_counts = _shoe_run(
        "tc-increment", system, decks, penetration, n_cards[-1], trials, seed,
        {"n_cards": n_cards},
    )
    tc_cut, *tc_after = true_counts(0, *n_cards)
    for n, tc in zip(n_cards, tc_after):
        label = f"tc_increment_n{n}"
        report.stats[label] = _stat_row(tc - tc_cut, label)
    return report


def _sample_extras(
    rng: np.random.Generator, model: SeatCardModel, size: int
) -> np.ndarray:
    """Extra cards of every seat in ``size`` trials, one row per seat."""
    values = np.array([h for h, _ in model.extra_cards_law], dtype=np.int64)
    cum = np.cumsum([p for _, p in model.extra_cards_law])
    u = rng.random((size, model.seats))
    index = np.searchsorted(cum, u, side="right")
    return values[np.minimum(index, values.size - 1, out=index)].T


def simulate_seat_sigma(
    system: CountSystem,
    decks: int,
    penetration: float,
    model: SeatCardModel,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Empirical bet->play and play->dealer true-count dispersion for a seat."""
    report, true_counts, extras = _shoe_run(
        "seat-sigma", system, decks, penetration,
        model.base_deal + model.seats * model.max_extra, trials, seed,
        {"seats": model.seats, "position": model.position,
         "hand_mean": model.mean_cards_per_hand},
        lambda rng, size: _sample_extras(rng, model, size),
    )
    ahead = model.hands_between[0]
    n_bet = model.base_deal + extras[:ahead].sum(axis=0)
    n_play = extras[ahead:].sum(axis=0)
    tc_bet, tc_play, tc_dealer = true_counts(0, n_bet, n_bet + n_play)
    report.stats["sigma_bet"] = _stat_row(tc_play - tc_bet, "sigma_bet")
    report.stats["sigma_play"] = _stat_row(tc_dealer - tc_play, "sigma_play")
    report.stats["cards_per_hand"] = _stat_row(
        2.0 + extras.sum(axis=0) / model.seats, "cards_per_hand"
    )
    return report


@dataclass(frozen=True)
class FixedAdvantageModel:
    """Same win probability every hand; bet at the Kelly fraction for p."""

    name: ClassVar[str] = "fixed"
    p: float

    def __post_init__(self):
        if not 0 < real_number(self.p, "p") < 1:
            raise BadRangeError(f"need 0 < p < 1, got {shown(self.p)}")

    @property
    def states(self) -> tuple[tuple[float, float], ...]:
        """The law of a hand's win probability: (weight, p) states."""
        return ((1.0, self.p),)


@dataclass(frozen=True)
class TwoPointAdvantageModel(FuzzyAdvantage):
    """Advantage p0 +/- sqrt(var_p0), equally likely, re-drawn every hand.

    The bet tracks the observed advantage of the hand, so the growth-rate
    noise includes the advantage-dispersion term.  Both levels must lie in
    (0, 1), which is stricter than the bound :class:`FuzzyAdvantage` checks.
    """

    name: ClassVar[str] = "two-point"

    def __post_init__(self):
        super().__post_init__()
        if not all(0 < p < 1 for p in self.levels):
            raise BadRangeError("two-point advantage leaves (0, 1)")

    @property
    def levels(self) -> tuple[float, float]:
        spread = math.sqrt(self.var_p0)
        return self.p0 - spread, self.p0 + spread

    @property
    def states(self) -> tuple[tuple[float, float], ...]:
        """The law of a hand's win probability, the high level first."""
        p_lo, p_hi = self.levels
        return ((0.5, p_hi), (0.5, p_lo))


def simulate_bankroll(
    adv_model,
    n_hands: int,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Per-trial exponential growth rate G_n under Kelly betting.

    A hand is at state (weight, p) of ``adv_model.states`` with probability
    weight and bets the Kelly fraction f of its p.  Each chunk draws the
    hands of every state but the last by sequential binomials, the last
    taking the rest, then the wins of each state, in state order; G_n sums
    wins * log1p(f) + losses * log1p(-f) over the states, over ``n_hands``.
    """
    # A whole number of hands: numpy's binomial sampler would truncate
    # 10.5 hands to 10, and it takes a count below 2**63.
    n_hands = whole_number(n_hands, "n_hands", 1, 2**63)
    if not isinstance(adv_model, (FixedAdvantageModel, TwoPointAdvantageModel)):
        raise BadRangeError(f"unsupported advantage model {adv_model!r}")
    states = adv_model.states
    logs = [(math.log1p(f), math.log1p(-f)) for f in (kelly_fraction(p) for _, p in states)]

    def draw(rng, size):
        hands, left, mass = [], n_hands, 1.0
        for weight, _ in states[:-1]:
            hands.append(rng.binomial(left, weight / mass, size))
            left, mass = left - hands[-1], mass - weight
        growth = 0.0
        for h, (_, p), (up, down) in zip([*hands, left], states, logs):
            wins = rng.binomial(h, p, size)
            growth = growth + wins * up + (h - wins) * down
        return (growth / n_hands,)

    report = SimulationReport(
        kind="bankroll",
        seed=seed,
        trials=trials,
        config={"model": adv_model.name, **asdict(adv_model), "n_hands": n_hands},
    )
    (growth,) = _by_chunk(report.seed, report.trials, draw)
    report.stats["growth_rate"] = _stat_row(growth, "growth_rate")
    return report

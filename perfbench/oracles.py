"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``truecount``: every figure is recomputed from the
inputs the benchmark hands to the program, with its own formulas.  Exact
quantities are :class:`fractions.Fraction`; the Kelly and long-run closed
forms are floats because the program presents them as floats.

Conventions shared with the program's documentation: a composition maps a
weight to the number of unseen cards of that weight; revealing a card of
weight ``w`` adds ``w`` to the running count, so ``R = -sum(w * l_w)``; the
true count is ``R / N`` in card units and ``52 R / N`` in deck units.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

#: Weight sets of the exhaustive sweeps, as documented for ``verify``.
SWEEP_WEIGHT_SETS: tuple[tuple[Fraction, ...], ...] = (
    (Fraction(-1), Fraction(1)),
    (Fraction(-1), Fraction(0), Fraction(1)),
    (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)),
    (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1)),
)

Composition = Mapping[Fraction, int]


# -- exact law of the true count ---------------------------------------------

def running_count(comp: Composition) -> Fraction:
    return -sum((w * l for w, l in comp.items()), Fraction(0))


def brute_force_law(comp: Composition, n: int) -> dict[Fraction, Fraction]:
    """Law of the true count (card units) after removing ``n`` unseen cards.

    Enumerates every n-subset of the individual cards, so it is only for
    small decks (C(N, n) subsets).
    """
    cards = [w for w, l in sorted(comp.items()) for _ in range(l)]
    N = len(cards)
    if not 1 <= n < N:
        raise ValueError(f"need 1 <= n < N, got n={n}, N={N}")
    R = running_count(comp)
    ways: dict[Fraction, int] = {}
    for subset in itertools.combinations(cards, n):
        value = (R + sum(subset, Fraction(0))) / (N - n)
        ways[value] = ways.get(value, 0) + 1
    total = math.comb(N, n)
    return {v: Fraction(c, total) for v, c in ways.items()}


def sigma1_squared(comp: Composition) -> Fraction:
    """Variance of the true count (card units) after one unseen removal."""
    N = sum(comp.values())
    tc = Fraction(running_count(comp), N)
    second = Fraction(sum((w * w * l for w, l in comp.items()), Fraction(0)), N)
    return (second - tc * tc) / (N - 1) ** 2


def increment_variance(comp: Composition, n: int) -> Fraction:
    """((N-1)/(N-n)) n sigma1^2: variance of the true count after n removals."""
    N = sum(comp.values())
    return Fraction(N - 1, N - n) * n * sigma1_squared(comp)


def law_moments(atoms: Sequence[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction, Fraction]:
    """(total probability, mean, variance) of a finite law given as atoms."""
    total = sum((p for _, p in atoms), Fraction(0))
    mean = sum((v * p for v, p in atoms), Fraction(0))
    var = sum((p * (v - mean) ** 2 for v, p in atoms), Fraction(0))
    return total, mean, var


# -- count systems ------------------------------------------------------------

def sigma0_squared(weights: Mapping[str, Fraction], cards_per_deck: Mapping[str, int]) -> Fraction:
    """Weight variance of a balanced system over one 52-card deck."""
    return sum(
        (Fraction(w) ** 2 * cards_per_deck[r] for r, w in weights.items()), Fraction(0)
    ) / 52


# -- Monte Carlo predictions (deck units, finite shoe) -------------------------

def mean_sigma1_squared_at_cut(s0_sq: Fraction, decks: int, seen: int) -> Fraction:
    """E[sigma1^2] over the random composition left after ``seen`` cards.

    The remaining M cards are a uniform subset of the shoe, so their mean
    squared weight is s0^2 and Var(R/M) = s0^2 seen / ((N0 - 1) M).
    """
    n0 = 52 * decks
    m = n0 - seen
    var_tc = s0_sq * seen / ((n0 - 1) * m)
    return (s0_sq - var_tc) / (m - 1) ** 2


def shoe_increment_variance(s0_sq: Fraction, decks: int, seen: int, n: int) -> Fraction:
    """Var of the deck-unit true-count change over ``n`` cards after ``seen``."""
    if n == 0:
        return Fraction(0)
    m = 52 * decks - seen
    if not 0 < n < m:
        raise ValueError(f"need 0 <= n < {m}, got {n}")
    return 52 * 52 * Fraction(m - 1, m - n) * n * mean_sigma1_squared_at_cut(s0_sq, decks, seen)


def convolve_law(law: Sequence[tuple[int, Fraction]], k: int) -> dict[int, Fraction]:
    """Law of the sum of ``k`` independent draws from ``law``."""
    out = {0: Fraction(1)}
    for _ in range(k):
        nxt: dict[int, Fraction] = {}
        for total, p in out.items():
            for h, q in law:
                nxt[total + h] = nxt.get(total + h, Fraction(0)) + p * q
        out = nxt
    return out


def seat_sigma_variances(
    s0_sq: Fraction,
    decks: int,
    cut: int,
    seats: int,
    position: int,
    extra_law: Sequence[tuple[int, Fraction]],
) -> tuple[Fraction, Fraction]:
    """Exact Var(sigma_bet) and Var(sigma_play) for one seat.

    The change over n unseen cards does not depend on which cards they are,
    and the numbers of cards dealt between the moments do not depend on the
    card order, so each variance is the increment variance averaged over the
    law of the card counts: n_bet = 2 (seats + 1) + extras of the seats
    ahead, n_play = extras of this seat and those after it.
    """
    ahead = convolve_law(extra_law, position - 1)
    behind = convolve_law(extra_law, seats - position + 1)
    base = 2 * (seats + 1)
    var_bet = Fraction(0)
    var_play = Fraction(0)
    for h_ahead, p_ahead in ahead.items():
        n_bet = base + h_ahead
        var_bet += p_ahead * shoe_increment_variance(s0_sq, decks, cut, n_bet)
        for n_play, p_behind in behind.items():
            var_play += (
                p_ahead * p_behind
                * shoe_increment_variance(s0_sq, decks, cut + n_bet, n_play)
            )
    return var_bet, var_play


def cards_per_hand_moments(extra_law: Sequence[tuple[int, Fraction]], seats: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of 2 + (extras over all seats) / seats."""
    mean_x = sum((h * p for h, p in extra_law), Fraction(0))
    var_x = sum((p * (h - mean_x) ** 2 for h, p in extra_law), Fraction(0))
    return 2 + mean_x, var_x / seats


def growth_moments(states: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Per-hand mean and variance of the log growth under Kelly betting.

    ``states`` lists (probability of the state, win probability in it); the
    bettor stakes max(0, 2p - 1) of the bankroll, so a hand's growth is
    log(1 + f) on a win and log(1 - f) on a loss.
    """
    first = second = 0.0
    for weight, p in states:
        f = max(0.0, 2 * p - 1)
        up, down = math.log1p(f), math.log1p(-f)
        first += weight * (p * up + (1 - p) * down)
        second += weight * (p * up * up + (1 - p) * down * down)
    return first, second - first * first


# -- closed forms behind the CLI tables ---------------------------------------

def sigma_table_cells(
    s0: float, decks: int, penetration: float, seats: int,
    positions: Sequence[int], hand_mean: float,
) -> tuple[list[float], list[float]]:
    """Paper's approximation 52 sqrt(n) Sigma0 / N for the bet and play rows."""
    remaining = 52 * decks * (1 - penetration)
    h = hand_mean - 2
    bet = [52 * math.sqrt(2 * (seats + 1) + (p - 1) * h) * s0 / remaining for p in positions]
    play = [52 * math.sqrt((seats - p + 1) * h) * s0 / remaining for p in positions]
    return bet, play


def kelly_cells(p0: float, var_p0: float, hands: int) -> list[float]:
    """Kelly fraction, growth mean, one-hand variance and std over ``hands``."""
    fraction = max(0.0, 2 * p0 - 1)
    if p0 <= 0.5:
        return [fraction, 0.0, 0.0, 0.0]
    q0 = 1 - p0
    logit = math.log(p0 / q0)
    mean = p0 * math.log(2 * p0) + q0 * math.log(2 * q0) + var_p0 / (2 * p0 * q0)
    var = p0 * q0 * logit**2 + (1 - (2 * p0 - 1) * logit) / (p0 * q0) * var_p0
    return [fraction, mean, var, math.sqrt(var / hands)]


def longrun_cells(eps: float, sigma_a: float, sigma_b: float, threshold: float) -> list[float]:
    """Rows of the ``longrun`` table, from N = t^2 (1 + sigma^2) / eps^2."""
    n_a = threshold**2 * (1 + sigma_a**2) / eps**2
    n_b = threshold**2 * (1 + sigma_b**2) / eps**2
    delta = n_b - n_a
    return [
        n_a, n_b, delta, delta / n_a, 2.5 * delta, 2.5 * delta / 50,
        2 * n_a, 2.5 * n_a, 2.5 * n_a / 50,
    ]


# -- sizes of the verification sweeps ------------------------------------------

def stars_and_bars(total: int, slots: int):
    """Every tuple of ``slots`` non-negative integers summing to ``total``."""
    for cuts in itertools.combinations(range(total + slots - 1), slots - 1):
        edges = (-1, *cuts, total + slots - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def theorem_checks(sampled_totals: Sequence[int], samples_per_total: int) -> int:
    """Checks of a sampled moment sweep: 3 (T - 1) per composition of T cards."""
    return sum(
        len(SWEEP_WEIGHT_SETS) * samples_per_total * 3 * (t - 1) for t in sampled_totals
    )


def lemma_checks(exhaustive_n: int) -> int:
    """Checks of the exhaustive lemma sweep over the first two weight sets.

    Per composition: every feasible removal prefix of length 0 to 2; per
    prefix of length p, lemma 1 for each v0 when p <= N - 2, lemma 2 for
    each clump of q + 1 weights (q in 0, 1) when p + q <= N - 2, and lemma 3/4
    for k in 1, 2 and q in 0, 1 when p + k + q <= N - 1; plus lemma 6 for
    every weight tuple of length n in 1 .. min(2, N - 1).
    """
    count = 0
    for weights in SWEEP_WEIGHT_SETS[:2]:
        c = len(weights)
        for total in range(2, exhaustive_n + 1):
            for counts in stars_and_bars(total, c):
                have = dict(zip(weights, counts))
                lengths = [0]
                for length in (1, 2):
                    for seq in itertools.product(weights, repeat=length):
                        if all(have[w] >= seq.count(w) for w in set(seq)):
                            lengths.append(length)
                for p in lengths:
                    if p <= total - 2:
                        count += c
                    count += sum(c ** (q + 1) for q in (0, 1) if p + q <= total - 2)
                    count += sum(
                        c ** (q + 1) for k in (1, 2) for q in (0, 1) if p + k + q <= total - 1
                    )
                count += sum(c**n for n in range(1, min(3, total)))
    return count


def kelly_grid_checks(lo: float, hi: float, step: float) -> int:
    return round((hi - lo) / step) + 1

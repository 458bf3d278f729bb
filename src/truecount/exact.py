"""Exact distribution of the true count after n removals.

The distribution is materialized over removal censuses (how many cards of
each weight class were removed) instead of ordered removal sequences.  A
census DP counts the n-card subsets by the running count their removal
leaves, up to n = N/2.  It holds one row per n, each one Python int whose
B-bit slots hold the counts of consecutive running counts, g apart, from
the row's least one, and adds each weight class to the rows in place, in
descending order of n, so a row reads only rows the class has not yet
touched: one multiply, shift and add per row and number of the class's
cards removed; all of it is integer.  The law past N/2 is the mirror of the law at N - n,
since removing the other N - n cards leaves scale * R - x where removing
the n leaves x.  A law is the one packed DP row it reads, over the common
denominator C(N, n) * scale * (N - n).  Its moments come from the integer
power sums (S0, S1, S2) of x, read from one remainder of the row's int
(``_row_sums``) and mirrored by arithmetic alone (``_mirrored``): the
readout that the moment sweep checks for every row of one DP to N/2.
Only a law's atoms unpack the row (``_unpacked``).  Rationals appear
only in the results; square roots only when a standard deviation is
presented as a float.

The finite-shoe predictors average that law's variance over a uniform cut
in closed form: the std of the true-count change past the cut, and a
seat's sigma_bet and sigma_play, the targets of :mod:`truecount.sim`.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .counting import (
    CountSystem, WeightComposition, _comparable, _shoe_cut, as_weight, float_sqrt,
    scaled_classes, shown, whole_number,
)
from .errors import BadRangeError, EmptyClassError, InfeasiblePrefixError
from .seats import SeatCardModel


class SigmaResult(NamedTuple):
    """A standard deviation with its exactly-represented square."""

    value: float
    squared: Fraction


@dataclass(frozen=True)
class TrueCountDistribution:
    """Finite rational law of the true count after ``n`` removals.

    ``row`` is the census DP row m = min(n, N - n) of ``source``, packed
    (``_packed_layers``), and ``start`` is scale * R; past N/2 the law is
    that row mirrored, x -> start - x.  ``ways[x]`` is the number of
    ``n``-card subsets whose removal leaves the running count ``x / scale``.
    Such a removal leaves the true count ``x / (scale * (N - n))``, with
    probability ``ways[x] / C(N, n)``.  ``sums`` holds the integer power
    sums ``(S0, S1, S2)`` of ``x`` weighted by ``ways``, read from the
    packed row as the moment sweep reads it, then the two denominators
    ``C(N, n)`` and ``scale * (N - n)``.
    """

    # A row of a large shoe has more digits than ``str`` prints.
    row: PackedRows = field(repr=False, compare=False)
    start: int
    scale: int
    n: int
    source: WeightComposition

    @cached_property
    def sums(self) -> tuple[int, int, int, int, int]:
        N = self.source.total
        (sums,) = _row_sums(self.row)
        if 2 * self.n > N:
            sums = _mirrored(sums, self.start)
        return (*sums, math.comb(N, self.n), self.scale * (N - self.n))

    @cached_property
    def ways(self) -> dict[int, int]:
        (ways,) = _unpacked(self.row)
        if 2 * self.n > self.source.total:
            ways = {self.start - x: w for x, w in ways.items()}
        return ways

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """``(value, probability)`` pairs sorted by value."""
        *_, c, d = self.sums
        return tuple(
            (Fraction(x, d), Fraction(self.ways[x], c)) for x in sorted(self.ways)
        )

    def mean(self) -> Fraction:
        _, s1, _, c, d = self.sums
        return Fraction(s1, c * d)

    def variance(self) -> Fraction:
        """Sum of p * (v - mean)**2, exact even if the p do not sum to 1."""
        s0, s1, s2, c, d = self.sums
        return Fraction(_variance_numerator(s0, s1, s2, c), c**3 * d * d)


def _mirrored(sums: tuple[int, int, int], start: int) -> tuple[int, int, int]:
    """The power sums of the mirror x -> start - x of a row with power sums ``sums``."""
    s0, s1, s2 = sums
    return s0, start * s0 - s1, start * start * s0 - 2 * start * s1 + s2


def _variance_numerator(s0: int, s1: int, s2: int, c: int) -> int:
    """A law's variance times c^3 d^2, from its power sums over denominators c and d.

    E[v^2] - mean^2 * (2 - sum p), over the common denominator c^3 d^2, so
    the variance is exact even if the probabilities do not sum to 1.
    """
    return s2 * c * c - s1 * s1 * (2 * c - s0)


class PackedRows(NamedTuple):
    """Census DP rows lo..hi, each one integer of ``width``-bit slots.

    Slot i of ``rows[k]`` holds the number of (lo + k)-subsets whose removal
    leaves the scaled running count ``bases[k] + step * i``.
    """

    rows: list[int]
    bases: list[int]
    step: int
    width: int


def _slot_width(N: int, hi: int, span: int) -> int:
    """Bits per slot of the rows to ``hi`` of N cards, whose slots span ``span``.

    A row n <= hi holds at most C(N, min(hi, N // 2)) subsets in all, and
    sum i a_i and sum C(i, 2) a_i over its slots i <= span are at most span
    and span^2 times that; one bit past their bound keeps all three below
    2^width - 1, so ``_row_sums`` reads them as digits of one remainder.
    """
    return (math.comb(N, min(hi, N // 2)) * (span * span + 1)).bit_length() + 1


def _packed_layers(
    weights: Sequence[int], counts: Sequence[int], start: int, lo: int, hi: int
) -> PackedRows:
    """For each n in ``lo..hi``: the n-subsets by scaled running count, packed.

    ``weights`` are in increasing order and ``start`` is the scaled running
    count before any removal, scale * R.  A removal leaves start + n w_0 +
    g i, where g is the gcd of the weights' gaps to the smallest weight w_0
    and i the sum of the removed cards' steps (w - w_0) / g, so each row n
    is one integer whose slot i - offset_n counts the subsets of index i;
    offset_n is the row's least index.  Dynamic programming over weight
    classes, one row per number of cards removed, updated in place.  A
    class of l cards of step s adds to row r, for each c >= 1, C(l, c) times
    row r - c shifted by its offset plus c s, one multiply, shift and add
    on integers; the rows are updated in descending order, so each reads
    rows that this class has not touched yet.  The classes come in
    increasing weight order, so no term reaches below a nonempty row's
    least index: only the first term into an empty row sets its offset.
    Rows that can no longer end in ``lo..hi`` removals are emptied, and a
    class builds only the binomials those rows read.  The multiplicities
    are products of binomial coefficients summed over censuses, so row n
    totals C(N, n) exactly, and no slot carries into the next
    (``_slot_width``).
    """
    w0 = weights[0]
    g = math.gcd(*(w - w0 for w in weights)) or 1
    N = sum(counts)
    width = _slot_width(N, hi, hi * (weights[-1] - w0) // g)
    rows, offsets = [1] + [0] * hi, [0] * (hi + 1)
    remaining, taken = N, 0  # cards in the classes after and before w
    for w, l in zip(weights, counts):
        remaining -= l
        step = (w - w0) // g
        # Rows below lo - remaining cannot reach lo with the classes left.
        floor = max(0, lo - remaining)
        top = min(taken + l, hi)
        binom = {c: math.comb(l, c) for c in range(max(1, floor - taken), min(l, top) + 1)}
        for r in range(top, floor - 1, -1):
            # Row r - c is empty past the ``taken`` cards of the classes before w,
            # so an empty row r > taken starts with c = r - taken, which sets its offset.
            if r > taken:
                c = r - taken
                offset = offsets[taken] + c * step
                row = binom[c] * rows[taken]
            else:
                row, offset, c = rows[r], offsets[r], 0
            for c in range(c + 1, (l if l < r else r) + 1):
                row += binom[c] * rows[r - c] << (offsets[r - c] + c * step - offset) * width
            rows[r], offsets[r] = row, offset
        for r in range(floor):
            rows[r] = 0
        taken += l
    bases = [start + n * w0 + g * offsets[n] for n in range(lo, hi + 1)]
    return PackedRows(rows[lo:], bases, g, width)


def _unpacked(packed: PackedRows) -> list[dict[int, int]]:
    """Each packed row as a scaled running count -> subsets dict."""
    width, step = packed.width, packed.step
    layers = []
    for row, base in zip(packed.rows, packed.bases):
        bits = format(row, "b")
        bits = bits.zfill(-(-len(bits) // width) * width)
        slots = (int(bits[j - width : j], 2) for j in range(len(bits), 0, -width))
        layers.append({base + step * i: ways for i, ways in enumerate(slots) if ways})
    return layers


def _row_sums(packed: PackedRows) -> list[tuple[int, int, int]]:
    """``(S0, S1, S2)`` of each packed row, from one remainder per row.

    With z = 2^width, a row is P = sum a_i z^i, and z = 1 + (z - 1) gives
    P mod (z - 1)^3 = S0 + T1 (z - 1) + T2 (z - 1)^2, where T1 = sum i a_i
    and T2 = sum C(i, 2) a_i.  The slot width keeps S0, T1 and T2 below
    z - 1, so they are that remainder's base-(z - 1) digits.  A slot i
    holds the running count x = base + step * i, so S1 = base S0 + step T1
    and S2 = base^2 S0 + 2 base step T1 + step^2 (2 T2 + T1).
    """
    y = (1 << packed.width) - 1
    square, cube, g = y * y, y**3, packed.step
    sums = []
    for row, base in zip(packed.rows, packed.bases):
        t2, rest = divmod(row % cube, square)
        t1, s0 = divmod(rest, y)
        s1 = base * s0 + g * t1
        sums.append((s0, s1, base * (s1 + g * t1) + g * g * (2 * t2 + t1)))
    return sums


def _scaled(counts) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """``(weights, counts, scale, r)``: ``scaled_classes(counts)``, and
    r = scale * R, the running count scaled to an integer.

    ``counts`` is a weight -> count mapping or its (weight, count) pairs.
    The laws and the closed form both read this one scaling.
    """
    weights, counts, scale = scaled_classes(counts)
    return weights, counts, scale, -sum(w * l for w, l in zip(weights, counts))


def _law_sums(scaled) -> list[tuple[int, int, int]]:
    """The power sums of the laws for n = 1 .. N - 1, from one DP to N/2.

    ``scaled`` is ``_scaled`` of N >= 2 cards.  Each packed row n <= N/2 is
    read once, by one remainder (``_row_sums``); the sums past N/2 are those
    of row N - n mirrored (``_mirrored``), the sums of the laws
    ``tc_distribution`` gives.
    """
    weights, counts, _, start = scaled
    N = sum(counts)
    rows = _row_sums(_packed_layers(weights, counts, start, 1, N // 2))
    return rows + [_mirrored(rows[N - n - 1], start) for n in range(N // 2 + 1, N)]


def tc_distribution(comp: WeightComposition, n: int) -> TrueCountDistribution:
    """Exact law of the true count after removing ``n`` unseen cards.

    It reads the one DP row m = min(n, N - n), mirrored x -> start - x past N/2.
    A composition of fewer than 2 cards, which leaves no n, raises
    ``BadRangeError``.
    """
    N = whole_number(comp.total, "the composition's card count", 2)
    n = whole_number(n, "n", 1, N)
    weights, counts, scale, start = _scaled(comp.counts)
    m = min(n, N - n)
    row = _packed_layers(weights, counts, start, m, m)
    return TrueCountDistribution(row=row, start=start, scale=scale, n=n, source=comp)


def _closed_form_terms(scaled) -> tuple[int, int]:
    """``(spread, den)`` of the closed-form variance, both integers.

    ``scaled`` is ``_scaled`` of N cards: the weights scaled to integers over
    ``scale``, and r = scale * R.  spread = N * sum (scale * w)^2 l_w - r^2
    and den = scale^2 * N^2 * (N - 1), so that the theorem's
    sigma_n^2 = ((N - 1) / (N - n)) n sigma_1^2 is n * spread / ((N - n) * den).
    """
    weights, counts, scale, r = scaled
    N = sum(counts)
    spread = N * sum(w * w * l for w, l in zip(weights, counts)) - r * r
    return spread, scale**2 * N**2 * (N - 1)


def sigma_n_exact(comp: WeightComposition, n: int) -> SigmaResult:
    """Closed-form std of the true count after ``n`` removals.

    A composition of fewer than 2 cards, which leaves no n, raises
    ``BadRangeError``.
    """
    N = whole_number(comp.total, "the composition's card count", 2)
    n = whole_number(n, "n", 1, N)
    spread, den = _closed_form_terms(_scaled(comp.counts))
    squared = Fraction(n * spread, (N - n) * den)
    return SigmaResult(float_sqrt(squared, f"sigma_{shown(n)}"), squared)


def sigma_n_approx(N: float, n: float, system: CountSystem) -> float:
    """Approximation sqrt(n) * Sigma0 / N; accepts non-integer average n."""
    # NaN fails every comparison, so it is refused with the rest; an int N
    # past the float range would overflow the division.
    x_N, x_n = _comparable(N), _comparable(n)
    if x_N is None or x_n is None or not 0 <= x_n < x_N <= sys.float_info.max:
        raise BadRangeError(
            f"need 0 <= n < N < inf, N within the float range, got n={shown(n)}, N={shown(N)}"
        )
    return math.sqrt(x_n) * system.sigma0() / x_N


def _increment_variance(s0_sq: Fraction, n0: int, seen: int, n: int) -> Fraction:
    """Exact variance (card units) of the true-count change over n cards.

    The composition left after ``seen`` of the ``n0`` cards is a uniform
    subset of the shoe, so the per-composition dispersion averages in
    closed form, with no large-deck approximations.
    """
    remaining = n0 - seen
    if n >= remaining:
        raise BadRangeError(f"n={shown(n)} exceeds the {shown(remaining)} cards past the cut")
    if n == 0:
        return Fraction(0)
    # With M = remaining, var_tc_cut = seen * s0_sq / ((n0 - 1) M) and
    # mean_sigma1_sq = (s0_sq - var_tc_cut) / (M - 1)^2, the variance
    # (M - 1) / (M - n) * n * mean_sigma1_sq over one integer denominator.
    return Fraction(
        n * s0_sq.numerator * ((n0 - 1) * remaining - seen),
        s0_sq.denominator * (n0 - 1) * remaining * (remaining - 1) * (remaining - n),
    )


def predicted_increment_std(
    system: CountSystem, decks: int, penetration: float, n: int
) -> float:
    """Exact std (deck units) of the true-count change over n cards past the cut.

    It is the target the tc-increment simulator converges to.
    """
    n = whole_number(n, "n", 0)
    system.sigma0()  # in the float range; no increment variance exceeds its square
    s0_sq = system.sigma0_squared
    decks, cut = _shoe_cut(decks, penetration)
    return 52 * math.sqrt(_increment_variance(s0_sq, 52 * decks, cut, n))


def _convolve(law: Sequence[tuple[int, float]], k: int) -> dict[int, float]:
    """Law of the sum of ``k`` independent draws from ``law``."""
    out = {0: 1.0}
    for _ in range(k):
        nxt: dict[int, float] = {}
        for total, p in out.items():
            for h, q in law:
                nxt[total + h] = nxt.get(total + h, 0.0) + p * q
        out = nxt
    return out


def predicted_seat_sigma(
    system: CountSystem, decks: int, penetration: float, model: SeatCardModel
) -> tuple[float, float]:
    """Exact std (deck units) of sigma_bet and sigma_play for one seat.

    The true-count change over n unseen cards does not depend on which
    cards they are, and the card counts between the moments do not depend
    on the card order, so each variance is the increment variance averaged
    over the law of the counts, the hands split by ``model.hands_between``:
    n_bet = ``model.base_deal`` plus the extra cards of the hands ahead,
    n_play = the extra cards of the hands behind.  It is the target the
    seat-sigma simulator converges to.
    """
    decks, cut = _shoe_cut(decks, penetration)
    n0 = 52 * decks
    system.sigma0()  # in the float range; no increment variance exceeds its square
    s0_sq = system.sigma0_squared
    ahead, behind = (_convolve(model.extra_cards_law, k) for k in model.hands_between)
    var_bet = var_play = 0.0
    for h, p in ahead.items():
        n_bet = model.base_deal + h
        var_bet += p * _increment_variance(s0_sq, n0, cut, n_bet)
        for n_play, q in behind.items():
            var_play += p * q * _increment_variance(s0_sq, n0, cut + n_bet, n_play)
    return 52 * math.sqrt(var_bet), 52 * math.sqrt(var_play)


# ---------------------------------------------------------------------------
# Identity checkers: each side an integer numerator over a positive integer
# denominator, compared by cross-multiplication.

class IdentityReport(NamedTuple):
    """Both sides of a combinatorial identity, for diagnosable failures.

    Each side is held as an integer numerator over a positive integer
    denominator; ``lhs`` and ``rhs`` give them as reduced fractions.
    """

    name: str
    lhs_num: int
    lhs_den: int
    rhs_num: int
    rhs_den: int

    @property
    def equal(self) -> bool:
        return self.lhs_num * self.rhs_den == self.rhs_num * self.lhs_den

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.lhs_den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.rhs_den)


def _layout(comp: WeightComposition, prefix: Sequence, vs: Sequence):
    """Counts by weight class after ``prefix``, and the class of each of ``vs``.

    Classes are indexed by position; a weight of ``vs`` absent from ``comp``
    gets a class of its own with no cards.
    """
    prefix = [as_weight(w) for w in prefix]
    try:
        comp = comp.deplete(prefix)
    except EmptyClassError as exc:
        raise InfeasiblePrefixError(f"prefix {prefix} not drawable") from exc
    index = {w: i for i, w in enumerate(comp.counts)}
    counts = list(comp.counts.values())
    slots = []
    for v in vs:
        v = as_weight(v)
        i = index.get(v)
        if i is None:
            i = index[v] = len(counts)
            counts.append(0)
        slots.append(i)
    return counts, slots


def _censuses(counts: Sequence[int], k: int) -> list[tuple[tuple[int, ...], int]]:
    """Each census of k removals from ``counts``, with the k-subsets that make it.

    A census is ``(removed, ways)``: ``removed[i]`` cards of class i are
    removed, which ways = prod_i C(counts_i, removed_i) of the k-subsets of
    the cards do.  Censuses that no subset makes are left out, so the ways
    total C(M, k) for M cards.
    """
    table = []
    for census in itertools.combinations_with_replacement(
        [i for i, l in enumerate(counts) if l], k
    ):
        removed = [0] * len(counts)
        for i in census:
            removed[i] += 1
        ways = math.prod(map(math.comb, counts, removed))
        if ways:
            table.append((tuple(removed), ways))
    return table


def _removal_identity(
    name: str,
    counts: Sequence[int],
    slots: Sequence[int],
    k: int,
    censuses: Sequence[tuple[Sequence[int], int]],
) -> IdentityReport:
    """Chance that the next draws are of classes ``slots``, with and without k removals.

    ``counts`` lists the cards left in each class after the prefix, M in
    all, ``slots`` the class of each drawn weight v_j, and ``censuses`` is
    ``_censuses(counts, k)``.  left_j is the count of v_j's class when v_j
    is drawn.  Right: prod_j left_j over the falling factorial
    M(M - 1)...(M - q).  Left: k unseen cards are removed at random first;
    a removal census c (c_i cards of class i) has chance
    ways_c / C(M, k) and leaves left_j - c_(slot_j) cards for draw j, over
    (M - k)...(M - k - q).
    """
    M, draws = sum(counts), len(slots)
    left = [counts[i] - slots[:j].count(i) for j, i in enumerate(slots)]
    lhs = 0
    for removed, ways in censuses:
        for l, i in zip(left, slots):
            ways *= l - removed[i]
        lhs += ways
    return IdentityReport(
        name,
        lhs, math.comb(M, k) * math.perm(M - k, draws),
        math.prod(left), math.perm(M, draws),
    )


def _check_removal(
    name: str, comp: WeightComposition, prefix: Sequence, k: int, vs: Sequence
) -> IdentityReport:
    """Lemma 3-4's identity and range rule, of which lemmas 1 and 2 are the k = 1 cases."""
    N, p, q = comp.total, len(prefix), len(vs) - 1
    k = whole_number(k, "k", 1)
    if not vs:
        raise BadRangeError(f"{name} needs at least one drawn weight, got none")
    if p + k + q > N - 1:
        raise BadRangeError(
            f"need p + k + q <= N - 1, got p={p}, k={shown(k)}, q={q}, N={shown(N)}"
        )
    counts, slots = _layout(comp, prefix, vs)
    return _removal_identity(name, counts, slots, k, _censuses(counts, k))


def check_lemma1(comp: WeightComposition, prefix: Sequence, v0) -> IdentityReport:
    """One random removal does not change the chance of next drawing v0."""
    return _check_removal("lemma1", comp, prefix, 1, [v0])


def check_lemma2(comp: WeightComposition, prefix: Sequence, vs: Sequence) -> IdentityReport:
    """Ordered-clump version: removal of one random card preserves the law."""
    return _check_removal("lemma2", comp, prefix, 1, vs)


def check_lemma34(
    comp: WeightComposition, prefix: Sequence, k: int, vs: Sequence
) -> IdentityReport:
    """k-fold removal invariance (sum over the census of the k removed cards)."""
    return _check_removal("lemma34", comp, prefix, k, vs)


def _telescoping(r: int, s: Sequence[int], D: int, N: int, n: int) -> IdentityReport:
    """Lemma 6 for R = r / D and the n weights s_i / D, all integers.

    Left: (r + sum s) / (D (N - n)) - r / (D N).  Right: (N - 1) / (N - n)
    times the sum of (r + s_i) / (D (N - 1)) - r / (D N).
    """
    lhs = (r + sum(s)) * N - r * (N - n)
    rhs = (N - 1) * sum((r + si) * N - r * (N - 1) for si in s)
    return IdentityReport("lemma6", lhs, D * N * (N - n), rhs, D * N * (N - 1) * (N - n))


def check_lemma6(R, N: int, n: int, ws: Sequence) -> IdentityReport:
    """Telescoping identity tying the n-removal increment to one-card terms.

    R and the weights are scaled to integers over their common denominator
    D and checked by ``_telescoping``.
    """
    R = as_weight(R)
    ws = [as_weight(w) for w in ws]
    N = whole_number(N, "N", 2)
    n = whole_number(n, "n", 1, N)
    if len(ws) != n:
        raise BadRangeError(f"need len(ws) == n, got {len(ws)} weights for n={shown(n)}")
    D = math.lcm(R.denominator, *(w.denominator for w in ws))
    r = R.numerator * (D // R.denominator)
    s = [w.numerator * (D // w.denominator) for w in ws]
    return _telescoping(r, s, D, N, n)

"""Exact distribution module against an independent brute-force oracle.

The oracle enumerates every ``n``-subset of the physical cards with
:func:`itertools.combinations` and tallies true-count values with exact
rationals — no shared code with the distribution under test.
"""
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from truecount import (
    BadRangeError,
    exact,
    TrueCountDistribution,
    composition,
    get_system,
    sigma_n_approx,
    sigma_n_exact,
    tc_distribution,
)
from truecount.counting import scaled_classes
from truecount.verify import WEIGHT_SETS


def brute_force_distribution(counts, n):
    """Law of the true count after n removals, by subset enumeration."""
    cards = [w for w, l in counts.items() for _ in range(l)]
    N = len(cards)
    R = -sum(cards)
    tally: dict[Fraction, int] = {}
    total = 0
    for subset in itertools.combinations(range(N), n):
        removed = sum(cards[i] for i in subset)
        value = Fraction(R + removed, 1) / (N - n)
        tally[value] = tally.get(value, 0) + 1
        total += 1
    return {v: Fraction(c, total) for v, c in tally.items()}


SMALL_DECKS = [
    {Fraction(1): 2, Fraction(-1): 2},
    {Fraction(1): 5, Fraction(-1): 5, Fraction(0): 3},
    {Fraction(1): 3, Fraction(-1): 1, Fraction(0): 2},
    {Fraction(2): 2, Fraction(1): 1, Fraction(-1): 3, Fraction(-2): 1},
    {Fraction(3, 2): 2, Fraction(-1, 2): 6},
    {Fraction(1, 2): 4, Fraction(-2): 1},
]


class TestDistributionAgainstBruteForce:
    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_all_n(self, counts):
        comp = composition(counts)
        for n in range(1, comp.total):
            dist = tc_distribution(comp, n)
            assert dict(dist.atoms) == brute_force_distribution(counts, n)

    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_all_n_from_one_dp(self, counts):
        # The moment sweep's one DP gives, for every n, the power sums of the
        # enumerated law: ways = p * C(N, n) and x = v * scale * (N - n).
        comp = composition(counts)
        scaled = exact._scaled(comp.counts)
        N, scale = comp.total, scaled[2]
        rows = exact._law_sums(scaled)
        assert len(rows) == N - 1
        for n, sums in enumerate(rows, start=1):
            c, d = math.comb(N, n), scale * (N - n)
            law = brute_force_distribution(counts, n)
            assert sums == tuple(
                sum(p * c * (v * d) ** k for v, p in law.items()) for k in range(3)
            )

    def test_probabilities_sum_to_one(self):
        comp = composition({1: 7, -1: 7, 0: 4})
        for n in (1, 5, 17):
            assert tc_distribution(comp, n).probabilities_sum() == 1

    def test_known_two_card_law(self):
        # Removing 2 of {+1,+1,-1,-1}: increment law 1/6, 2/3, 1/6.
        dist = tc_distribution(composition({1: 2, -1: 2}), 2)
        assert dist.atoms == (
            (Fraction(-1), Fraction(1, 6)),
            (Fraction(0), Fraction(2, 3)),
            (Fraction(1), Fraction(1, 6)),
        )

    def test_bad_n(self):
        comp = composition({1: 2, -1: 2})
        with pytest.raises(BadRangeError):
            tc_distribution(comp, 0)
        with pytest.raises(BadRangeError):
            tc_distribution(comp, 4)

    def test_large_class_builds_only_the_binomials_read(self, monkeypatch):
        # The DP removes at most min(l, n) cards of a class of l, so one law
        # of a large class takes C(l, c) for c <= n only.
        calls = []
        real = math.comb

        def counted(l, c):
            calls.append((l, c))
            return real(l, c)

        monkeypatch.setattr(math, "comb", counted)
        dist = tc_distribution(composition({1: 2000, -1: 1}), 1)
        assert dist.probabilities_sum() == 1
        # min(l, 1) + 1 binomials for each of the two classes, and C(N, 1).
        assert len(calls) <= 2 + 2 + 1


class TestMoments:
    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_variance_closed_form(self, counts):
        comp = composition(counts)
        N = comp.total
        s1 = sigma_n_exact(comp, 1).squared
        for n in range(1, N):
            dist = tc_distribution(comp, n)
            assert dist.variance() == Fraction(N - 1, N - n) * n * s1
            assert sigma_n_exact(comp, n).squared == dist.variance()

    def test_moments_match_atoms_for_any_census(self):
        # The power-sum moments equal the sums over atoms, also for a census
        # whose probabilities do not add up to 1.
        comp = composition({1: 3, -1: 2, Fraction(1, 2): 2})
        for n in range(1, comp.total):
            law = tc_distribution(comp, n)
            ways = dict(law.ways)
            ways[min(ways)] += 2
            bent = TrueCountDistribution(ways, law.scale, law.n, comp)
            for dist in (law, bent):
                mass = sum(p for _, p in dist.atoms)
                mean = sum(v * p for v, p in dist.atoms)
                assert dist.probabilities_sum() == mass
                assert dist.mean() == mean
                assert dist.variance() == sum(p * (v - mean) ** 2 for v, p in dist.atoms)

    def test_sigma1_worked_example(self):
        # 13 cards left: 5 high, 5 low, 3 medium; R = 0.
        comp = composition({1: 5, -1: 5, 0: 3})
        assert sigma_n_exact(comp, 1).squared == Fraction(5, 936)
        assert 52 * sigma_n_exact(comp, 1).value == pytest.approx(3.80, abs=0.005)

    def test_post_removal_true_count(self):
        comp = composition({1: 5, -1: 5, 0: 3}).deplete([1])
        assert comp.true_count("deck") == Fraction(52, 12)
        assert float(comp.true_count("deck")) == pytest.approx(4.33, abs=0.005)

    def test_sigma_small_deck(self):
        with pytest.raises(BadRangeError):
            sigma_n_exact(composition({1: 1}), 1)


class TestApproximations:
    def test_sigma1_approx(self, hi_lo):
        assert sigma_n_approx(52, 1, hi_lo) == pytest.approx(hi_lo.sigma0() / 52)

    def test_sigma_n_approx_scales_sqrt_n(self, hi_lo):
        one = sigma_n_approx(208, 1, hi_lo)
        assert sigma_n_approx(208, 4, hi_lo) == pytest.approx(2 * one)

    def test_sigma_n_approx_accepts_fractional_n(self, hi_lo):
        assert sigma_n_approx(208, 4.2, hi_lo) > sigma_n_approx(208, 4, hi_lo)

    def test_sigma_n_approx_zero(self, hi_lo):
        assert sigma_n_approx(208, 0, hi_lo) == 0.0

    def test_sigma_n_approx_converges_to_exact(self, hi_lo):
        # The relative gap to the exact value shrinks as the deck grows.
        gaps = []
        for decks in (1, 8, 64):
            comp = composition(
                {w: m * decks for w, m in hi_lo.weight_multiplicities().items()}
            )
            exact = sigma_n_exact(comp, 10).value
            approx = sigma_n_approx(52 * decks, 10, hi_lo)
            gaps.append(abs(approx - exact) / exact)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-3

    def test_bad_ranges(self, hi_lo):
        with pytest.raises(BadRangeError):
            sigma_n_approx(10, 10, hi_lo)
        with pytest.raises(BadRangeError):
            sigma_n_approx(1, 1, hi_lo)

    @pytest.mark.parametrize("N, n", [
        (math.nan, 3), (100, math.nan), (math.inf, 3), (math.inf, math.inf), (0, 0),
        # An int past the float range compares below inf but overflows the division.
        pytest.param(10**400, 1, id="10**400-1"),
        pytest.param(10**400, 10**399, id="10**400-10**399"),
    ])
    def test_non_finite_or_empty_deck_rejected(self, hi_lo, N, n):
        with pytest.raises(BadRangeError, match="need 0 <= n < N < inf"):
            sigma_n_approx(N, n, hi_lo)


SMALL_COUNTS = st.dictionaries(
    st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)]),
    st.integers(min_value=0, max_value=4),
    min_size=2,
).filter(lambda c: 2 <= sum(c.values()) <= 9)


@settings(max_examples=60, deadline=None)
@given(counts=SMALL_COUNTS, data=st.data())
def test_distribution_matches_brute_force_random(counts, data):
    comp = composition(counts)
    n = data.draw(st.integers(min_value=1, max_value=comp.total - 1))
    dist = tc_distribution(comp, n)
    assert dict(dist.atoms) == brute_force_distribution(counts, n)


def _sweep_decks():
    """N = 2..9 cards over each weight set of the sweeps, dealt round-robin
    over every class, and again with the first class left empty."""
    for weights in WEIGHT_SETS:
        for N in range(2, 10):
            for skip in (0, 1):
                counts = dict.fromkeys(weights, 0)
                for j in range(N):
                    counts[weights[skip + j % (len(weights) - skip)]] += 1
                yield counts


@pytest.mark.parametrize("counts", list(_sweep_decks()))
def test_every_law_matches_subset_enumeration(counts):
    # Both sides of N/2, where the laws are mirrored.
    comp = composition(counts)
    for n in range(1, comp.total):
        law = tc_distribution(comp, n)
        assert law.n == n
        assert dict(law.atoms) == brute_force_distribution(counts, n)


@settings(max_examples=60, deadline=None)
@given(counts=SMALL_COUNTS)
def test_all_n_laws_match_single_n(counts):
    # One DP for every n (the moment sweep's) gives the same moments as the
    # DP restricted to one n.  Both mirror the rows past N/2, so this is a
    # consistency check only; test_all_n_from_one_dp holds the sweep to the oracle.
    comp = composition(counts)
    rows = exact._law_sums(exact._scaled(comp.counts))
    assert len(rows) == comp.total - 1
    for n, (s0, s1, s2) in enumerate(rows, start=1):
        single = tc_distribution(comp, n)
        *_, c, d = single.sums
        assert Fraction(s0, c) == single.probabilities_sum()
        assert Fraction(s1, c * d) == single.mean()
        assert Fraction(exact._variance_numerator(s0, s1, s2, c), c**3 * d * d) == single.variance()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(weights=st.sampled_from(WEIGHT_SETS), data=st.data())
def test_census_layers_match_subset_enumeration(weights, data):
    """Every row lo..hi of the in-place DP, for every 1 <= lo <= hi <= N/2,
    tallies the n-subsets of the cards by the running count they leave."""
    counts = data.draw(st.lists(
        st.integers(0, 3), min_size=len(weights), max_size=len(weights)
    ).filter(lambda c: sum(c) >= 2))
    ws, ls, _ = scaled_classes(zip(weights, counts))
    cards = [w for w, l in zip(ws, ls) for _ in range(l)]
    start = -sum(cards)
    N = len(cards)
    rows = [
        Counter(start + sum(subset) for subset in itertools.combinations(cards, n))
        for n in range(N // 2 + 1)
    ]
    for lo in range(1, N // 2 + 1):
        for hi in range(lo, N // 2 + 1):
            assert exact._census_layers(ws, ls, start, lo, hi) == rows[lo:hi + 1], (lo, hi)

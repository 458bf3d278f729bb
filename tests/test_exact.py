"""Exact distribution module against an independent brute-force oracle.

The oracle enumerates every ``n``-subset of the physical cards with
:func:`itertools.combinations` and tallies true-count values with exact
rationals — no shared code with the distribution under test.
"""
import contextlib
import dataclasses
import io
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from truecount import (
    BadRangeError,
    cli,
    exact,
    WeightComposition,
    get_system,
    sigma_n_approx,
    sigma_n_exact,
    tc_distribution,
)
from truecount.counting import scaled_classes
from truecount.verify import WEIGHT_SETS, _between


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


@pytest.fixture
def comb_calls(monkeypatch):
    """The (l, c) of every ``math.comb`` call while the test runs."""
    calls = []
    real = math.comb

    def counted(l, c):
        calls.append((l, c))
        return real(l, c)

    monkeypatch.setattr(math, "comb", counted)
    return calls


class TestDistributionAgainstBruteForce:
    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_all_n(self, counts):
        comp = WeightComposition(counts)
        for n in range(1, comp.total):
            dist = tc_distribution(comp, n)
            assert dict(dist.atoms) == brute_force_distribution(counts, n)

    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_all_n_from_one_dp(self, counts):
        # The moment sweep's one DP gives, for every n, the power sums of the
        # enumerated law: ways = p * C(N, n) and x = v * scale * (N - n).
        comp = WeightComposition(counts)
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
        comp = WeightComposition({1: 7, -1: 7, 0: 4})
        for n in (1, 5, 17):
            s0, _, _, c, _ = tc_distribution(comp, n).sums
            assert Fraction(s0, c) == 1

    def test_known_two_card_law(self):
        # Removing 2 of {+1,+1,-1,-1}: increment law 1/6, 2/3, 1/6.
        dist = tc_distribution(WeightComposition({1: 2, -1: 2}), 2)
        assert dist.atoms == (
            (Fraction(-1), Fraction(1, 6)),
            (Fraction(0), Fraction(2, 3)),
            (Fraction(1), Fraction(1, 6)),
        )

    def test_bad_n(self):
        comp = WeightComposition({1: 2, -1: 2})
        with pytest.raises(BadRangeError):
            tc_distribution(comp, 0)
        with pytest.raises(BadRangeError):
            tc_distribution(comp, 4)

    def test_large_class_builds_only_the_binomials_read(self, comb_calls):
        # The DP removes at most min(l, n) cards of a class of l, so one law
        # of a large class takes C(l, c) for c <= n only.
        dist = tc_distribution(WeightComposition({1: 2000, -1: 1}), 1)
        s0, _, _, c, _ = dist.sums
        assert s0 == c
        # One binomial for each of the two classes, C(N, 1) for the slot
        # width and C(N, 1) for the law's denominator.
        assert len(comb_calls) <= 1 + 1 + 2

    def test_large_class_at_a_large_n(self, comb_calls):
        # Row 10,000 reads only rows 0 and 1 through the class of 20,000, so
        # that class builds C(20000, c) for c = 9,999 and 10,000 alone.
        dist = tc_distribution(WeightComposition({1: 20_000, -1: 1}), 10_000)
        # The -1 card is removed with probability 10000/20001.
        assert dist.atoms == (
            (Fraction(-1), Fraction(10_000, 20_001)),
            (Fraction(-9_999, 10_001), Fraction(10_001, 20_001)),
        )
        assert sorted(comb_calls) == [(1, 1), (20_000, 9_999), (20_000, 10_000)] + [
            (20_001, 10_000)
        ] * 2


class TestMoments:
    @pytest.mark.parametrize("counts", SMALL_DECKS)
    def test_variance_closed_form(self, counts):
        comp = WeightComposition(counts)
        N = comp.total
        s1 = sigma_n_exact(comp, 1).squared
        for n in range(1, N):
            dist = tc_distribution(comp, n)
            assert dist.variance() == Fraction(N - 1, N - n) * n * s1
            assert sigma_n_exact(comp, n).squared == dist.variance()

    def test_moments_match_atoms_for_any_census(self):
        # The power-sum moments equal the sums over atoms, also for a census
        # whose probabilities do not add up to 1: two subsets more in slot 0
        # of the packed row.
        comp = WeightComposition({1: 3, -1: 2, Fraction(1, 2): 2})
        for n in range(1, comp.total):
            law = tc_distribution(comp, n)
            (row,) = law.row.rows
            bent = dataclasses.replace(law, row=law.row._replace(rows=[row + 2]))
            assert sum(bent.ways.values()) == sum(law.ways.values()) + 2
            for dist in (law, bent):
                mass = sum(p for _, p in dist.atoms)
                mean = sum(v * p for v, p in dist.atoms)
                s0, _, _, c, _ = dist.sums
                assert Fraction(s0, c) == mass
                assert dist.mean() == mean
                assert dist.variance() == sum(p * (v - mean) ** 2 for v, p in dist.atoms)

    def test_repr_of_an_8_deck_law(self, hi_lo):
        # The packed row of a full 8-deck shoe at n = 208 has more digits
        # than ``str`` prints, so it stays out of ``repr`` and equality.
        comp = hi_lo.shoe(8)
        law = tc_distribution(comp, 208)
        assert law.row.rows[0] > 10**4300
        assert repr(law) == f"TrueCountDistribution(start=0, scale=1, n=208, source={comp!r})"
        assert law == tc_distribution(comp, 208)

    def test_sigma1_worked_example(self):
        # 13 cards left: 5 high, 5 low, 3 medium; R = 0.
        comp = WeightComposition({1: 5, -1: 5, 0: 3})
        assert sigma_n_exact(comp, 1).squared == Fraction(5, 936)
        assert 52 * sigma_n_exact(comp, 1).value == pytest.approx(3.80, abs=0.005)

    def test_post_removal_true_count(self):
        comp = WeightComposition({1: 5, -1: 5, 0: 3}).deplete([1])
        assert comp.true_count("deck") == Fraction(52, 12)
        assert float(comp.true_count("deck")) == pytest.approx(4.33, abs=0.005)

    @pytest.mark.parametrize("function", [sigma_n_exact, tc_distribution])
    @pytest.mark.parametrize("counts, cards", [({1: 1}, 1), ({1: 0}, 0), ({1: 0, -1: 0}, 0)])
    def test_fewer_than_two_cards_name_the_card_count(self, function, counts, cards):
        # No n lies in [1, N) for such a composition; the error says why,
        # not that n falls outside an empty range.
        with pytest.raises(BadRangeError) as error:
            function(WeightComposition(counts), 1)
        assert str(error.value) == f"the composition's card count must be >= 2, got {cards}"


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
            exact = sigma_n_exact(hi_lo.shoe(decks), 10).value
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
    comp = WeightComposition(counts)
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
    comp = WeightComposition(counts)
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
    comp = WeightComposition(counts)
    rows = exact._law_sums(exact._scaled(comp.counts))
    assert len(rows) == comp.total - 1
    for n, (s0, s1, s2) in enumerate(rows, start=1):
        single = tc_distribution(comp, n)
        single_s0, _, _, c, d = single.sums
        assert s0 == single_s0
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
            packed = exact._packed_layers(ws, ls, start, lo, hi)
            assert exact._unpacked(packed) == rows[lo:hi + 1], (lo, hi)


#: The sweeps' weight sets, then the weights of two builtin systems: halves
#: (six classes, a scale of 2) and thorp-ultimate (nine classes, gaps of 1 to 4).
READOUT_WEIGHTS = WEIGHT_SETS + tuple(
    tuple(sorted(get_system(name).shoe(1).counts)) for name in ("halves", "thorp-ultimate")
)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(weights=st.sampled_from(READOUT_WEIGHTS), data=st.data())
def test_row_sums_read_the_unpacked_rows(weights, data):
    """The remainder readout of every packed row to N/2, N <= 60, equals the
    power sums of the row unpacked; (-1, 1) packs its slots g = 2 apart."""
    total = data.draw(st.integers(2, 60))
    cuts = sorted(data.draw(st.lists(
        st.integers(0, total), min_size=len(weights) - 1, max_size=len(weights) - 1
    )))
    ws, ls, _ = scaled_classes(zip(weights, _between(cuts, total)))
    start = -sum(w * l for w, l in zip(ws, ls))
    packed = exact._packed_layers(ws, ls, start, 1, total // 2)
    if len(ws) == 2 and ws[1] - ws[0] == 2:
        assert packed.step == 2
    rows = exact._unpacked(packed)
    assert [sum(row.values()) for row in rows] == [math.comb(total, n) for n in range(1, total // 2 + 1)]
    assert exact._row_sums(packed) == [
        (sum(row.values()), sum(w * x for x, w in row.items()), sum(w * x * x for x, w in row.items()))
        for row in rows
    ]


#: Every weight of the sweeps' weight sets.
SWEEP_WEIGHTS = sorted(set(itertools.chain(*WEIGHT_SETS)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    counts=st.dictionaries(
        st.sampled_from(SWEEP_WEIGHTS), st.integers(1, 12), min_size=1, max_size=4
    ).filter(lambda c: 2 <= sum(c.values()) <= 12)
)
def test_cli_exact_prints_the_enumerated_law(counts):
    """``truecount exact`` on a valid composition exits 0 at every n and
    prints the law of subset enumeration, in deck units."""
    spec = ",".join(f"{w}:{l}" for w, l in counts.items())
    N = sum(counts.values())
    for n in range(1, N):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["exact", f"--composition={spec}", "-n", str(n), "--format", "json"])
        assert code == 0, (spec, n)
        rows = json.loads(out.getvalue())["rows"]
        assert [row["label"] for row in rows[-3:]] == [
            "mean (exact)", "sigma (enumerated)", "sigma (closed form)"
        ]
        law = sorted(brute_force_distribution(counts, n).items())
        assert [(row["label"], row["cells"]) for row in rows[:-3]] == [
            (str(52 * v), [str(p)]) for v, p in law
        ], (spec, n)

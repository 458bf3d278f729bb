"""Monte Carlo engine: stream contract, sampler law, kernel arithmetic, and closed-form checks."""
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from truecount import (
    BadRangeError,
    FixedAdvantageModel,
    SeatCardModel,
    ShoeExhaustedError,
    TwoPointAdvantageModel,
    builtin_systems,
    WeightComposition,
    get_system,
    growth_stats_binomial,
    kelly_fraction,
    growth_var_fuzzy,
    FuzzyAdvantage,
    InvariantError,
    parse_system_file,
    predicted_increment_std,
    predicted_seat_sigma,
    sigma_n_exact,
    simulate_bankroll,
    simulate_seat_sigma,
    simulate_tc_increment,
    trial_rng,
)
from truecount import counting, exact, kernels, sim


class TestTrialRng:
    def test_streams_are_reproducible(self):
        a = trial_rng(123, 5).random(4)
        b = trial_rng(123, 5).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ_across_chunks(self):
        a = trial_rng(123, 5).random(4)
        b = trial_rng(123, 6).random(4)
        assert not np.array_equal(a, b)

    def test_streams_differ_across_seeds(self):
        a = trial_rng(1, 0).random(4)
        b = trial_rng(2, 0).random(4)
        assert not np.array_equal(a, b)

    def test_seed_outside_philox_key_range(self):
        for seed in (-1, 2**128):
            with pytest.raises(BadRangeError):
                trial_rng(seed, 0)
        trial_rng(2**128 - 1, 0)

    @pytest.mark.parametrize("run", [
        lambda t: simulate_seat_sigma(
            get_system("halves"), 8, 0.5, SeatCardModel(7, 3), t, 9
        ),
        lambda t: simulate_tc_increment(get_system("hi-lo"), 2, 0.5, [1, 5], t, 9),
        lambda t: simulate_bankroll(FixedAdvantageModel(0.52), 100, t, 9),
        lambda t: simulate_bankroll(TwoPointAdvantageModel(0.54, 4e-4), 100, t, 9),
    ], ids=["seat-sigma", "tc-increment", "bankroll-fixed", "bankroll-two-point"])
    def test_first_chunk_independent_of_run_length(self, monkeypatch, run):
        samples: list[tuple[str, np.ndarray]] = []
        stat_row = sim._stat_row

        def keep(values, label):
            samples.append((label, values))
            return stat_row(values, label)

        monkeypatch.setattr(sim, "_stat_row", keep)
        run(sim.CHUNK + 5)
        longer = samples.copy()
        samples.clear()
        run(sim.CHUNK)
        assert [label for label, _ in longer] == [label for label, _ in samples]
        for (_, a), (_, b) in zip(longer, samples):
            assert a.size == sim.CHUNK + 5 and np.array_equal(a[: sim.CHUNK], b)


#: A full-rank system with 13 weight classes, the most a system can have.
THIRTEEN_CLASSES = "".join(
    f"{rank} {weight / 2}\n"
    for rank, weight in zip(
        ("A", "2", "3", "4", "5", "6", "7", "8", "9", "T", "J", "Q", "K"), range(-6, 7)
    )
)

#: sha256 of seeded ``to_json()`` reports, recorded before the two-pass tail
#: draw: (system, mode, decks, penetration, seats and position or n_cards,
#: trials, seed) -> digest.  A changed digest is a changed stream.
PINNED_REPORTS = {
    ("hi-lo", "seat-sigma", 1, 0.25, (7, 1), 300, 3):
        "8d99712fdfac5ca03ba0dbd5a0bac53fbf8f2fd0eacd652a7475da12f85dbdf2",
    ("hi-lo", "seat-sigma", 6, 0.75, (5, 3), 300, 2**127 + 11):
        "ff3fc657f513a49d7b3fa5aa87d5a74ba729f8b76cac2896ea35969eab1a6fa2",
    ("hi-lo", "seat-sigma", 8, 0.5, (7, 7), 300, 0):
        "58a4ebb3cfe61f87ca6f334a63ec9671505989b8e0777fb84ac591e64551641b",
    ("hi-lo", "tc-increment", 1, 0.5, (1, 4, 25), 300, 5):
        "36fb1dd2ce04aeb6adbdc3297840e39f1c18ff6e0aa44da6491e433e6cc95bb9",
    ("hi-lo", "tc-increment", 8, 0.8, (1, 16, 80), 300, 2**128 - 1):
        "4b686bc14a01cab5aca99e46c55654fb18694f7b7188e837ec776c1656db4338",
    ("halves", "seat-sigma", 1, 0.25, (7, 1), 300, 3):
        "f4dc1c9c1e63f88c979edb0879ffca52bfb7358f2c1659e8d4c30107154cd548",
    ("halves", "seat-sigma", 6, 0.75, (5, 3), 300, 2**127 + 11):
        "e63f9029a5eb83dc17d52fb7daf0d3ecb7c8b30dfa5c8b78a82dea309f136757",
    ("halves", "seat-sigma", 8, 0.5, (7, 7), 300, 0):
        "a7f34cdd540849dbe975c82577b0c09be2c5453cb87ef44ae9bef0940e134913",
    ("halves", "tc-increment", 1, 0.5, (1, 4, 25), 300, 5):
        "a989c91e438f10bb415822c380234b16c08fccd0e62217f67f8d9f96d8b62ee9",
    ("halves", "tc-increment", 8, 0.8, (1, 16, 80), 300, 2**128 - 1):
        "189b77fd6745fa3886c15eed4f2446caac3c02e37bb2a55005a7b3e9f481acc4",
    ("custom", "seat-sigma", 1, 0.25, (7, 1), 300, 3):
        "02c0377c3b9d2d5b0f7c963b4c8f777002bdaa2975d433f6ec707b9c47d0f2f0",
    ("custom", "seat-sigma", 6, 0.75, (5, 3), 300, 2**127 + 11):
        "31e14cc0fff5cbfd1c94c1c1c3fc02744f4e1da156d8bff675a65d733a792851",
    ("custom", "seat-sigma", 8, 0.5, (7, 7), 300, 0):
        "ebf496a3dac1b488cf87d5319b18a4a3bba1fecf45cb13614f6a9476b5675013",
    ("custom", "tc-increment", 1, 0.5, (1, 4, 25), 300, 5):
        "472d9001a448a9c7aea399c779e1a52b0d51c36d8fe0b6b1d17a4ba1a31ae44e",
    ("custom", "tc-increment", 8, 0.8, (1, 16, 80), 300, 2**128 - 1):
        "411397dd8eea38ab9a2e837a8dbaaae4f372dbfee1c595c16ff3527471066a93",
    ("custom", "seat-sigma", 8, 0.6, (7, 4), sim.CHUNK + 5, 42):
        "9a0f9a25ec58d3437ec0045dbd7748bf93da38e00ee83d184293e3afb76cc98e",
    ("halves", "tc-increment", 2, 0.5, (1, 2, 9), sim.CHUNK + 5, 7):
        "b3e2efdd0eed3ce988fe45ed0ae4d0396e4c20ced02cfa50e9543eea932457a0",
}

BANKROLL_MODELS = {
    "fixed": FixedAdvantageModel(0.52),
    "two-point": TwoPointAdvantageModel(0.54, 4e-4),
}

#: sha256 of seeded bankroll ``to_json()`` reports, recorded before the
#: trial-axis join of the chunks: (model, hands, trials, seed) -> digest.
PINNED_BANKROLL = {
    ("fixed", 1, 300, 3):
        "be9633a732d0320f8188483c616c6cb4f3603440ba73a5d7a7f5e5da2a06b2e0",
    ("fixed", 40_000, 300, 2**128 - 1):
        "9e35737a015e2ee901278cae3861779f10cce69198cd96cf60004bd59177c9d4",
    ("fixed", 100, sim.CHUNK + 5, 42):
        "f06c24821912b86093124f6bf264d948ed1f7a208ab2f8ec561c1614ede326b6",
    ("two-point", 1, 300, 0):
        "56550bb7026b571bcda818424df42c2dfb1cf9eacfc0a900600cfd7d70e3c4a6",
    ("two-point", 40_000, 300, 2**127 + 11):
        "c0a850612063b12b672f422e058b0dbc0c548c754d1aea7690761888a6765cf0",
    ("two-point", 100, sim.CHUNK + 5, 7):
        "1953a4d3b5afe1fab1b1fa87c739f5a577ea95ddfe633c54461a882846d830e4",
}


class TestStreamPinned:
    """Seeded reports stay byte-identical under stream version 2.

    The contract holds per numpy version, and the digests were recorded
    under numpy 2.4.6.
    """

    @pytest.mark.skipif(np.__version__ != "2.4.6", reason="digests recorded under numpy 2.4.6")
    @pytest.mark.parametrize("case", PINNED_REPORTS, ids=str)
    def test_report_digest(self, case):
        name, mode, decks, penetration, args, trials, seed = case
        if name == "custom":
            system = parse_system_file(THIRTEEN_CLASSES)
            assert len(system.scaled_classes[0]) == 13
        else:
            system = get_system(name)
        if mode == "seat-sigma":
            report = simulate_seat_sigma(
                system, decks, penetration, SeatCardModel(*args), trials, seed
            )
        else:
            report = simulate_tc_increment(system, decks, penetration, args, trials, seed)
        assert report.to_json_dict()["stream_version"] == sim.STREAM_VERSION == 2
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == PINNED_REPORTS[case]

    @pytest.mark.skipif(np.__version__ != "2.4.6", reason="digests recorded under numpy 2.4.6")
    @pytest.mark.parametrize("case", PINNED_BANKROLL, ids=str)
    def test_bankroll_digest(self, case):
        model, n_hands, trials, seed = case
        report = simulate_bankroll(BANKROLL_MODELS[model], n_hands, trials, seed)
        assert report.to_json_dict()["stream_version"] == sim.STREAM_VERSION == 2
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == PINNED_BANKROLL[case]


def per_card_tail_draw(rng, size, weights, counts, cut, tail_len):
    """The tail draw as first written: the class of each card by a count of
    the rows it lies at or above, then a subtract from every row from it on."""
    census = rng.multivariate_hypergeometric(counts, cut, size=size)
    r_cut = census @ weights
    cum_left = np.cumsum(counts - census, axis=1).T.copy()
    classes = np.arange(counts.size)[:, None]
    n_left = int(counts.sum()) - cut
    tail = np.empty((size, tail_len), dtype=np.int64)
    for j in range(tail_len):
        u = rng.integers(0, n_left - j, size=size)
        cls = (u >= cum_left).sum(axis=0)
        tail[:, j] = weights[cls]
        cum_left -= classes >= cls
    return r_cut, tail


class TestTailDraw:
    @pytest.mark.parametrize("size", [1, 2, 300])
    @pytest.mark.parametrize("n_classes", range(1, 14))
    def test_matches_per_card_draw(self, n_classes, size):
        setup = np.random.default_rng(n_classes)
        weights = np.sort(setup.choice(np.arange(-12, 13), n_classes, replace=False))
        counts = setup.integers(1, 9, size=n_classes)
        total = int(counts.sum())
        for cut in {0, total // 3, total - 2}:
            remaining = total - cut
            for tail_len in {0, 1, remaining // 2, remaining - 1}:
                seed = [n_classes, size, cut, tail_len]
                want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = per_card_tail_draw(want_rng, size, weights, counts, cut, tail_len)
                got = sim._draw_cut_and_tail(got_rng, size, weights, counts, cut, tail_len)
                assert_same_shoes(want, got, size, tail_len)
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("trials", [1300, 5000])
    @pytest.mark.parametrize("system", builtin_systems(), ids=lambda s: s.name)
    def test_matches_per_card_draw_on_full_shoes(self, system, trials):
        # 8 decks at 75% penetration, 30 cards past the cut; 5000 trials
        # take two chunks of the run's stream.
        decks, cut = counting._shoe_cut(8, 0.75)
        weights, counts, _ = sim._shoe_classes(system, decks)
        for c, start in enumerate(range(0, trials, sim.CHUNK)):
            size = min(sim.CHUNK, trials - start)
            want_rng, got_rng = trial_rng(trials, c), trial_rng(trials, c)
            want = per_card_tail_draw(want_rng, size, weights, counts, cut, 30)
            got = sim._draw_cut_and_tail(got_rng, size, weights, counts, cut, 30)
            assert_same_shoes(want, got, size, 30)
            assert rng_state(got_rng) == rng_state(want_rng)


def rng_state(rng) -> str:
    """A generator's whole state as text, its arrays as lists."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def assert_same_shoes(want, got, size, tail_len):
    """``per_card_tail_draw``'s counts and ``_draw_cut_and_tail``'s agree."""
    r_cut, tail = want
    cums = np.cumsum(np.column_stack([np.zeros(size, np.int64), tail]), axis=1)
    got_cut, change = got
    assert got_cut.dtype == np.int64 and change.shape == (tail_len + 1, size)
    assert np.array_equal(got_cut, r_cut)
    assert np.array_equal(got_cut + change, r_cut + cums.T)


def searchsorted_extras(rng, model, size):
    """The seats' extra cards as first drawn: each hand's entry of the law
    by a binary search of the law's running totals, clamped to the last."""
    values = np.array([h for h, _ in model.extra_cards_law], dtype=np.int64)
    cum = np.cumsum([p for _, p in model.extra_cards_law])
    u = rng.random((size, model.seats))
    index = np.searchsorted(cum, u, side="right")
    return values[np.minimum(index, values.size - 1, out=index)].T


EXTRA_LAWS = {
    "default": SeatCardModel(7, 1),
    "one-point-0": SeatCardModel(7, 1, ((0, 1.0),)),
    "one-point-3": SeatCardModel(5, 2, ((3, 1.0),)),
    "hand-mean-2.6": SeatCardModel.with_hand_mean(7, 7, 2.6),
    "hand-mean-3.37": SeatCardModel.with_hand_mean(3, 1, 3.37),
    "zero-entry": SeatCardModel(7, 4, ((0, 0.5), (1, 0.0), (2, 0.5))),
    "tenths": SeatCardModel(6, 3, tuple((h, 0.1) for h in range(10))),
}


class TestSeatExtras:
    """The running-total counts give each hand's extra cards bit for bit
    as the binary search did, on the same stream."""

    def test_tenths_fall_short_of_one(self):
        law = EXTRA_LAWS["tenths"].extra_cards_law
        assert np.cumsum([p for _, p in law])[-1] < 1.0

    @pytest.mark.parametrize("size", [1, 1300])
    @pytest.mark.parametrize("model", EXTRA_LAWS.values(), ids=EXTRA_LAWS)
    def test_matches_binary_search(self, model, size):
        want_rng, got_rng = trial_rng(size, 0), trial_rng(size, 0)
        want = searchsorted_extras(want_rng, model, size)
        got = sim._sample_extras(got_rng, model, size)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.shape == (model.seats, size)
        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("model", EXTRA_LAWS.values(), ids=EXTRA_LAWS)
    def test_matches_binary_search_at_the_running_totals(self, model):
        # Uniforms at, just below and just above each running total, and
        # the largest below 1, which passes a total that falls short of 1.
        cum = np.cumsum([p for _, p in model.extra_cards_law])
        edges = np.concatenate([
            [0.0, 1.0 - 2.0**-53], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
        ])
        edges = edges[edges < 1.0]

        class Planted:
            def random(self, shape):
                return np.resize(edges, shape)

        size = -(-edges.size // model.seats)
        want = searchsorted_extras(Planted(), model, size)
        assert np.array_equal(sim._sample_extras(Planted(), model, size), want)


def per_model_bankroll_growth(model, n_hands, trials, seed):
    """Each trial's growth rate as first drawn: one branch per model, the
    fixed one a binomial of wins, the two-point one a binomial of high hands
    and then the wins at the high level and at the low."""
    chunks = [
        (trial_rng(seed, c), min(sim.CHUNK, trials - start))
        for c, start in enumerate(range(0, trials, sim.CHUNK))
    ]
    if isinstance(model, FixedAdvantageModel):
        f = kelly_fraction(model.p)
        wins = np.concatenate([rng.binomial(n_hands, model.p, size) for rng, size in chunks])
        return (wins * math.log1p(f) + (n_hands - wins) * math.log1p(-f)) / n_hands
    p_lo, p_hi = model.levels
    f_lo, f_hi = kelly_fraction(p_lo), kelly_fraction(p_hi)
    parts = []
    for rng, size in chunks:
        n_hi = rng.binomial(n_hands, 0.5, size)
        parts.append((n_hi, rng.binomial(n_hi, p_hi), rng.binomial(n_hands - n_hi, p_lo)))
    n_hi, w_hi, w_lo = (np.concatenate(arrays) for arrays in zip(*parts))
    n_lo = n_hands - n_hi
    return (
        w_hi * math.log1p(f_hi)
        + (n_hi - w_hi) * math.log1p(-f_hi)
        + w_lo * math.log1p(f_lo)
        + (n_lo - w_lo) * math.log1p(-f_lo)
    ) / n_hands


class TestBankrollDraw:
    """One draw over the model's states gives each trial's growth rate bit
    for bit as the per-model draws did, on the same stream."""

    @pytest.mark.parametrize("trials", [2, sim.CHUNK + 5])
    @pytest.mark.parametrize("n_hands", [1, 100, 40_000])
    @pytest.mark.parametrize("model", [
        FixedAdvantageModel(0.52),
        FixedAdvantageModel(0.5),
        FixedAdvantageModel(0.3),
        TwoPointAdvantageModel(0.54, 4e-4),
        TwoPointAdvantageModel(0.52, 0.0),
        TwoPointAdvantageModel(0.5, 1e-4),
        TwoPointAdvantageModel(0.4, 1e-4),
    ], ids=repr)
    def test_matches_per_model_draw(self, monkeypatch, model, n_hands, trials):
        kept = []
        stat_row = sim._stat_row

        def keep(values, label):
            kept.append(values)
            return stat_row(values, label)

        monkeypatch.setattr(sim, "_stat_row", keep)
        seed = 2**127 + n_hands
        simulate_bankroll(model, n_hands, trials, seed)
        (got,) = kept
        want = per_model_bankroll_growth(model, n_hands, trials, seed)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestKernels:
    def test_match_per_trial_loops(self):
        rng = np.random.default_rng(3)
        weights = np.array([-2, -1, 0, 1, 2, 3 * 10**15], dtype=np.int64)
        classes = rng.integers(0, weights.size, size=(25, 64)).astype(np.int8)
        n_bet = rng.integers(0, 20, size=64).astype(np.int64)
        n_play = rng.integers(0, 5, size=64).astype(np.int64)
        table = kernels.running_counts(weights, weights.size - 1 - classes)
        assert table.shape == (26, 64) and table.dtype == np.int64
        rows = np.arange(64)
        r_play, r_dealer = table[n_bet, rows], table[n_bet + n_play, rows]
        r_all, r_none = table[25], table[0]
        assert not r_none.any()
        for t in range(64):
            tail = [int(weights[c]) for c in classes[:, t]]
            r = 0
            for i in range(n_bet[t]):
                r += tail[i]
            assert r_play[t] == r
            for i in range(n_bet[t], n_bet[t] + n_play[t]):
                r += tail[i]
            assert r_dealer[t] == r
            assert r_all[t] == sum(tail)

    # Largest weight and tail length for each bound, and the type that must
    # hold every change: the type boundaries and one past each.
    @pytest.mark.parametrize("w_max, cards, dtype", [
        (127, 1, np.int8),
        (32, 4, np.int16),
        (151, 217, np.int16),
        (2**12, 8, np.int32),
        (2**31 - 1, 1, np.int32),
        (2**28, 8, np.int64),
        (3 * 10**15, 25, np.int64),
    ])
    def test_smallest_type_that_holds_the_bound(self, w_max, cards, dtype):
        # The largest |weight| is positive, so the all-largest trial reaches
        # +bound, one past what the type of -bound alone holds at each edge.
        weights = np.array([-(w_max // 2), -1, 0, 1, w_max], dtype=np.int64)
        rng = np.random.default_rng(w_max)
        classes = rng.integers(0, weights.size, size=(cards, 40)).astype(np.int8)
        classes[:, 0], classes[:, 1] = weights.size - 1, 0
        table = kernels.running_counts(weights, weights.size - 1 - classes)
        want = np.cumsum(np.vstack([np.zeros((1, 40), np.int64), weights[classes]]), axis=0)
        assert table.dtype == dtype and want[-1, 0] == w_max * cards
        assert np.array_equal(table.astype(np.int64), want)


class TestExactLaw:
    def test_cut_count_and_next_card(self, hi_lo):
        # One hi-lo deck cut at 26: the census of the dealt half is
        # multivariate hypergeometric, the next card uniform among the rest.
        weights, counts, scale = sim._shoe_classes(hi_lo, 1)
        assert (weights.tolist(), counts.tolist(), scale) == ([-1, 0, 1], [20, 12, 20], 1)
        cut, trials = 26, 200_000
        r_cut, change = sim._by_chunk(
            4, trials,
            lambda rng, size: sim._draw_cut_and_tail(rng, size, weights, counts, cut, 1),
        )
        assert not change[0].any()
        first_card = change[1]
        prob: dict[tuple[int, int], float] = {}
        for lo in range(21):
            for hi in range(21):
                zero = cut - lo - hi
                if not 0 <= zero <= 12:
                    continue
                p_census = (
                    math.comb(20, lo) * math.comb(12, zero) * math.comb(20, hi)
                    / math.comb(52, cut)
                )
                for w, left in zip((-1, 0, 1), (20 - lo, 12 - zero, 20 - hi)):
                    key = (hi - lo, w)
                    prob[key] = prob.get(key, 0.0) + p_census * left / (52 - cut)
        assert sum(prob.values()) == pytest.approx(1.0)
        seen: dict[tuple[int, int], int] = {}
        for key in zip(r_cut.tolist(), first_card.tolist()):
            seen[key] = seen.get(key, 0) + 1
        assert set(seen) <= set(prob)
        cells = [key for key, p in prob.items() if p * trials >= 5]
        assert len(cells) > 60
        for key in cells:
            p = prob[key]
            z = (seen.get(key, 0) / trials - p) / math.sqrt(p * (1 - p) / trials)
            assert abs(z) < 5, (key, z)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stat_row_rejects_non_finite_sample(self, bad):
        with pytest.raises(InvariantError, match="growth_rate"):
            sim._stat_row(np.array([0.1, bad, 0.2]), "growth_rate")


class TestDeterminism:
    def test_same_seed_same_report(self):
        model = SeatCardModel(seats=7, position=4)
        kwargs = dict(decks=8, penetration=0.5, model=model, trials=200, seed=11)
        a = simulate_seat_sigma(get_system("hi-lo"), **kwargs)
        b = simulate_seat_sigma(get_system("hi-lo"), **kwargs)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_json_report_keys(self, hi_lo):
        reports = (
            simulate_seat_sigma(hi_lo, 8, 0.5, SeatCardModel(7, 4), 20, 1),
            simulate_tc_increment(hi_lo, 8, 0.5, [1, 4], 20, 1),
            simulate_bankroll(FixedAdvantageModel(0.52), 10, 20, 1),
        )
        for report in reports:
            assert list(json.loads(report.to_json())) == [
                "config", "kind", "seed", "stats", "stream_version", "trials",
            ]


class TestTcIncrement:
    def test_matches_exact_prediction(self, hi_lo):
        report = simulate_tc_increment(hi_lo, 8, 0.5, [1, 4, 16], 4000, 21)
        for n in (1, 4, 16):
            row = report.stats[f"tc_increment_n{n}"]
            predicted = predicted_increment_std(hi_lo, 8, 0.5, n)
            se = row.std / math.sqrt(2 * (report.trials - 1))
            assert abs(row.std - predicted) < 4 * se
            assert abs(row.mean) < 4 * row.stderr

    def test_fractional_weights_supported(self):
        halves = get_system("halves")
        report = simulate_tc_increment(halves, 1, 0.25, [2], 500, 5)
        assert "tc_increment_n2" in report.stats

    def test_shoe_exhaustion(self, hi_lo):
        with pytest.raises(ShoeExhaustedError):
            simulate_tc_increment(hi_lo, 1, 0.9, [10], 10, 0)
        # n equal to the cards left past the cut leaves no true count.
        with pytest.raises(ShoeExhaustedError):
            simulate_tc_increment(hi_lo, 1, 0.5, [26], 10, 0)

    def test_bad_args(self, hi_lo):
        with pytest.raises(BadRangeError):
            simulate_tc_increment(hi_lo, 8, 0.5, [0], 10, 0)
        with pytest.raises(BadRangeError):
            simulate_tc_increment(hi_lo, 8, 1.5, [1], 10, 0)
        with pytest.raises(BadRangeError):
            simulate_tc_increment(hi_lo, 8, 0.5, [1], 0, 0)


class TestSeatSigma:
    def test_report_fields(self, hi_lo):
        model = SeatCardModel(seats=7, position=7)
        report = simulate_seat_sigma(hi_lo, 8, 0.5, model, 400, 42)
        assert set(report.stats) == {"sigma_bet", "sigma_play", "cards_per_hand"}
        assert report.config["position"] == 7
        row = report.stats["cards_per_hand"]
        assert abs(row.mean - 2.6) < 6 * row.stderr

    def test_sigma_play_decreases_with_position(self, hi_lo):
        stds = []
        for position in (1, 7):
            model = SeatCardModel(seats=7, position=position)
            report = simulate_seat_sigma(hi_lo, 8, 0.5, model, 3000, 17)
            stds.append(report.stats["sigma_play"].std)
        assert stds[0] > stds[1]

    def test_shoe_exhaustion(self, hi_lo):
        model = SeatCardModel(seats=7, position=1)
        with pytest.raises(ShoeExhaustedError):
            simulate_seat_sigma(hi_lo, 1, 0.7, model, 10, 0)

    def test_both_shoe_simulators_leave_one_card_unseen(self, hi_lo):
        # Seven seats take up to 2 * 8 + 7 * 2 = 30 cards past the cut.
        model = SeatCardModel(seats=7, position=1)
        messages = []
        for run in (
            lambda penetration: simulate_tc_increment(hi_lo, 1, penetration, [30], 10, 0),
            lambda penetration: simulate_seat_sigma(hi_lo, 1, penetration, model, 10, 0),
        ):
            report = run(21 / 52)  # 31 cards left past the cut
            assert all(math.isfinite(row.std) for row in report.stats.values())
            with pytest.raises(ShoeExhaustedError) as exc:
                run(22 / 52)  # 30 left
            messages.append(str(exc.value))
        assert messages == ["30 cards past the cut must leave one unseen, but 30 remain"] * 2

    def test_insufficient_sample(self, hi_lo):
        # One trial gives no std: every mode refuses it rather than report NaN.
        model = SeatCardModel(seats=1, position=1)
        for run in (
            lambda: simulate_seat_sigma(hi_lo, 8, 0.5, model, 1, 0),
            lambda: simulate_tc_increment(hi_lo, 8, 0.5, [1], 1, 0),
            lambda: simulate_bankroll(FixedAdvantageModel(0.52), 100, 1, 3),
        ):
            with pytest.raises(BadRangeError, match=r"trials must be in \[2, 2\*\*63\)"):
                run()


class TestBankroll:
    def test_fixed_advantage_matches_closed_form(self):
        stats = growth_stats_binomial(0.52)
        report = simulate_bankroll(FixedAdvantageModel(0.52), 2000, 400, 31)
        row = report.stats["growth_rate"]
        assert abs(row.mean - stats.mean) < 4 * row.stderr
        se_std = row.std / math.sqrt(2 * (report.trials - 1))
        assert abs(row.std - stats.std(2000)) < 4 * se_std

    def test_two_point_matches_fuzzy_formula(self):
        model = TwoPointAdvantageModel(0.54, 4e-4)
        stats = growth_var_fuzzy(FuzzyAdvantage(0.54, 4e-4))
        report = simulate_bankroll(model, 2000, 400, 57)
        row = report.stats["growth_rate"]
        assert abs(row.mean - stats.mean) < 4 * row.stderr
        se_std = row.std / math.sqrt(2 * (report.trials - 1))
        assert abs(row.std - stats.std(2000)) < 5 * se_std

    @pytest.mark.parametrize("model", [FixedAdvantageModel(0.99),
                                       TwoPointAdvantageModel(0.54, 4e-4)])
    def test_whole_hands(self, model):
        with pytest.raises(BadRangeError, match="n_hands must be a whole number"):
            simulate_bankroll(model, 10.5, 10, 1)
        whole = simulate_bankroll(model, np.int64(10), 10, 1).stats["growth_rate"]
        assert whole == simulate_bankroll(model, 10, 10, 1).stats["growth_rate"]

    def test_two_point_levels(self):
        model = TwoPointAdvantageModel(0.54, 4e-4)
        assert model.levels == (pytest.approx(0.52), pytest.approx(0.56))

    def test_states(self):
        assert FixedAdvantageModel(0.52).states == ((1.0, 0.52),)
        model = TwoPointAdvantageModel(0.54, 4e-4)
        p_lo, p_hi = model.levels
        assert model.states == ((0.5, p_hi), (0.5, p_lo))

    def test_report_config(self):
        fixed = simulate_bankroll(FixedAdvantageModel(0.52), 10, 2, 0)
        assert fixed.config == {"model": "fixed", "p": 0.52, "n_hands": 10}
        two_point = simulate_bankroll(TwoPointAdvantageModel(0.54, 4e-4), 10, 2, 0)
        assert two_point.config == {
            "model": "two-point", "p0": 0.54, "var_p0": 4e-4, "n_hands": 10,
        }

    def test_two_point_is_a_fuzzy_advantage(self):
        model = TwoPointAdvantageModel(0.54, 4e-4)
        assert isinstance(model, FuzzyAdvantage)
        assert growth_var_fuzzy(model) == growth_var_fuzzy(FuzzyAdvantage(0.54, 4e-4))

    @pytest.mark.parametrize("p0, var_p0, message", [
        (0.0, 0.0, "need 0 < p0 < 1"),
        (0.54, math.nan, "need a finite var_p0 >= 0"),
        (0.54, math.inf, "need a finite var_p0 >= 0"),
        (0.54, -1e-4, "need a finite var_p0 >= 0"),
        (0.54, 0.25, "exceeds the probability bound"),
        (0.9, 0.02, "two-point advantage leaves"),
        (0.1, 0.02, "two-point advantage leaves"),
    ])
    def test_two_point_checks(self, p0, var_p0, message):
        """The (p0, var_p0) checks of FuzzyAdvantage, then both levels in (0, 1)."""
        with pytest.raises(BadRangeError, match=message):
            TwoPointAdvantageModel(p0, var_p0)

    def test_model_validation(self):
        with pytest.raises(BadRangeError):
            FixedAdvantageModel(1.5)
        with pytest.raises(BadRangeError):
            TwoPointAdvantageModel(0.99, 0.01)
        with pytest.raises(BadRangeError):
            simulate_bankroll(object(), 10, 10, 0)


#: Every function that takes a shoe, called on hi-lo at 50% penetration.
SHOE_FUNCTIONS = {
    "simulate_tc_increment": lambda decks: simulate_tc_increment(
        get_system("hi-lo"), decks, 0.5, [1], 10, 1),
    "simulate_seat_sigma": lambda decks: simulate_seat_sigma(
        get_system("hi-lo"), decks, 0.5, SeatCardModel(7, 7), 10, 1),
    "predicted_increment_std": lambda decks: predicted_increment_std(
        get_system("hi-lo"), decks, 0.5, 3),
    "predicted_seat_sigma": lambda decks: predicted_seat_sigma(
        get_system("hi-lo"), decks, 0.5, SeatCardModel(7, 7)),
}


@pytest.mark.parametrize("run", SHOE_FUNCTIONS.values(), ids=SHOE_FUNCTIONS.keys())
class TestShoeChecks:
    """The simulators and the exact predictors refuse the same shoes."""

    @pytest.mark.parametrize("decks", [1.5, 2.0, math.nan])
    def test_whole_decks(self, run, decks):
        with pytest.raises(BadRangeError, match="decks must be a whole number"):
            run(decks)

    def test_at_and_below_the_card_limit(self, run):
        largest = (counting.MAX_SHOE_CARDS - 1) // 52
        assert 52 * (largest + 1) >= counting.MAX_SHOE_CARDS
        for decks in (largest + 1, 10**400):
            with pytest.raises(BadRangeError, match="need a shoe of fewer than"):
                run(decks)
        run(largest)


def ace_deuce_system(w):
    """A system weighting aces w, deuces -w and every other rank 0."""
    return parse_system_file(f"A {w}\n2 {-w}\n" + "".join(f"{r} 0\n" for r in "3456789T"))


@pytest.mark.parametrize("mode", ["seat-sigma", "tc-increment"])
class TestRunningCountRange:
    """A shoe whose running counts could pass int64 is refused, not wrapped.

    Its bound is the largest scaled weight times the cards of the shoe.
    """

    @staticmethod
    def run(mode, system):
        if mode == "seat-sigma":
            return simulate_seat_sigma(system, 8, 0.5, SeatCardModel(7, 7), 2000, 3)
        return simulate_tc_increment(system, 8, 0.5, [1, 4, 40], 2000, 3)

    @pytest.mark.parametrize("w", [4 * 10**18, 2**63, 10**300], ids=["4e18", "2**63", "1e300"])
    def test_past_int64(self, mode, w):
        with pytest.raises(BadRangeError, match="int64"):
            self.run(mode, ace_deuce_system(w))

    def test_at_and_inside_the_bound(self, mode):
        largest = (2**63 - 1) // (52 * 8)
        with pytest.raises(BadRangeError, match="int64"):
            self.run(mode, ace_deuce_system(largest + 1))
        system = ace_deuce_system(largest)
        report = self.run(mode, system)
        if mode == "seat-sigma":
            bet, play = predicted_seat_sigma(system, 8, 0.5, SeatCardModel(7, 7))
            predicted = {"sigma_bet": bet, "sigma_play": play}
        else:
            predicted = {
                f"tc_increment_n{n}": predicted_increment_std(system, 8, 0.5, n)
                for n in (1, 4, 40)
            }
        for label, std in predicted.items():
            assert report.stats[label].std == pytest.approx(std, rel=0.1)


#: The largest w whose ace-deuce system has sigma0 squared, 2 w**2 / 13, in the float range.
LARGEST_FLOAT_WEIGHT = math.isqrt(int(sys.float_info.max) * 13 // 2)

PREDICTORS = {
    "predicted_increment_std": lambda system: [predicted_increment_std(system, 8, 0.5, 3)],
    "predicted_seat_sigma": lambda system: predicted_seat_sigma(
        system, 8, 0.5, SeatCardModel()),
}


@pytest.mark.parametrize("predict", PREDICTORS.values(), ids=PREDICTORS.keys())
class TestPredictorFloatRange:
    """The exact predictors refuse a system whose sigma0 is past the float
    range, as ``sigma0`` does; no increment variance exceeds its square."""

    def test_past_the_float_range(self, predict):
        for w in (10**300, LARGEST_FLOAT_WEIGHT + 1):
            with pytest.raises(BadRangeError, match="past the float range"):
                predict(ace_deuce_system(w))

    def test_just_inside_the_float_range(self, predict):
        inside = ace_deuce_system(LARGEST_FLOAT_WEIGHT)
        outside = ace_deuce_system(LARGEST_FLOAT_WEIGHT + 1)
        assert inside.sigma0_squared <= Fraction(sys.float_info.max) < outside.sigma0_squared
        assert all(math.isfinite(sigma) and sigma > 0 for sigma in predict(inside))


class TestPredictedIncrementStd:
    def test_small_n_near_approximation(self, hi_lo):
        # At shallow depth the exact prediction stays close to sqrt(n) Sigma0/N.
        from truecount import sigma_n_approx

        exact = predicted_increment_std(hi_lo, 8, 0.5, 1)
        approx = 52 * sigma_n_approx(208, 1, hi_lo)
        assert exact == pytest.approx(approx, rel=0.01)

    def test_exceeds_approximation_at_depth(self, hi_lo):
        from truecount import sigma_n_approx

        exact = predicted_increment_std(hi_lo, 8, 0.75, 16)
        approx = 52 * sigma_n_approx(104, 16, hi_lo)
        assert exact > approx * 1.05

    def test_range_check(self, hi_lo):
        with pytest.raises(BadRangeError):
            predicted_increment_std(hi_lo, 1, 0.9, 10)

    def test_non_integral_n_rejected(self, hi_lo):
        for n in (10.9, -1, math.nan):
            with pytest.raises(BadRangeError):
                predicted_increment_std(hi_lo, 8, 0.5, n)
        with pytest.raises(BadRangeError, match="n must be a whole number, got 10.0"):
            predicted_increment_std(hi_lo, 8, 0.5, 10.0)
        assert predicted_increment_std(hi_lo, 8, 0.5, np.int64(10)) == predicted_increment_std(
            hi_lo, 8, 0.5, 10
        )


class TestIncrementVariance:
    @staticmethod
    def three_step_chain(s0_sq, n0, seen, n):
        remaining = n0 - seen
        if n == 0:
            return Fraction(0)
        var_tc_cut = Fraction(seen) * s0_sq / ((n0 - 1) * remaining)
        mean_sigma1_sq = (s0_sq - var_tc_cut) / (remaining - 1) ** 2
        return Fraction(remaining - 1, remaining - n) * n * mean_sigma1_sq

    def test_one_fraction_equals_the_three_step_chain(self):
        checked = 0
        for system in builtin_systems():
            s0_sq = system.sigma0_squared
            for decks in range(1, 9):
                n0 = 52 * decks
                for seen in {0, 1, 13, n0 // 4, n0 // 2, 3 * n0 // 4, n0 - 20, n0 - 2}:
                    left = n0 - seen
                    for n in {0, 1, 2, 7, 16, 19, left // 2, left - 2, left - 1}:
                        if not 0 <= n < left:
                            continue
                        got = exact._increment_variance(s0_sq, n0, seen, n)
                        want = self.three_step_chain(s0_sq, n0, seen, n)
                        assert got == want, (system.name, decks, seen, n)
                        assert math.sqrt(got) == math.sqrt(want)
                        checked += 1
        assert checked > 5000

    def test_n_past_the_cards_left(self, hi_lo):
        with pytest.raises(BadRangeError):
            exact._increment_variance(hi_lo.sigma0_squared, 52, 40, 12)

    @staticmethod
    def cut_census_average(system, decks, seen, n):
        """sigma_n squared of each composition a cut of ``seen`` cards
        leaves, averaged over the cut censuses by their subsets."""
        weights, counts = zip(*sorted(system.shoe(decks).counts.items()))
        total = sum(
            ways * sigma_n_exact(
                WeightComposition({w: l - r for w, l, r in zip(weights, counts, removed)}), n
            ).squared
            for removed, ways in exact._censuses(counts, seen)
        )
        return total / math.comb(52 * decks, seen)

    @pytest.mark.parametrize("decks, seen, n", [
        *[(1, seen, n) for seen in (0, 1, 4) for n in (1, 2, 3, 47)],
        (1, 26, 1), (1, 26, 25), (1, 50, 1),
        (2, 52, 1), (2, 52, 51), (2, 78, 3), (2, 100, 3),
    ])
    def test_equals_the_cut_census_average(self, decks, seen, n):
        systems = builtin_systems() if decks == 1 and seen <= 4 else [get_system("hi-lo")]
        for system in systems:
            want = self.cut_census_average(system, decks, seen, n)
            got = exact._increment_variance(system.sigma0_squared, 52 * decks, seen, n)
            assert got == want, (system.name, decks, seen, n)


class TestPredictedSeatSigma:
    def test_last_seat_at_eight_decks(self, hi_lo):
        bet, play = predicted_seat_sigma(hi_lo, 8, 0.5, SeatCardModel(7, 7))
        assert bet == pytest.approx(1.021695, abs=5e-7)
        assert play == pytest.approx(0.188515, abs=5e-7)

    def test_fixed_hand_length_is_one_increment(self, hi_lo):
        # Three cards per hand: n_bet = 16 + (position - 1) cards exactly.
        model = SeatCardModel.with_hand_mean(7, 4, 3.0)
        bet, _ = predicted_seat_sigma(hi_lo, 8, 0.5, model)
        assert bet == pytest.approx(predicted_increment_std(hi_lo, 8, 0.5, 19), rel=1e-12)

    def test_shoe_exhaustion(self, hi_lo):
        with pytest.raises(BadRangeError):
            predicted_seat_sigma(hi_lo, 1, 0.7, SeatCardModel(7, 1))

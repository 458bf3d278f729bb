"""Seat-position card consumption model."""
import math

import pytest

from truecount import (
    BadRangeError,
    DEFAULT_EXTRA_LAW,
    SeatCardModel,
    get_system,
    predicted_seat_sigma,
)
from truecount.exact import _convolve, _increment_variance


class TestSeatCardModel:
    def test_default_law_mean(self):
        model = SeatCardModel()
        assert model.extra_mean == pytest.approx(0.6)
        assert model.mean_cards_per_hand == pytest.approx(2.6)
        assert model.max_extra == 2

    def test_with_hand_mean_two_point_law(self):
        model = SeatCardModel.with_hand_mean(7, 1, 2.6)
        assert model.extra_cards_law == ((0, pytest.approx(0.4)), (1, pytest.approx(0.6)))
        assert model.mean_cards_per_hand == pytest.approx(2.6)

    def test_with_hand_mean_integer(self):
        model = SeatCardModel.with_hand_mean(7, 1, 3.0)
        assert model.extra_cards_law == ((1, 1.0),)

    def test_validation(self):
        with pytest.raises(BadRangeError):
            SeatCardModel(seats=8)
        with pytest.raises(BadRangeError):
            SeatCardModel(seats=3, position=4)
        with pytest.raises(BadRangeError):
            SeatCardModel(extra_cards_law=((0, 0.5), (1, 0.6)))
        with pytest.raises(BadRangeError):
            SeatCardModel.with_hand_mean(7, 1, 1.5)

    @pytest.mark.parametrize("seats, position, law", [
        (7.0, 1, DEFAULT_EXTRA_LAW),
        (7, 1.0, DEFAULT_EXTRA_LAW),
        (7, 1, ((0, 0.5), (1.0, 0.5))),
        (7, 1, ((0, math.nan), (1, 1.0))),
        (7, 1, ((0, math.inf),)),
    ], ids=["float-seats", "float-position", "float-extra", "nan", "infinite"])
    def test_malformed_law_rejected(self, seats, position, law):
        with pytest.raises(BadRangeError):
            SeatCardModel(seats, position, law)


class TestCardCounts:
    def test_first_base_bet_lag(self):
        # Seven players plus the dealer are dealt two cards each.
        model = SeatCardModel(seats=7, position=1)
        assert model.hands_between == (0, 7)
        assert model.mean_cards_between[0] == pytest.approx(16.0)

    def test_head_on_bet_lag(self):
        model = SeatCardModel(seats=1, position=1)
        assert model.mean_cards_between[0] == pytest.approx(4.0)

    def test_later_positions_see_more_cards(self):
        lags = [SeatCardModel(seats=7, position=p).mean_cards_between[0] for p in range(1, 8)]
        assert lags == sorted(lags)
        assert lags[3] == pytest.approx(16 + 3 * 0.6)
        assert lags[6] == pytest.approx(16 + 6 * 0.6)

    def test_play_lag_decreases_with_position(self):
        lags = [SeatCardModel(seats=7, position=p).mean_cards_between[1] for p in range(1, 8)]
        assert lags == sorted(lags, reverse=True)
        assert lags[0] == pytest.approx(7 * 0.6)
        assert lags[6] == pytest.approx(0.6)


def _every_seat():
    return [(seats, position) for seats in range(1, 8) for position in range(1, seats + 1)]


class TestOneSeatRule:
    """``hands_between`` and ``mean_cards_between`` say the same split as
    the exact predictor that reads the full hand-length law."""

    @pytest.mark.parametrize("seats, position", _every_seat())
    def test_convolved_law_means_are_the_mean_cards(self, seats, position):
        models = [
            SeatCardModel(seats, position, DEFAULT_EXTRA_LAW),
            SeatCardModel.with_hand_mean(seats, position, 2.7),
            SeatCardModel.with_hand_mean(seats, position, 3.0),
        ]
        for model in models:
            ahead, behind = model.hands_between
            assert ahead + behind == seats
            means = [
                sum(total * p for total, p in _convolve(model.extra_cards_law, k).items())
                for k in model.hands_between
            ]
            n_bet, n_play = model.mean_cards_between
            assert means[0] + model.base_deal == pytest.approx(n_bet, abs=1e-9)
            assert means[1] == pytest.approx(n_play, abs=1e-9)

    @pytest.mark.parametrize("decks", [1, 2, 8])
    @pytest.mark.parametrize("seats, position", _every_seat())
    def test_one_point_law_gives_the_mean_card_counts(self, decks, seats, position):
        # Three cards per hand: every count is its mean, so the exact
        # predictor is the increment variance at those counts.
        hi_lo = get_system("hi-lo")
        model = SeatCardModel.with_hand_mean(seats, position, 3.0)
        n_bet, n_play = (int(n) for n in model.mean_cards_between)
        assert (n_bet, n_play) == model.mean_cards_between
        n0, cut = 52 * decks, 26 * decks
        s0_sq = hi_lo.sigma0_squared
        want = (
            52 * math.sqrt(_increment_variance(s0_sq, n0, cut, n_bet)),
            52 * math.sqrt(_increment_variance(s0_sq, n0, cut + n_bet, n_play)),
        )
        assert predicted_seat_sigma(hi_lo, decks, 0.5, model) == want

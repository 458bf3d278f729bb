"""Seat-position card consumption model."""
import math

import pytest

from truecount import (
    BadRangeError,
    DEFAULT_EXTRA_LAW,
    SeatCardModel,
    n_cards_between,
)


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
        assert n_cards_between(model, "bet_play") == pytest.approx(16.0)

    def test_head_on_bet_lag(self):
        model = SeatCardModel(seats=1, position=1)
        assert n_cards_between(model, "bet_play") == pytest.approx(4.0)

    def test_later_positions_see_more_cards(self):
        lags = [
            n_cards_between(SeatCardModel(seats=7, position=p), "bet_play")
            for p in range(1, 8)
        ]
        assert lags == sorted(lags)
        assert lags[3] == pytest.approx(16 + 3 * 0.6)
        assert lags[6] == pytest.approx(16 + 6 * 0.6)

    def test_play_lag_decreases_with_position(self):
        lags = [
            n_cards_between(SeatCardModel(seats=7, position=p), "play_dealer")
            for p in range(1, 8)
        ]
        assert lags == sorted(lags, reverse=True)
        assert lags[0] == pytest.approx(7 * 0.6)
        assert lags[6] == pytest.approx(0.6)

    def test_unknown_moment_pair(self):
        with pytest.raises(BadRangeError):
            n_cards_between(SeatCardModel(), "bet_dealer")


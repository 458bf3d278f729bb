"""Card consumption between the bet, play, and dealer moments by seat.

A table deals 2 cards to each of ``seats`` players plus the dealer before
any play decision, then players complete hands in seat order.  Hand length
is 2 plus a small random number of extra cards H.  ``SeatCardModel`` holds
the seat rule: ``hands_between`` says which hands are completed between a
seat's moments, and ``mean_cards_between`` gives the cards they take on
average.  The large-deck ``sigma-table`` reads those means; the exact
predictor and the simulator sum the full law of H over ``hands_between``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .counting import MAX_SHOE_CARDS, real_number, whole_number
from .errors import BadRangeError

#: Default extra-cards law with mean 0.6, i.e. 2.6 cards per hand.
DEFAULT_EXTRA_LAW: tuple[tuple[int, float], ...] = ((0, 0.55), (1, 0.30), (2, 0.15))


def _law_for_mean(extra_mean: float) -> tuple[tuple[int, float], ...]:
    """Two-point law on {floor(h), floor(h)+1} with the requested mean."""
    if not (math.isfinite(extra_mean) and extra_mean >= 0):
        raise BadRangeError(f"extra-card mean must be finite and >= 0, got {extra_mean}")
    base = math.floor(extra_mean)
    frac = extra_mean - base
    if frac == 0:
        return ((base, 1.0),)
    return ((base, 1.0 - frac), (base + 1, frac))


@dataclass(frozen=True)
class SeatCardModel:
    """A player's position at a table plus the hand-length law."""

    seats: int = 7
    position: int = 1
    extra_cards_law: tuple[tuple[int, float], ...] = field(default=DEFAULT_EXTRA_LAW)

    def __post_init__(self):
        seats = whole_number(self.seats, "seats", 1, 8)
        position = whole_number(self.position, "position", 1, seats + 1)
        object.__setattr__(self, "seats", seats)
        object.__setattr__(self, "position", position)
        # A hand takes fewer cards than the largest shoe holds.
        object.__setattr__(self, "extra_cards_law", tuple(
            (whole_number(h, "extra card count", 0, MAX_SHOE_CARDS), p)
            for h, p in self.extra_cards_law
        ))
        probs = [p for _, p in self.extra_cards_law]
        # A NaN probability fails 0 <= p, as it fails every comparison.
        if not all(0 <= p <= 1 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise BadRangeError(f"bad extra-cards law {self.extra_cards_law}")

    @classmethod
    def with_hand_mean(cls, seats: int, position: int, mean_cards_per_hand: float):
        real_number(mean_cards_per_hand, "mean cards per hand", 2)
        return cls(seats, position, _law_for_mean(mean_cards_per_hand - 2))

    @property
    def extra_mean(self) -> float:
        return sum(h * p for h, p in self.extra_cards_law)

    @property
    def mean_cards_per_hand(self) -> float:
        return 2 + self.extra_mean

    @property
    def max_extra(self) -> int:
        return max(h for h, _ in self.extra_cards_law)

    @property
    def base_deal(self) -> int:
        return 2 * (self.seats + 1)

    @property
    def hands_between(self) -> tuple[int, int]:
        """Hands completed between this seat's bet and play (the seats ahead),
        and between its play and the dealer (this seat and those behind)."""
        return self.position - 1, self.seats - self.position + 1

    @property
    def mean_cards_between(self) -> tuple[float, float]:
        """Expected cards dealt over those two spans: ``base_deal`` plus the
        extra cards of the hands ahead, then the extra cards of the rest."""
        ahead, behind = self.hands_between
        h = self.extra_mean
        return self.base_deal + ahead * h, behind * h

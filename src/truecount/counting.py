"""Balanced count systems and weight-class deck compositions.

A :class:`CountSystem` checks itself when it is built: its ranks form one
of the two deck layouts, from which its per-rank multiplicities follow,
its weights are half-integers, and a full deck sums to 0.  The builtins
and :func:`parse_system_file` build through the same constructor.

Weights and running counts are kept as exact :class:`fractions.Fraction`
values throughout, so every downstream distribution computation stays
rational.  Floats only appear at presentation boundaries (``sigma0``).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    BadRangeError,
    EmptyClassError,
    EmptyDeckError,
    InvalidMultiplicityError,
    ParseError,
    UnbalancedSystemError,
    UnknownSystemError,
)

# Ten-class merged layout: T stands for 10/J/Q/K.
MERGED_RANKS = ("A", "2", "3", "4", "5", "6", "7", "8", "9", "T")
FULL_RANKS = ("A", "2", "3", "4", "5", "6", "7", "8", "9", "T", "J", "Q", "K")

_RANK_ALIASES = {"10": "T", "t": "T", "a": "A", "j": "J", "q": "Q", "k": "K"}


def _canon_rank(rank: str) -> str:
    if not isinstance(rank, str):
        raise ParseError(f"a rank must be a string such as 'A' or '10', got {rank!r}")
    rank = rank.strip()
    return _RANK_ALIASES.get(rank, rank.upper() if rank.isalpha() else rank)


def as_weight(value) -> Fraction:
    """Coerce ints, floats, strings and Fractions to an exact rational weight."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"bad weight {value!r}")
        # Halves are exact in binary, so this is lossless for valid systems.
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad weight {value!r}") from exc
    raise ParseError(f"bad weight {value!r}")


@dataclass(frozen=True)
class CountSystem:
    """A balanced card-counting scheme: a weight per rank.

    ``weights`` must cover either the 10-rank merged layout (``T`` stands
    for the 16 ten-value cards of a deck) or all 13 ranks, each rank a
    string such as ``"T"`` or its alias ``"10"``, and each weight a
    half-integer that :func:`as_weight` takes.  The constructor checks all
    of it: a rank set of neither layout raises
    :class:`InvalidMultiplicityError`, a bad or repeated rank (``"T"`` and
    ``"10"`` are one rank) or a bad weight :class:`ParseError`, and a
    full-deck weight sum other than 0 :class:`UnbalancedSystemError`.
    ``weights`` is a read-only copy with canonical ranks, so an instance
    can be shared (the builtins are built once per process) and its
    per-deck constants computed once.
    """

    name: str
    weights: Mapping[str, Fraction]

    def __post_init__(self):
        weights = {}
        for r, w in self.weights.items():
            rank = _canon_rank(r)
            if rank in weights:
                raise ParseError(f"duplicate rank {rank} (given again as {r!r})")
            weights[rank] = as_weight(w)
        object.__setattr__(self, "weights", MappingProxyType(weights))
        if frozenset(weights) not in (frozenset(MERGED_RANKS), frozenset(FULL_RANKS)):
            raise InvalidMultiplicityError(
                f"expected ranks {MERGED_RANKS} or {FULL_RANKS}, got {sorted(weights)}"
            )
        for rank, w in weights.items():
            if (2 * w).denominator != 1:
                raise ParseError(f"weight for rank {rank} is not a half-integer: {w}")
        total = sum((w * m for w, m in self._per_deck.items()), Fraction(0))
        if total != 0:
            raise UnbalancedSystemError(f"{self.name}: full-deck weight sum is {total}, not 0")

    @cached_property
    def rank_multiplicity(self) -> Mapping[str, int]:
        """Cards of each rank in one deck: 16 tens in the merged layout, else 4."""
        merged = len(self.weights) == len(MERGED_RANKS)
        return MappingProxyType({r: 16 if merged and r == "T" else 4 for r in self.weights})

    @cached_property
    def _per_deck(self) -> Mapping[Fraction, int]:
        agg: dict[Fraction, int] = {}
        for rank, w in self.weights.items():
            agg[w] = agg.get(w, 0) + self.rank_multiplicity[rank]
        return MappingProxyType(agg)

    @cached_property
    def sigma0_squared(self) -> Fraction:
        """Variance of the system's weights over a full deck, exactly."""
        return sum(
            (w * w * Fraction(m, 52) for w, m in self._per_deck.items()),
            Fraction(0),
        )

    @cached_property
    def scaled_classes(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """:func:`scaled_classes` of one deck: its cards per class."""
        return scaled_classes(self._per_deck)

    def shoe(self, decks: int) -> "WeightComposition":
        """Every card of a ``decks``-deck shoe (``_whole_decks``), by weight class."""
        decks = _whole_decks(decks)
        return WeightComposition({w: m * decks for w, m in self._per_deck.items()})

    def sigma0(self) -> float:
        """Standard deviation of the system's weights over a full deck."""
        return float_sqrt(self.sigma0_squared, f"sigma0 of {self.name}")


#: The largest float, exactly: a Fraction compares with it faster than with a float.
_FLOAT_MAX = Fraction(sys.float_info.max)


def float_sqrt(squared: Fraction, what: str) -> float:
    """Square root of an exact square, which must lie within the float range."""
    if squared > _FLOAT_MAX:
        raise BadRangeError(f"the square of {what} is past the float range")
    return math.sqrt(squared)


def scaled_classes(
    counts: Mapping[Fraction, int] | Iterable[tuple[Fraction, int]],
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Nonempty weight classes in increasing weight order, as integers.

    ``counts`` is a weight -> count mapping or its (weight, count) pairs.
    ``(weights, counts, scale)``: each class's weight times ``scale``, the
    least common denominator of all the weights, and its count.  A weight
    is scaled in integers, w.numerator * (scale // w.denominator).
    """
    pairs = tuple(counts.items() if isinstance(counts, Mapping) else counts)
    scale = math.lcm(*(w.denominator for w, _ in pairs))
    classes = sorted((w.numerator * (scale // w.denominator), l) for w, l in pairs if l > 0)
    weights, counts = tuple(zip(*classes)) or ((), ())
    return weights, counts, scale


_BUILTIN_WEIGHTS: dict[str, dict[str, object]] = {
    "hi-lo": {
        "A": -1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 1,
        "7": 0, "8": 0, "9": 0, "T": -1,
    },
    "uston-ace-five": {
        "A": -1, "2": 0, "3": 0, "4": 0, "5": 1, "6": 0,
        "7": 0, "8": 0, "9": 0, "T": 0,
    },
    "hi-opt-i": {
        "A": 0, "2": 0, "3": 1, "4": 1, "5": 1, "6": 1,
        "7": 0, "8": 0, "9": 0, "T": -1,
    },
    "hi-opt-ii": {
        "A": 0, "2": 1, "3": 1, "4": 2, "5": 2, "6": 1,
        "7": 1, "8": 0, "9": 0, "T": -2,
    },
    "halves": {
        "A": -1, "2": "1/2", "3": 1, "4": 1, "5": "3/2", "6": 1,
        "7": "1/2", "8": 0, "9": "-1/2", "T": -1,
    },
    "zen": {
        "A": -1, "2": 1, "3": 1, "4": 2, "5": 2, "6": 2,
        "7": 1, "8": 0, "9": 0, "T": -2,
    },
    "canfield-expert": {
        "A": 0, "2": 0, "3": 1, "4": 1, "5": 1, "6": 1,
        "7": 1, "8": 0, "9": -1, "T": -1,
    },
    "canfield-master": {
        "A": 0, "2": 1, "3": 1, "4": 2, "5": 2, "6": 2,
        "7": 1, "8": 0, "9": -1, "T": -2,
    },
    "uston-advanced-plus-minus": {
        "A": -1, "2": 0, "3": 1, "4": 1, "5": 1, "6": 1,
        "7": 1, "8": 0, "9": 0, "T": -1,
    },
    "revere-point-count": {
        "A": -2, "2": 1, "3": 2, "4": 2, "5": 2, "6": 2,
        "7": 1, "8": 0, "9": 0, "T": -2,
    },
    # Registered with the canonical published weights.  Its computed weight
    # dispersion (6.702) differs from the widely circulated 5.798 figure,
    # which is only reproducible by counting 4 ten-value cards per deck
    # instead of 16.  See README "Known catalog discrepancies".
    "thorp-ultimate": {
        "A": -9, "2": 5, "3": 6, "4": 8, "5": 11, "6": 6,
        "7": 4, "8": 0, "9": -3, "T": -7,
    },
}


@cache
def _builtin_registry() -> Mapping[str, CountSystem]:
    """Every builtin system, validated once per process."""
    return MappingProxyType(
        {name: CountSystem(name, w) for name, w in _BUILTIN_WEIGHTS.items()}
    )


def builtin_systems() -> list[CountSystem]:
    """All registered builtin systems, each validated for balance."""
    return list(_builtin_registry().values())


def get_system(name: str) -> CountSystem:
    """Look up a builtin system by name (case-insensitive)."""
    key = name.strip().lower()
    registry = _builtin_registry()
    if key not in registry:
        raise UnknownSystemError(
            f"unknown count system {name!r}; known: {', '.join(sorted(registry))}"
        )
    return registry[key]


@dataclass(frozen=True)
class WeightComposition:
    """Census of a remaining deck by weight class.

    ``counts`` maps each weight to the whole number of remaining cards of
    that class.  Each weight passes ``as_weight``, and weights that become
    equal sum their counts.  The running count follows the reveal
    convention: revealing a card of weight ``w`` adds ``w`` to the running
    count, i.e. ``R = -sum(w * l_w)``.
    """

    counts: Mapping[Fraction, int] = field(default_factory=dict)

    def __post_init__(self):
        counts = {}
        for w, l in self.counts.items():
            w = as_weight(w)
            try:
                l = whole_number(l, "count", 0)
            except BadRangeError:
                if isinstance(l, numbers.Integral):  # whole, so negative
                    raise EmptyClassError(f"negative count {shown(l)} for weight {w}") from None
                raise
            counts[w] = counts.get(w, 0) + l
        object.__setattr__(self, "counts", counts)

    def __repr__(self) -> str:
        counts = ", ".join(f"{w!r}: {shown(l)}" for w, l in self.counts.items())
        return f"WeightComposition(counts={{{counts}}})"

    @property
    def total(self) -> int:
        """N, the number of cards remaining."""
        return sum(self.counts.values())

    @property
    def running_count(self) -> Fraction:
        return -sum((w * l for w, l in self.counts.items()), Fraction(0))

    def deplete(self, removed: Iterable) -> "WeightComposition":
        """Remove one card per listed weight; raises EmptyClassError if short."""
        counts = dict(self.counts)
        for raw in removed:
            w = as_weight(raw)
            have = counts.get(w, 0)
            if have <= 0:
                raise EmptyClassError(f"no cards of weight {w} left to remove")
            counts[w] = have - 1
        return WeightComposition(counts)

    def true_count(self, units: str = "card") -> Fraction:
        """R/N in card units, or 52R/N in deck units."""
        n = self.total
        if n == 0:
            raise EmptyDeckError("true count undefined for an empty composition")
        tc = Fraction(self.running_count, n)
        if units == "card":
            return tc
        if units == "deck":
            return 52 * tc
        raise ParseError(f"units must be 'card' or 'deck', got {units!r}")


def shown(count) -> str:
    """``count`` as error texts and a composition's repr print it, the one
    rule for every count: a power of two past 2**32, such as the seed range,
    as 2**k, and an int past 10**100 (``str`` refuses one of more than 4,300
    digits) by its nearest power of ten.  A Fraction, such as a real that
    ``real_number`` refuses, shows its numerator and denominator so."""
    if isinstance(count, Fraction):
        den = count.denominator
        return shown(count.numerator) + (f"/{shown(den)}" if den != 1 else "")
    if type(count) is not int:
        return str(count)
    if count > 2**32 and not count & (count - 1):
        return f"2**{count.bit_length() - 1}"
    if abs(count) < 10**100:
        return str(count)
    return f"about {'-' * (count < 0)}10**{round(math.log10(abs(count)))}"


def whole_number(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as a plain int if it is a ``numbers.Integral`` in ``[lo, hi)``,
    else :class:`BadRangeError`: the one rule for every count the package
    takes, so ``10.0`` is refused and no numpy integer reaches a report."""
    if type(value) is not int:  # the ABC check below costs ten times as much
        if not isinstance(value, numbers.Integral):
            raise BadRangeError(f"{name} must be a whole number, got {value!r}")
        value = int(value)
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {shown(lo)}" if hi is None else f"in [{shown(lo)}, {shown(hi)})"
        raise BadRangeError(f"{name} must be {bound}, got {shown(value)}")
    return value


def _comparable(value):
    """``value`` as a range check compares it, or None if it is no real; a real
    not rational as a float, since in numpy's float32 the float range ends at inf."""
    if type(value) is float or isinstance(value, numbers.Rational):
        return value
    return float(value) if isinstance(value, numbers.Real) else None


def real_number(value, name: str, lo=None):
    """``value`` unchanged if it is a ``numbers.Real`` within the float range
    and, if ``lo`` is given, at least ``lo``; else :class:`BadRangeError`.
    The one rule for every real the package takes: NaN, an infinity and an
    int such as 10**400, which no float holds, are refused before any
    arithmetic could overflow on them, and a report shows the value given."""
    x = _comparable(value)
    if x is None:
        raise BadRangeError(f"need a real {name}, got {value!r}")
    # NaN fails both comparisons; an int or a Fraction compares exactly.
    if not (abs(x) <= sys.float_info.max and (lo is None or x >= lo)):
        bound = "" if lo is None else f" >= {lo}"
        raise BadRangeError(f"need a finite {name}{bound}, got {shown(value)}")
    return value


#: A shoe must hold fewer cards than this: numpy's multivariate
#: hypergeometric sampler takes no more, and the exact predictors refuse
#: the shoes the simulators refuse.
MAX_SHOE_CARDS = 10**9


def _whole_decks(decks: int) -> int:
    """``decks`` as an int: whole, at least one, of fewer than ``MAX_SHOE_CARDS`` cards."""
    decks = whole_number(decks, "decks", 1)
    if 52 * decks >= MAX_SHOE_CARDS:
        raise BadRangeError(
            f"need a shoe of fewer than {MAX_SHOE_CARDS} cards, got {shown(decks)} decks"
        )
    return decks


def _shoe_cut(decks: int, penetration: float) -> tuple[int, int]:
    """``_whole_decks(decks)`` and the cards dealt before the cut, which the
    simulators and the exact predictors all take here."""
    decks = _whole_decks(decks)
    if not (isinstance(penetration, numbers.Real) and 0 < penetration < 1):
        raise BadRangeError(f"penetration must be in (0, 1), got {shown(penetration)}")
    return decks, round(52 * decks * penetration)


def parse_composition(spec: str) -> WeightComposition:
    """Parse ``"+1:5,-1:5,0:3"`` style weight:count lists."""
    counts: dict[Fraction, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"bad composition entry {part!r}, expected weight:count")
        w_str, _, l_str = part.partition(":")
        w = as_weight(w_str.strip())
        try:
            l = int(l_str)
        except ValueError as exc:
            raise ParseError(f"bad count {l_str!r} for weight {w}") from exc
        if l < 0:
            raise ParseError(f"negative count for weight {w}")
        counts[w] = counts.get(w, 0) + l
    if not counts:
        raise ParseError(f"empty composition spec {spec!r}")
    return WeightComposition(counts)


def parse_system_file(text: str, name: str = "custom") -> CountSystem:
    """Parse a plain-text system definition: one ``rank weight`` line per rank.

    ``#`` starts a comment; weights are decimals in halves (e.g. ``5 1.5``).
    """
    weights: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'rank weight', got {raw!r}")
        rank = _canon_rank(fields[0])
        if rank in weights:
            raise ParseError(f"line {lineno}: duplicate rank {rank}")
        try:
            weights[rank] = Fraction(fields[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad weight {fields[1]!r}") from exc
    return CountSystem(name, weights)

"""Count systems, compositions, parsing, and their error paths."""
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from truecount import (
    BadRangeError,
    EmptyClassError,
    EmptyDeckError,
    ParseError,
    UnbalancedSystemError,
    UnknownSystemError,
    WeightComposition,
    builtin_systems,
    get_system,
    parse_composition,
    parse_system_file,
)
from truecount.counting import (
    _BUILTIN_WEIGHTS,
    CountSystem,
    InvalidMultiplicityError,
    _shoe_cut,
    as_weight,
    scaled_classes,
)
from truecount.verify import WEIGHT_SETS


class TestCountSystem:
    def test_hi_lo_weight_classes(self, hi_lo):
        assert hi_lo.shoe(1).counts == {
            Fraction(-1): 20,
            Fraction(0): 12,
            Fraction(1): 20,
        }

    def test_every_builtin_is_balanced(self):
        for system in builtin_systems():
            assert system.shoe(1).running_count == 0, system.name

    def test_builtin_multiplicities_total_52(self):
        for system in builtin_systems():
            assert system.shoe(1).total == 52

    def test_sigma0_hi_lo_exact_square(self, hi_lo):
        assert hi_lo.sigma0_squared == Fraction(40, 52)

    def test_get_system_case_insensitive(self):
        assert get_system("Hi-Lo").name == "hi-lo"

    def test_get_system_unknown(self):
        with pytest.raises(UnknownSystemError):
            get_system("nope")

    def test_unbalanced_rejected(self):
        weights = {r: 0 for r in "A23456789"} | {"T": 1}
        with pytest.raises(UnbalancedSystemError, match="bad: full-deck weight sum is 16, not 0"):
            CountSystem("bad", weights)

    def test_wrong_rank_set_rejected(self):
        with pytest.raises(InvalidMultiplicityError):
            CountSystem("bad", {"A": 1, "2": -1})
        with pytest.raises(InvalidMultiplicityError, match=r"got \['A'\]$"):
            CountSystem("x", {"A": 1})

    def test_multiplicities_are_derived_not_given(self):
        with pytest.raises(TypeError):
            CountSystem("x", {"A": 1}, {"A": 4})
        with pytest.raises(AttributeError):
            get_system("hi-lo").rank_multiplicity = {"T": 4}

    def test_a_rank_given_twice_is_refused(self):
        weights = {r: 0 for r in "23456789"} | {"A": 4, "T": 1, "10": -1}
        with pytest.raises(ParseError, match=r"duplicate rank T \(given again as '10'\)"):
            CountSystem("twice", weights)

    @pytest.mark.parametrize("rank", [10, 1.0, None])
    def test_a_rank_that_is_no_string_is_refused(self, rank):
        weights = {r: 0 for r in "A23456789"} | {rank: 0}
        with pytest.raises(ParseError, match="a rank must be a string"):
            CountSystem("bad", weights)

    def test_non_half_integer_weight_rejected(self):
        weights = {r: 0 for r in "A23456789"} | {"T": 0}
        weights["2"] = "1/3"
        weights["3"] = "-1/3"
        with pytest.raises(ParseError, match="weight for rank 2 is not a half-integer: 1/3"):
            CountSystem("bad", weights)

    def test_full_13_rank_layout(self):
        weights = {r: 0 for r in ("A", "2", "3", "4", "5", "6", "7", "8", "9")}
        weights |= {"T": 1, "J": 1, "Q": -1, "K": -1}
        system = CountSystem("custom13", weights)
        assert system.rank_multiplicity["T"] == 4

    def test_halves_uses_exact_fractions(self):
        halves = get_system("halves")
        assert halves.weights["2"] == Fraction(1, 2)
        assert halves.weights["5"] == Fraction(3, 2)


class TestBuiltinRegistry:
    def test_one_shared_instance_per_builtin(self):
        assert get_system("hi-lo") is get_system("HI-LO")
        assert get_system("hi-lo") is get_system(" Hi-Lo ")
        systems = builtin_systems()
        assert [s.name for s in systems] == list(_BUILTIN_WEIGHTS)
        assert all(s is get_system(s.name) for s in systems)

    def test_weights_and_multiplicities_are_read_only(self, hi_lo):
        with pytest.raises(TypeError):
            hi_lo.weights["A"] = Fraction(5)
        with pytest.raises(TypeError):
            hi_lo.rank_multiplicity["T"] = 4
        assert get_system("hi-lo").weights["A"] == -1
        assert get_system("hi-lo").rank_multiplicity["T"] == 16

    def test_returned_list_and_dict_are_copies(self):
        systems = builtin_systems()
        systems.clear()
        assert len(builtin_systems()) == len(_BUILTIN_WEIGHTS)
        zen = get_system("zen")
        rebuilt = CountSystem("zen", _BUILTIN_WEIGHTS["zen"])
        deck = zen.shoe(1).counts
        deck[Fraction(0)] = 99
        deck[Fraction(7)] = 1
        assert zen.shoe(1) == rebuilt.shoe(1)
        assert zen.shoe(2).total == 104
        assert zen.sigma0_squared == rebuilt.sigma0_squared
        assert zen.scaled_classes == rebuilt.scaled_classes

    def test_constructor_copies_its_mappings(self):
        weights = dict(get_system("hi-lo").weights)
        system = CountSystem("copy", weights)
        weights["A"] = Fraction(3)
        assert system.weights["A"] == -1
        assert system.rank_multiplicity["A"] == 4
        assert system.shoe(1) == get_system("hi-lo").shoe(1)

    def test_constructor_canonicalizes_rank_aliases(self):
        weights = dict(_BUILTIN_WEIGHTS["hi-lo"])
        weights["10"] = weights.pop("T")
        weights["a"] = weights.pop("A")
        system = CountSystem("aliased", weights)
        assert set(system.weights) == set(get_system("hi-lo").weights)
        assert system.weights["T"] == system.weights["A"] == -1
        assert system.rank_multiplicity["T"] == 16
        assert system.shoe(1) == get_system("hi-lo").shoe(1)

    def test_scaled_classes(self):
        for system in builtin_systems():
            weights, counts, scale = system.scaled_classes
            assert list(weights) == sorted(weights)
            assert sum(counts) == 52
            assert sum(w * c for w, c in zip(weights, counts)) == 0
            by_class = {Fraction(w, scale): c for w, c in zip(weights, counts)}
            assert by_class == system.shoe(1).counts
        assert get_system("halves").scaled_classes[2] == 2
        assert get_system("hi-lo").scaled_classes == ((-1, 0, 1), (20, 12, 20), 1)

    def test_composition_scaled_classes(self):
        comp = WeightComposition({"1/2": 3, -1: 2, "-3/2": 0, 0: 1})
        assert scaled_classes(comp.counts) == ((-2, 0, 1), (2, 1, 3), 2)
        # An empty class is dropped, but its weight still sets the scale.
        comp = WeightComposition({1: 2, -1: 2, "1/2": 0})
        assert scaled_classes(comp.counts) == ((-2, 2), (2, 2), 2)
        for system in builtin_systems():
            deck = system.shoe(1).counts
            assert scaled_classes(deck) == system.scaled_classes

    def test_scaled_classes_from_pairs_mapping_and_fractions(self):
        """Pairs, a mapping and the Fraction formula int(w * scale) give one scaling."""

        def by_fractions(counts):
            scale = math.lcm(*(w.denominator for w in counts))
            classes = [(int(w * scale), l) for w, l in sorted(counts.items()) if l > 0]
            weights, counts = tuple(zip(*classes)) or ((), ())
            return weights, counts, scale

        rng = random.Random(7)
        decks = [system.shoe(1).counts for system in builtin_systems()]
        decks += [
            {w: rng.randint(0, 4) for w in weights}
            for weights in WEIGHT_SETS for _ in range(20)
        ]
        for unit in (2, 3, 6):  # half, third and mixed units
            decks += [
                {Fraction(rng.randint(-9, 9), unit): rng.randint(0, 3) for _ in range(5)}
                for _ in range(40)
            ]
        for counts in decks:
            expected = by_fractions(counts)
            assert scaled_classes(counts) == expected, counts
            assert scaled_classes(list(counts.items())) == expected, counts
            assert scaled_classes(iter(counts.items())) == expected, counts


class TestShoe:
    @pytest.mark.parametrize("decks", [1, 2, 6, 8])
    def test_every_card_of_the_decks_by_weight_class(self, decks):
        for system in builtin_systems():
            cards = Counter()
            for rank, w in system.weights.items():
                cards[w] += system.rank_multiplicity[rank] * decks
            assert system.shoe(decks) == WeightComposition(cards), system.name

    @pytest.mark.parametrize("decks", [0, -2, 19_230_770])
    def test_refuses_the_decks_the_cut_refuses(self, hi_lo, decks):
        with pytest.raises(BadRangeError) as cut:
            _shoe_cut(decks, 0.5)
        with pytest.raises(BadRangeError) as shoe:
            hi_lo.shoe(decks)
        assert str(shoe.value) == str(cut.value)


class TestComposition:
    def test_total_and_running_count(self):
        comp = WeightComposition({1: 5, -1: 3, 0: 2})
        assert comp.total == 10
        # Reveal convention: R = -sum(w * remaining) = -(5 - 3) = -2.
        assert comp.running_count == -2

    def test_fresh_shoe_running_count_zero(self, hi_lo):
        shoe = hi_lo.shoe(8)
        assert shoe.total == 416
        assert shoe.running_count == 0

    def test_deplete_updates_running_count(self, hi_lo):
        shoe = hi_lo.shoe(1)
        after = shoe.deplete([1, 1, -1])
        assert after.total == 49
        assert after.running_count == 1

    def test_deplete_exhausted_class(self):
        comp = WeightComposition({1: 1, -1: 1})
        with pytest.raises(EmptyClassError):
            comp.deplete([1, 1])

    def test_negative_count_rejected(self):
        with pytest.raises(EmptyClassError):
            WeightComposition({1: -1})

    def test_true_count_units(self):
        comp = WeightComposition({1: 4, -1: 5, 0: 3})
        assert comp.true_count("card") == Fraction(1, 12)
        assert comp.true_count("deck") == Fraction(52, 12)

    def test_true_count_empty_deck(self):
        with pytest.raises(EmptyDeckError):
            WeightComposition({1: 0}).true_count()

    def test_true_count_bad_units(self):
        with pytest.raises(ParseError):
            WeightComposition({1: 1}).true_count("shoe")


class TestParsing:
    def test_parse_composition(self):
        comp = parse_composition("+1:5,-1:5,0:3")
        assert comp.counts == {
            Fraction(1): 5,
            Fraction(-1): 5,
            Fraction(0): 3,
        }

    def test_parse_composition_merges_duplicates(self):
        assert parse_composition("1:2,1:3").counts == {Fraction(1): 5}

    @pytest.mark.parametrize("spec", ["", "1", "1:x", "1:-2", "::"])
    def test_parse_composition_rejects(self, spec):
        with pytest.raises(ParseError):
            parse_composition(spec)

    def test_as_weight_coercions(self):
        assert as_weight(1.5) == Fraction(3, 2)
        assert as_weight("-1/2") == Fraction(-1, 2)
        with pytest.raises(ParseError):
            as_weight("abc")
        with pytest.raises(ParseError):
            as_weight(object())

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, "nan", "inf"])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ParseError, match="bad weight"):
            WeightComposition({w: 2})
        weights = {"A": w, **{r: 0 for r in "23456789"}, "T": 0}
        with pytest.raises(ParseError, match="bad weight"):
            CountSystem("custom", weights)

    def test_parse_system_file(self):
        text = """
        # custom system
        A -1
        2 0.5
        3 1
        4 1
        5 1.5
        6 1
        7 0.5
        8 0
        9 -0.5
        10 -1
        """
        system = parse_system_file(text, name="halves-copy")
        assert system.weights == get_system("halves").weights

    def test_parse_system_file_duplicate_rank(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_system_file("A 1\n2 0\nA -1\n")

    def test_parse_system_file_bad_weight(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_system_file("A one\n")


@given(
    counts=st.dictionaries(
        st.sampled_from([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)]),
        st.integers(min_value=0, max_value=12),
        min_size=1,
    )
)
def test_running_count_matches_definition(counts):
    comp = WeightComposition(counts)
    assert comp.running_count == -sum(w * l for w, l in counts.items())
    assert comp.total == sum(counts.values())

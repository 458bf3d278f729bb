"""Combinatorial identity checkers and the verification sweeps."""
import contextlib
import inspect
import io
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from truecount import WeightComposition, cli, composition, exact, verify
from truecount.counting import scaled_classes
from truecount.errors import BadRangeError, InfeasiblePrefixError
from truecount.exact import (
    IdentityReport,
    _censuses,
    _telescoping,
    check_lemma1,
    check_lemma2,
    check_lemma34,
    check_lemma6,
)
from truecount.verify import (
    WEIGHT_SETS,
    VerificationResult,
    verify_kelly,
    verify_lemmas,
    verify_theorem,
)


def compositions_over(weights, total: int):
    """Every composition of ``total`` cards over ``weights``, in the sweeps' order."""
    for counts in verify._count_tuples(len(weights), total):
        yield WeightComposition(dict(zip(weights, counts)))


def _bend(monkeypatch, name: str, *edits: tuple[str, str]):
    """Put in a copy of ``verify.<name>`` whose source reads ``new`` for each ``old``.

    Each ``old`` of the ``(old, new)`` edits must occur in the source, so a
    fault planted this way cannot miss the code it is meant to bend.
    Returns the bent function.
    """
    source = inspect.getsource(getattr(verify, name))
    for old, new in edits:
        assert old in source, old
        source = source.replace(old, new)
    namespace = {}
    exec(source, vars(verify), namespace)
    monkeypatch.setattr(verify, name, namespace[name])
    return namespace[name]


def _bend_block(monkeypatch, old: str, new: str):
    """``_bend`` of ``verify._removal_block``, the lemma 1, 2 and 3-4 block."""
    return _bend(monkeypatch, "_removal_block", (old, new))


#: The blocks' comparison of the two sides, and a bend of it that fails
#: every check, so a block reports each check's sides.
COMPARISON = "if lhs * rhs_den != rhs * lhs_den:"
EVERY_CHECK_FAILS = "if True:"


@pytest.fixture
def comp():
    return composition({1: 4, -1: 3, 0: 3})


class TestIdentityCheckers:
    def test_lemma1_holds(self, comp):
        report = check_lemma1(comp, [], 1)
        assert report.equal
        assert report.rhs == Fraction(4, 10)

    def test_lemma1_with_prefix(self, comp):
        assert check_lemma1(comp, [1, -1], 0).equal

    def test_lemma2_holds(self, comp):
        assert check_lemma2(comp, [1], [0, -1]).equal

    def test_lemma34_reduces_to_lemma2_at_k1(self, comp):
        a = check_lemma34(comp, [], 1, [1]).lhs
        b = check_lemma2(comp, [], [1]).lhs
        assert a == b

    def test_lemma34_multi_removal(self, comp):
        assert check_lemma34(comp, [0], 3, [1, -1]).equal

    def test_lemma6_holds(self):
        report = check_lemma6(Fraction(3), 10, 3, [1, -1, 0])
        assert report.equal

    def test_lemma6_nonzero_increment(self):
        # R=0, N=4, remove two +1 cards: increment 1 vs telescoped sum.
        report = check_lemma6(0, 4, 2, [1, 1])
        assert report.lhs == 1
        assert report.equal

    def test_sides_compared_by_cross_multiplication(self):
        report = IdentityReport("demo", 2, 4, -3, -6)
        assert report.equal
        assert (report.lhs, report.rhs) == (Fraction(1, 2), Fraction(1, 2))
        assert not report._replace(lhs_num=3).equal

    def test_infeasible_prefix(self, comp):
        with pytest.raises(InfeasiblePrefixError):
            check_lemma1(comp, [2], 1)

    def test_an_empty_draw_is_named(self, comp):
        for empty_draw in (
            lambda: check_lemma2(comp, [], []),
            lambda: check_lemma34(comp, [], 1, []),
        ):
            with pytest.raises(BadRangeError, match="needs at least one drawn weight"):
                empty_draw()

    def test_bad_ranges(self, comp):
        with pytest.raises(BadRangeError):
            check_lemma1(composition({1: 1, -1: 1}), [1], 1)
        with pytest.raises(BadRangeError):
            check_lemma2(comp, [], [])
        with pytest.raises(BadRangeError):
            check_lemma34(comp, [], 0, [1])
        with pytest.raises(BadRangeError):
            check_lemma6(0, 4, 4, [1, 1, 1, 1])
        # p + k + q = N - 1 is in range for all three; one card more is not.
        two = composition({1: 1, -1: 1})
        assert check_lemma1(two, [], 1).equal
        assert check_lemma2(two, [], [1]).equal
        assert check_lemma34(two, [], 1, [1]).equal
        for out_of_range in (
            lambda: check_lemma2(two, [], [1, -1]),
            lambda: check_lemma2(two, [1], [-1]),
            lambda: check_lemma34(two, [], 2, [1]),
            lambda: check_lemma34(two, [1], 1, [-1]),
            lambda: check_lemma34(two, [], 1, []),
        ):
            with pytest.raises(BadRangeError):
                out_of_range()


@settings(max_examples=50, deadline=None)
@given(
    counts=st.dictionaries(
        st.sampled_from([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)]),
        st.integers(min_value=1, max_value=6),
        min_size=2,
    ),
    data=st.data(),
)
def test_lemma1_random(counts, data):
    comp = composition(counts)
    weights = sorted(comp.counts)
    v0 = data.draw(st.sampled_from(weights))
    assert check_lemma1(comp, [], v0).equal


@settings(max_examples=50, deadline=None)
@given(
    r_num=st.integers(min_value=-20, max_value=20),
    n_total=st.integers(min_value=3, max_value=30),
    data=st.data(),
)
def test_lemma6_random(r_num, n_total, data):
    n = data.draw(st.integers(min_value=1, max_value=n_total - 1))
    ws = data.draw(
        st.lists(
            st.sampled_from([Fraction(-2), Fraction(-1, 2), Fraction(1)]),
            min_size=n,
            max_size=n,
        )
    )
    assert check_lemma6(Fraction(r_num, 2), n_total, n, ws).equal


def _draw_frequency(deck, head, gap, tail):
    """Among ordered draws of distinct cards that start with ``head``, the
    share whose cards after ``gap`` more are ``tail``."""
    head, tail = list(head), list(tail)
    draws = hits = 0
    for positions in itertools.permutations(range(len(deck)), len(head) + gap + len(tail)):
        cards = [deck[i] for i in positions]
        if cards[: len(head)] == head:
            draws += 1
            hits += cards[len(head) + gap :] == tail
    return Fraction(hits, draws)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lemmas_match_ordered_draw_frequencies(data):
    """Both sides of lemmas 1, 2 and 3-4 against enumerated draws of a small deck."""
    weights = data.draw(st.sampled_from(WEIGHT_SETS))
    deck = data.draw(st.lists(st.sampled_from(weights), min_size=3, max_size=7))
    N = len(deck)
    p = data.draw(st.integers(min_value=0, max_value=min(2, N - 2)))
    prefix = data.draw(st.permutations(deck))[:p]
    q = data.draw(st.integers(min_value=0, max_value=min(1, N - 2 - p)))
    # Drawn from the whole weight set, so a weight may have no cards in the deck.
    vs = data.draw(st.lists(st.sampled_from(weights), min_size=q + 1, max_size=q + 1))
    comp = composition(Counter(deck))

    report = check_lemma1(comp, prefix, vs[0])
    assert report.lhs == _draw_frequency(deck, prefix, 1, vs[:1])
    assert report.rhs == _draw_frequency(deck, prefix, 0, vs[:1])
    report = check_lemma2(comp, prefix, vs)
    assert report.lhs == _draw_frequency(deck, prefix, 1, vs)
    assert report.rhs == _draw_frequency(deck, prefix, 0, vs)
    for k in (1, 2):
        if p + k + q <= N - 1:
            report = check_lemma34(comp, prefix, k, vs)
            assert report.lhs == _draw_frequency(deck, prefix, k, vs)
            assert report.rhs == _draw_frequency(deck, prefix, 0, vs)


def _assert_reduced(*texts):
    for text in texts:
        assert str(Fraction(text)) == text


class TestFailuresAreDiagnosable:
    def test_off_by_one_lemma_side(self, monkeypatch):
        real = verify.check_lemma2

        def bent(*args):
            report = real(*args)
            return report._replace(rhs_num=report.rhs_num + 1)

        monkeypatch.setattr(verify, "check_lemma2", bent)
        result = verify_lemmas(exhaustive_n=3)
        assert not result.passed
        first = result.failures[0]
        assert first.startswith("lemma2 comp=")
        lhs, rhs = re.search(r": lhs=(\S+) rhs=(\S+)$", first).groups()
        _assert_reduced(lhs, rhs)
        assert Fraction(lhs) != Fraction(rhs)

    def test_off_by_one_in_the_index_space_core(self, monkeypatch):
        """The exhaustive block's details give the prefix and drawn weights as weights."""
        _bend_block(monkeypatch, "rhs * lhs_den", "(rhs := rhs + 1) * lhs_den")
        result = verify_lemmas(exhaustive_n=3, random_instances=0)
        assert not result.passed
        first = result.failures[0]
        assert first == (
            "lemma1 comp={Fraction(-1, 1): 0, Fraction(1, 1): 2} prefix=() k=1 "
            "vs=(Fraction(-1, 1),): lhs=0 rhs=1/2"
        )
        lhs, rhs = re.search(r": lhs=(\S+) rhs=(\S+)$", first).groups()
        _assert_reduced(lhs, rhs)
        assert Fraction(lhs) != Fraction(rhs)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("- same * first_total", ""),
            ("(counts[v1] - same)", "counts[v1]"),
            ("same = v0 == v1", "same = 0"),
        ],
        ids=["left", "right", "both"],
    )
    def test_fault_in_the_same_class_correction(self, monkeypatch, old, new):
        """A second draw of the first draw's class must find one card fewer.

        Without that correction on either side, or on both, the sweep
        fails, and only on checks that draw one weight twice.
        """
        _bend_block(monkeypatch, old, new)
        result = verify_lemmas(exhaustive_n=4, random_instances=0)
        assert result.checked == 3_283
        assert not result.passed
        assert all(
            re.search(r" vs=\((Fraction\([^)]*\)), \1\): ", f) for f in result.failures
        )

    def test_draws_past_two_are_refused(self, monkeypatch):
        """The block evaluates one or two draws; three are refused, not mis-evaluated."""
        three_draws = ("lemma34", 1, 2)
        monkeypatch.setattr(verify, "_REMOVAL_CHECKS", (*verify._REMOVAL_CHECKS, three_draws))
        with pytest.raises(ValueError, match="q=2"):
            verify_lemmas(exhaustive_n=2, random_instances=0)

    @pytest.mark.parametrize("fault", ["drop", "ways"])
    def test_fault_in_the_census_table(self, monkeypatch, fault):
        """A table short of one census, or one census's ways off by one, fails."""
        real = verify._censuses

        def bent(counts, k):
            table = real(counts, k)
            if fault == "drop":
                return table[:-1]
            (removed, ways), *rest = table
            return [(removed, ways + 1), *rest]

        monkeypatch.setattr(verify, "_censuses", bent)
        result = verify_lemmas(exhaustive_n=3, random_instances=0)
        assert not result.passed
        first = result.failures[0]
        assert first.startswith("lemma1 comp={Fraction(-1, 1): 0, Fraction(1, 1): 2} ")
        assert " prefix=() k=1 vs=(Fraction(" in first
        lhs, rhs = re.search(r": lhs=(\S+) rhs=(\S+)$", first).groups()
        _assert_reduced(lhs, rhs)
        assert Fraction(lhs) != Fraction(rhs)

    def test_off_by_one_in_the_lemma6_core(self, monkeypatch):
        """The exhaustive block's lemma 6 details give ``ws`` as weights."""
        _bend(monkeypatch, "_telescoping_block", ("rhs * lhs_den", "(rhs := rhs + 1) * lhs_den"))
        result = verify_lemmas(exhaustive_n=3, random_instances=0)
        assert not result.passed
        assert all(f.startswith("lemma6 ") for f in result.failures)
        assert result.failures[0] == (
            "lemma6 comp={Fraction(-1, 1): 0, Fraction(1, 1): 2} ws=(Fraction(-1, 1),): "
            "lhs=-2 rhs=-3/2"
        )
        assert (len(result.failures), result.checked) == (168, 802)  # every lemma 6 check

    @pytest.mark.parametrize(
        "old, new",
        [
            ("for s in scaled]", "for s in scaled[::-1]]"),
            ("(terms[v0] + terms[v1])", "(terms[v0] + terms[v0])"),
            ("scaled[v0] + scaled[v1]", "scaled[v0] + scaled[v0]"),
            ("r * (N - 2)", "r * (N - 1)"),
            ("D * N * (N - 1) * (N - 2)", "D * N * (N - 2) * (N - 2)"),
        ],
        ids=["terms", "right-sum", "left-sum", "left-offset", "right-den"],
    )
    def test_fault_in_the_lemma6_block(self, monkeypatch, old, new):
        """A fault in any part of the bulk lemma 6 pass fails the sweep, on lemma 6 only."""
        _bend(monkeypatch, "_telescoping_block", (old, new))
        result = verify_lemmas(exhaustive_n=4, random_instances=0)
        assert result.checked == 3_283
        assert not result.passed
        assert all(f.startswith("lemma6 ") for f in result.failures)

    def test_off_by_one_variance_numerator(self, monkeypatch):
        """The sweep and the law share one variance numerator; bend it in both."""
        real = exact._variance_numerator

        def bent(*sums):
            return real(*sums) + 1

        monkeypatch.setattr(exact, "_variance_numerator", bent)
        monkeypatch.setattr(verify, "_variance_numerator", bent)
        result = VerificationResult("theorem")
        verify._check_moments(result, composition({1: 3, -1: 2, 0: 2}).counts.items())
        assert len(result.failures) == 6
        assert all(f.startswith("variance ") for f in result.failures)
        var, closed = re.match(
            r"variance (\S+) != closed form (\S+) for comp=", result.failures[0]
        ).groups()
        _assert_reduced(var, closed)
        assert Fraction(var) != Fraction(closed)


class TestIndexSpaceSweep:
    def test_core_matches_weight_level_checkers(self, monkeypatch):
        """Every lemma 1, 2 and 3-4 check of the exhaustive sweep, both sides.

        With its comparison bent to fail every check, the block reports
        each check's report, which must equal the weight-level checker's.
        """
        checked = verify_lemmas(exhaustive_n=5, random_instances=0).checked
        _bend_block(monkeypatch, COMPARISON, EVERY_CHECK_FAILS)
        checkers = {
            "lemma1": lambda comp, prefix, k, vs: check_lemma1(comp, prefix, vs[0]),
            "lemma2": lambda comp, prefix, k, vs: check_lemma2(comp, prefix, vs),
            "lemma34": check_lemma34,
        }
        compared = lemma6 = 0
        for weights in WEIGHT_SETS[:2]:
            for total in range(2, 6):
                for comp in compositions_over(weights, total):
                    lemma6 += sum(len(weights) ** n for n in range(1, min(3, total)))
                    have = tuple(comp.counts[w] for w in weights)
                    for prefix, counts in verify._prefixes(have):
                        checks, entries = verify._removal_block(counts)
                        assert len(entries) == checks
                        for k, vs, core in entries:
                            public = checkers[core.name](
                                comp, [weights[i] for i in prefix], k, [weights[i] for i in vs]
                            )
                            assert core == public and core.equal
                            compared += 1
        assert compared + lemma6 == checked

    def test_census_table_matches_subsets(self):
        """Census by census, the table counts the k-subsets of the cards."""
        rng = random.Random(5)
        for _ in range(60):
            counts = [rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(rng.randint(1, 4))]
            cards = [i for i, l in enumerate(counts) for _ in range(l)]
            for k in range(1, min(3, len(cards)) + 1):
                subsets = Counter(
                    tuple(map([cards[j] for j in subset].count, range(len(counts))))
                    for subset in itertools.combinations(range(len(cards)), k)
                )
                table = _censuses(counts, k)
                assert dict(table) == subsets, (counts, k)
                assert len(table) == len(subsets)
                assert sum(ways for _, ways in table) == math.comb(len(cards), k)

    def test_telescoping_core_matches_check_lemma6(self):
        """The sweep's lemma 6 instances to 5 cards, over every weight set."""
        compared = 0
        for weights in WEIGHT_SETS:
            D = math.lcm(*(w.denominator for w in weights))
            scaled = [w.numerator * (D // w.denominator) for w in weights]
            for total in range(2, 6):
                for comp in compositions_over(weights, total):
                    r = -sum(s * comp.counts[w] for s, w in zip(scaled, weights))
                    for n in range(1, min(3, total)):
                        for ws in itertools.product(range(len(weights)), repeat=n):
                            core = _telescoping(r, [scaled[i] for i in ws], D, total, n)
                            public = check_lemma6(
                                comp.running_count, total, n, [weights[i] for i in ws]
                            )
                            assert (core.lhs, core.rhs, core.equal) == (
                                public.lhs, public.rhs, public.equal
                            )
                            compared += 1
        assert D == 2  # WEIGHT_SETS[3] is in half units
        assert compared == 5_186

    def test_wider_weight_sets_exhaustively(self):
        # The two four-class weight sets, integer and half-integer, which the
        # exhaustive block of verify_lemmas leaves out: every composition of
        # up to 6 cards (the largest n that takes under 2 s on a 2-core host),
        # with the sweep's lemma 1, 2, 3-4 and 6 instances.
        # The lemma 1, 2 and 3-4 checks of a prefix depend only on the counts
        # it leaves, so each block is evaluated once and counted per prefix.
        checked = 0
        for weights in WEIGHT_SETS[2:]:
            blocks = {}
            for total in range(2, 7):
                for comp in compositions_over(weights, total):
                    have = tuple(comp.counts[w] for w in weights)
                    for _, counts in verify._prefixes(have):
                        if counts not in blocks:
                            blocks[counts] = verify._removal_block(counts)
                            assert not blocks[counts][1], (counts, blocks[counts][1])
                        checked += blocks[counts][0]
                    for n in range(1, min(3, total)):
                        for ws in itertools.product(weights, repeat=n):
                            report = check_lemma6(comp.running_count, total, n, ws)
                            assert report.equal, (dict(comp.counts), report)
                            checked += 1
        assert checked == 193_912

    def test_each_identity_evaluated_once_per_counts_left(self, monkeypatch):
        """One evaluation per distinct (counts left, name, k, vs), none shared by name.

        With every check made to fail, each evaluation leaves its own report.
        """
        _bend_block(monkeypatch, COMPARISON, EVERY_CHECK_FAILS)
        bent = verify._removal_block
        calls, reports = Counter(), Counter()

        def counted(counts):
            calls[counts] += 1
            checks, failed = bent(counts)
            assert len(failed) == checks
            for k, vs, report in failed:
                reports[counts, report.name, k, vs] += 1
            return checks, failed

        monkeypatch.setattr(verify, "_removal_block", counted)
        result = verify_lemmas(exhaustive_n=4, random_instances=0)
        assert result.checked == 3_283
        assert len(result.failures) == 3_283 - 378  # all but the 378 lemma 6 checks
        assert sum(calls.values()) == len(calls) == 50
        assert sum(reports.values()) == len(reports) == 1_121
        assert {name for _, name, _, _ in reports} == {"lemma1", "lemma2", "lemma34"}
        # Lemmas 1 and 2 at one draw are the same identity, evaluated apart.
        assert {key[2:] for key in reports if key[1] == "lemma1"} <= {
            key[2:] for key in reports if key[1] == "lemma2"
        }

    def test_fault_in_one_kind_of_check(self, monkeypatch):
        """A fault in lemma 3-4 with k=2 and two drawn weights fails only those checks."""
        _bend_block(
            monkeypatch,
            "rhs = counts[v0] * (counts[v1] - same)",
            "rhs = counts[v0] * (counts[v1] - same) + (name == 'lemma34' and k == 2)",
        )
        result = verify_lemmas(exhaustive_n=4, random_instances=0)
        assert result.checked == 3_283
        assert len(result.failures) == 155
        assert all(
            re.match(r"lemma34 .* k=2 vs=\(Fraction\([^)]*\), Fraction\([^)]*\)\): ", f)
            for f in result.failures
        )
        assert result.failures[0] == (
            "lemma34 comp={Fraction(-1, 1): 0, Fraction(1, 1): 4} prefix=() k=2 "
            "vs=(Fraction(-1, 1), Fraction(-1, 1)): lhs=0 rhs=1/12"
        )

    def test_a_passing_block_builds_no_report(self, monkeypatch):
        """An ``IdentityReport`` is built only for a check that fails.

        Lemma 6 too is evaluated in bulk: a passing sweep builds no report
        through ``_telescoping`` either.
        """
        built, telescoped = [], []
        monkeypatch.setattr(verify, "IdentityReport", lambda *sides: built.append(sides))
        monkeypatch.setattr(exact, "_telescoping", lambda *args: telescoped.append(args))
        assert verify_lemmas(exhaustive_n=4, random_instances=0).passed
        assert built == [] and telescoped == []

    def test_lemma6_scales_each_weight_in_any_order(self, monkeypatch):
        """A weight set out of increasing order still pairs each weight with its count.

        Every lemma 6 check is made to fail; its text must name the
        composition and weights whose scaled values the check received.
        """
        monkeypatch.setattr(verify, "WEIGHT_SETS", tuple(ws[::-1] for ws in WEIGHT_SETS))
        bent = _bend(
            monkeypatch,
            "_telescoping_block",
            (COMPARISON, EVERY_CHECK_FAILS),
            ('IdentityReport("lemma6", lhs, lhs_den, rhs, rhs_den)',
             'IdentityReport("lemma6", 0, 1, 1, 1)'),
        )
        calls = []

        def recorded(r, scaled, D, N):
            failed = bent(r, scaled, D, N)
            calls.extend((r, tuple(scaled[i] for i in ws), D) for ws, _ in failed)
            return failed

        monkeypatch.setattr(verify, "_telescoping_block", recorded)
        result = verify_lemmas(exhaustive_n=4, random_instances=0)
        assert result.checked == 3_283
        assert len(result.failures) == len(calls) == 378
        for (r, s, D), failure in zip(calls, result.failures):
            found = re.fullmatch(r"lemma6 comp=(\{.*\}) ws=(\(.*\)): lhs=0 rhs=1", failure)
            comp, ws = (eval(g, {"Fraction": Fraction}) for g in found.groups())
            assert r == -D * sum(w * l for w, l in comp.items()), failure
            assert s == tuple(D * w for w in ws), failure

    def test_lemma6_block_matches_the_telescoping_core(self, monkeypatch):
        """Every lemma 6 check to 5 cards, over every weight set, both sides.

        With its comparison bent to fail every check, the bulk pass reports
        each check, in sweep order, and its report must equal
        ``_telescoping``'s for the same draw.
        """
        bent = _bend(monkeypatch, "_telescoping_block", (COMPARISON, EVERY_CHECK_FAILS))
        compared = 0
        for weights in WEIGHT_SETS:
            D = math.lcm(*(w.denominator for w in weights))
            scaled = [w.numerator * (D // w.denominator) for w in weights]
            for total in range(2, 6):
                draws = [
                    ws
                    for n in range(1, min(3, total))
                    for ws in itertools.product(range(len(weights)), repeat=n)
                ]
                for comp in compositions_over(weights, total):
                    r = -sum(s * comp.counts[w] for s, w in zip(scaled, weights))
                    failed = bent(r, scaled, D, total)
                    assert [ws for ws, _ in failed] == draws
                    for ws, report in failed:
                        core = _telescoping(r, [scaled[i] for i in ws], D, total, len(ws))
                        assert report == core and core.equal
                        compared += 1
        assert compared == 5_186


class TestSweeps:
    def test_count_tuples_counts(self):
        tuples = list(verify._count_tuples(2, 4))
        assert len(tuples) == 5
        assert all(sum(counts) == 4 for counts in tuples)

    def test_count_tuples_match_recursive_reference(self):
        def reference(classes: int, total: int) -> list[tuple[int, ...]]:
            if classes == 1:
                return [(total,)]
            return [
                (first, *rest)
                for first in range(total + 1)
                for rest in reference(classes - 1, total - first)
            ]

        for classes in range(1, 5):
            for total in range(11):
                got = list(verify._count_tuples(classes, total))
                assert got == reference(classes, total), (classes, total)

    def test_verify_lemmas_quick(self):
        result = verify_lemmas(seed=1, exhaustive_n=4, random_instances=5)
        assert result.passed
        assert result.checked > 100
        assert "PASS" in result.summary()

    @pytest.mark.parametrize(
        "sweep, kwargs",
        [
            (verify_theorem, {"exhaustive_limits": (2, 2, 2, 2, 30), "sampled_totals": ()}),
            (verify_lemmas, {"random_instances": -1}),
            (verify_theorem, {"sampled_totals": (1,), "exhaustive_limits": ()}),
            (verify_theorem, {"samples_per_total": -1, "exhaustive_limits": ()}),
            (verify_lemmas, {"exhaustive_n": 1, "random_instances": 0}),
            (verify_lemmas, {"exhaustive_n": -5, "random_instances": 0}),
            (verify_theorem, {"exhaustive_limits": (1,), "sampled_totals": ()}),
            (verify_theorem, {"exhaustive_limits": (), "sampled_totals": ()}),
            (verify_theorem, {"exhaustive_limits": (), "samples_per_total": 0}),
        ],
    )
    def test_bad_sweep_arguments(self, sweep, kwargs):
        with pytest.raises(BadRangeError):
            sweep(**kwargs)

    def test_empty_blocks_stay_valid(self):
        assert verify_lemmas(exhaustive_n=3, random_instances=0).passed
        result = verify_theorem(exhaustive_limits=(), sampled_totals=(6,), samples_per_total=1)
        assert result.passed and result.checked == 4 * 3 * 5

    def test_verify_theorem_quick(self):
        result = verify_theorem(
            seed=1, exhaustive_limits=(6, 5, 4, 4), sampled_totals=(10,),
            samples_per_total=1,
        )
        assert result.passed

    def test_verify_kelly_quick(self):
        result = verify_kelly(lo=0.55, hi=0.75, step=0.05)
        assert result.passed
        assert result.checked == 5

    def test_failure_is_reported(self):
        result = VerificationResult("demo")
        result.record(True, "fine")
        result.record(False, "boom")
        assert not result.passed
        assert result.failures == ["boom"]
        assert "FAIL" in result.summary()

    def test_callable_detail_runs_only_on_failure(self):
        calls = []

        def detail():
            calls.append(1)
            return "late"

        result = VerificationResult("demo")
        result.record(True, detail)
        assert calls == []
        result.record(False, detail)
        assert result.failures == ["late"] and calls == [1]

    def test_record_all_details_only_the_failed(self):
        formatted = []

        def detail(entry):
            formatted.append(entry)
            return f"bad {entry}"

        result = VerificationResult("demo")
        result.record_all(5, [], detail)
        assert result.passed and result.checked == 5 and formatted == []
        result.record_all(4, ["b", "d"], detail)
        assert result.checked == 9
        assert result.failures == ["bad b", "bad d"] and formatted == ["b", "d"]


def _bent_rows(move: bool):
    """``exact._packed_layers`` with one subset added to (or moved within) each row.

    Adding a subset at the lowest running count (slot 0) breaks the total
    mass; moving one from the lowest slot to the highest keeps the mass but
    shifts the mean.  The laws past N/2 are the mirrors of the bent rows.
    """
    real = exact._packed_layers

    def layers(*args):
        packed = real(*args)
        rows = []
        for row in packed.rows:
            top = 1 << (row.bit_length() - 1) // packed.width * packed.width
            rows.append(row + top - 1 if move else row + 1)
        return packed._replace(rows=rows)

    return layers


def _layers_in_place(descending: bool):
    """A plain in-place packed census DP, unpruned and with no row offsets,
    its layers updated in the given order."""

    def layers(weights, counts, start, lo, hi):
        w0 = weights[0]
        g = math.gcd(*(w - w0 for w in weights)) or 1
        width = exact._slot_width(sum(counts), hi, hi * (weights[-1] - w0) // g)
        rows = [1] + [0] * hi
        order = range(hi, 0, -1) if descending else range(1, hi + 1)
        for w, l in zip(weights, counts):
            for r in order:
                for c in range(1, min(l, r) + 1):
                    rows[r] += math.comb(l, c) * rows[r - c] << c * (w - w0) // g * width
        bases = [start + n * w0 for n in range(lo, hi + 1)]
        return exact.PackedRows(rows[lo:], bases, g, width)

    return layers


def _exact_cli(spec: str, n: int) -> tuple[int, str]:
    """``truecount exact`` on one law: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["exact", "-c", spec, "-n", str(n)])
    return code, err.getvalue()


class TestMomentChecksCatchWrongCensus:
    COMP = {1: 3, -1: 2, 0: 2}
    SPEC = "1:3,-1:2,0:2"

    def _check(self, monkeypatch, move):
        monkeypatch.setattr(exact, "_packed_layers", _bent_rows(move))
        result = VerificationResult("theorem")
        verify._check_moments(result, composition(self.COMP).counts.items())
        assert result.checked == 3 * (sum(self.COMP.values()) - 1)
        return result.failures

    def test_extra_subset(self, monkeypatch):
        failures = self._check(monkeypatch, move=False)
        for kind in ("probs sum", "mean", "variance"):
            assert any(f.startswith(kind) for f in failures), kind
        # A law reads the same bent row, and ``truecount exact`` refuses it.
        assert _exact_cli(self.SPEC, 2) == (2, "error: enumerated probabilities sum to 22/21 != 1\n")

    def test_moved_subset(self, monkeypatch):
        failures = self._check(monkeypatch, move=True)
        assert not any(f.startswith("probs sum") for f in failures)
        # Every row has at least two running counts, so every mean moves,
        # the mirrored laws' too.
        assert sum(f.startswith("mean") for f in failures) == 6

    @pytest.mark.parametrize("descending", [True, False])
    def test_layer_order(self, monkeypatch, descending):
        """The in-place DP must update its layers in descending order: in
        ascending order a layer reads layers the class has already updated."""
        monkeypatch.setattr(exact, "_packed_layers", _layers_in_place(descending))
        result = VerificationResult("theorem")
        verify._check_moments(result, composition(self.COMP).counts.items())
        assert result.checked == 18
        if descending:
            assert result.passed
        else:
            assert any(f.startswith("probs sum") for f in result.failures)

    def test_narrow_slot_width(self, monkeypatch):
        """Slots wide enough for the multiplicities but not for the span^2
        factor let T1 and T2 carry into each other's digits of the remainder:
        the mass of every law holds, its mean or variance does not.  A law
        reads its moments from its packed row by the same remainder, so the
        laws go wrong as the sweep does (a law packs its one row m with
        slots sized for m, so at other n than the sweep's rows to N/2), and
        ``truecount exact`` refuses them."""
        monkeypatch.setattr(
            exact, "_slot_width", lambda N, hi, span: math.comb(N, min(hi, N // 2)).bit_length() + 1
        )
        comp = composition({1: 5, -1: 5, 0: 3})
        result = VerificationResult("theorem")
        verify._check_moments(result, comp.counts.items())
        assert result.checked == 36
        assert [(f.split()[0], int(f.rsplit("n=", 1)[1])) for f in result.failures] == [
            ("variance", 4), ("mean", 5), ("variance", 5), ("mean", 6), ("variance", 6),
            ("mean", 7), ("variance", 7), ("mean", 8), ("variance", 8), ("variance", 9),
        ]
        wrong = [
            n for n in range(1, comp.total)
            if exact.tc_distribution(comp, n).variance() != exact.sigma_n_exact(comp, n).squared
        ]
        assert wrong == list(range(3, 11))
        assert _exact_cli("1:5,-1:5,0:3", 5) == (
            2, "error: enumerated variance 541/17424 != closed form 25/624\n"
        )

    def test_mirror_sign_slip(self, monkeypatch):
        """A sign slip in the mirrored S1 fails the mean of every law past N/2."""
        real = exact._mirrored

        def slipped(sums, start):
            s0, s1, s2 = real(sums, start)
            return s0, -s1, s2

        monkeypatch.setattr(exact, "_mirrored", slipped)
        result = VerificationResult("theorem")
        verify._check_moments(result, composition(self.COMP).counts.items())
        assert result.checked == 18
        assert [(f.split()[0], f.rsplit("n=", 1)[1]) for f in result.failures] == [
            ("mean", "4"), ("mean", "5"), ("mean", "6")
        ]
        # Each detail prints the sums the check compared, so its sides differ.
        for failure in result.failures:
            mean, closed = re.match(r"mean (\S+) != R/N (\S+) for comp=", failure).groups()
            _assert_reduced(mean, closed)
            assert Fraction(mean) != Fraction(closed)
        # The laws past N/2 read the same mirror, and ``truecount exact``
        # refuses their mean: R/N is -1/7.
        assert exact.tc_distribution(composition(self.COMP), 5).mean() == Fraction(1, 7)
        assert _exact_cli(self.SPEC, 5) == (2, "error: enumerated mean 1/7 != R/N -1/7\n")


@pytest.mark.parametrize("odd", [0, 1])
@settings(max_examples=40, deadline=None)
@given(weights=st.sampled_from(WEIGHT_SETS), data=st.data())
def test_sweep_sums_are_the_laws_sums(odd, weights, data):
    """For odd and even N <= 14, mirrored laws included: the sweep's sums are the laws'."""
    total = 2 * data.draw(st.integers(1, 7 - odd)) + odd
    cuts = sorted(data.draw(st.lists(
        st.integers(0, total), min_size=len(weights) - 1, max_size=len(weights) - 1
    )))
    pairs = tuple(zip(weights, verify._between(cuts, total)))
    sums = exact._law_sums(exact._scaled(pairs))
    comp = composition(dict(pairs))
    assert sums == [exact.tc_distribution(comp, n).sums[:3] for n in range(1, total)]


def test_moment_sweep_scales_each_composition_once(monkeypatch):
    calls = []

    def counted(counts):
        calls.append(dict(counts))
        return scaled_classes(counts)

    monkeypatch.setattr(exact, "scaled_classes", counted)
    comp = composition({Fraction(-3, 2): 3, Fraction(1, 2): 4, 1: 2})
    result = VerificationResult("theorem")
    verify._check_moments(result, comp.counts.items())
    assert result.passed and result.checked == 3 * (comp.total - 1)
    assert calls == [comp.counts]


def test_passing_sweeps_build_no_composition(monkeypatch):
    """The theorem sweep and the exhaustive lemma sweep run on count tuples;
    a composition is built only for a failure's text."""
    real = WeightComposition.__post_init__
    built = []

    def counted(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(WeightComposition, "__post_init__", counted)
    theorem = verify_theorem(exhaustive_limits=(8, 6), sampled_totals=(10,), samples_per_total=2)
    lemmas = verify_lemmas(exhaustive_n=4, random_instances=0)
    assert theorem.passed and lemmas.passed and lemmas.checked == 3_283
    assert built == []
    composition({1: 1})
    assert built == [1]  # the count sees a construction

"""Verification sweeps: exact identity checks and closed-form cross-checks.

These drive both the ``verify`` CLI subcommand and the acceptance tests.
Every identity is evaluated exactly, each side an integer numerator over an
integer denominator, and the sides are compared by cross-multiplication.
The exhaustive lemma sweep works in weight-class index space: prefixes,
their feasibility and the drawn weights are tuples of class indices over a
composition's counts, so no weight is hashed per check.  Which lemma 1, 2
and 3-4 checks apply after a prefix, and what they evaluate to, depends
only on the counts left, so each sweep call evaluates the block of checks
for a tuple of counts left once, in bulk (one integer pass per (k, q),
a report built only for a failure).  Lemma 6 is evaluated in bulk as
well, per composition, from weights scaled to integers once per weight
set (``_telescoping_block``).  A composition's removal blocks, one per
prefix, and its lemma 6 checks go to one ``record_all``.  The moment sweep
works in class-index space too: its compositions are tuples of class
counts, each scaled to integers from its (weight, count) pairs.  It
compares each law's integer power sums with the closed forms: it reads
the sums of each packed census row to N/2 from one remainder of the
row's int, takes the sums past N/2 by the mirror identity, builds no law
and records the checks in bulk.  Those are the sums every law's moments
are: ``TrueCountDistribution`` reads its one row by the same readout and
mirror.  A failed check's
detail gives both sides as fractions built from the power sums it
compared.  The exhaustive lemma block and the moment sweep
build no ``WeightComposition``: a composition's weight -> count dict is
made only for a failure's text.
The Kelly sweep runs one golden-section search over the whole p0 grid,
every point to the stated tolerance, judges the grid as arrays and
records one check per point, formatting a detail only for a point that
fails.  The ``verify`` subcommand runs the three sweeps.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Any, Callable, Iterable

import numpy as np

from .counting import WeightComposition, real_number, scaled_classes, shown, whole_number
from .errors import BadRangeError
from .exact import (
    IdentityReport,
    _censuses,
    _closed_form_terms,
    _law_sums,
    _scaled,
    _variance_numerator,
    check_lemma1,
    check_lemma2,
    check_lemma34,
    check_lemma6,
)
from .kelly import optimality_grid

#: Most cards in a random composition of the lemma sweep (the least is 3).
RANDOM_N_MAX = 20

#: Weight sets used by the exhaustive sweeps, each in increasing order.
WEIGHT_SETS: tuple[tuple[Fraction, ...], ...] = (
    (Fraction(-1), Fraction(1)),
    (Fraction(-1), Fraction(0), Fraction(1)),
    (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2)),
    (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1)),
)


@dataclass
class VerificationResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, detail: str | Callable[[], str]):
        """Count one check; ``detail`` may be a callable, run only on failure."""
        self.checked += 1
        if not ok:
            self.failures.append(detail() if callable(detail) else detail)

    def record_all(self, checks: int, failed: Iterable, detail: Callable[[Any], str]):
        """Count ``checks`` checks, of which ``failed`` lists the failed ones, in order.

        ``detail`` formats one entry of ``failed``; it runs only on those.
        """
        self.checked += checks
        self.failures.extend(map(detail, failed))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.checked} checks"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line + ")"


def _count_tuples(classes: int, total: int):
    """Every tuple of ``classes`` class counts of ``total`` cards, in lexicographic order."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), classes - 1):
        yield _between(cuts, total)


def _between(cuts, total: int) -> tuple[int, ...]:
    """The class counts of ``total`` cards between the sorted ``cuts``."""
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _random_counts(rng: random.Random, classes: int, total: int) -> tuple[int, ...]:
    return _between(sorted(rng.randint(0, total) for _ in range(classes - 1)), total)


def _random_feasible_sequence(rng: random.Random, comp: WeightComposition, length: int):
    pool = [w for w, l in comp.counts.items() for _ in range(l)]
    rng.shuffle(pool)
    return pool[:length]


def _prefixes(have: tuple[int, ...]):
    """Every drawable prefix of length 0 to 2 from the class counts ``have``.

    Yields ``(prefix, counts)``: ``prefix`` is a tuple of class indices and
    ``counts`` the tuple of cards left in each class after it.
    """
    yield (), have
    ones = [((i,), have[:i] + (l - 1,) + have[i + 1 :]) for i, l in enumerate(have) if l]
    yield from ones
    for (i,), after in ones:
        for j, l in enumerate(after):
            if l:
                yield (i, j), after[:j] + (l - 1,) + after[j + 1 :]


#: The removal checks of the exhaustive sweep, in sweep order, as
#: (lemma, k removed, q), each drawing q + 1 weights.
_REMOVAL_CHECKS = (
    ("lemma1", 1, 0),
    ("lemma2", 1, 0),
    ("lemma2", 1, 1),
    ("lemma34", 1, 0),
    ("lemma34", 1, 1),
    ("lemma34", 2, 0),
    ("lemma34", 2, 1),
)


def _removal_block(counts: tuple[int, ...]) -> tuple[int, list]:
    """Every lemma 1, 2 and 3-4 check of the exhaustive sweep on ``counts`` left.

    Returns ``(checks, failed)`` as ``record_all`` takes them: the number of
    checks, and the failed ones as ``(k, vs, report)`` in sweep order, ``vs``
    a tuple of class indices.  Which checks apply depends only on
    M = sum(counts): k + q <= M - 1 for all three (lemmas 1 and 2 remove
    k = 1).  Each check evaluates its own identity, the one of
    ``exact._check_removal``, in bulk: the census table of k removals is built
    once per k, as each census's ways and, per class, the cards each census
    leaves in it; the left side is one integer sum over the table and the
    right side a product of the counts left, over the denominators
    C(M, k) perm(M - k, q + 1) and perm(M, q + 1) that the (k, q) group
    shares, compared by cross-multiplication.  An ``IdentityReport`` is
    built only for a check that fails.  The block evaluates one or two
    draws, so an entry of ``_REMOVAL_CHECKS`` with q >= 2 raises
    ``ValueError``.
    """
    M = sum(counts)
    classes = range(len(counts))
    # k -> (the ways of each census, per class the cards each census leaves).
    tables: dict[int, tuple[list[int], list[list[int]]]] = {}
    checks, failed = 0, []
    for name, k, q in _REMOVAL_CHECKS:
        if q > 1:
            raise ValueError(f"{name} with q={q}: the block evaluates one or two draws")
        if k + q > M - 1:
            continue
        if k not in tables:
            censuses = _censuses(counts, k)
            tables[k] = (
                [ways for _, ways in censuses],
                [[l - removed[i] for removed, _ in censuses] for i, l in enumerate(counts)],
            )
        ways, left = tables[k]
        lhs_den = math.comb(M, k) * math.perm(M - k, q + 1)
        rhs_den = math.perm(M, q + 1)
        checks += len(counts) ** (q + 1)
        for v0 in classes:
            if q == 0:
                lhs, rhs = sum(map(mul, ways, left[v0])), counts[v0]
                if lhs * rhs_den != rhs * lhs_den:
                    failed.append((k, (v0,), IdentityReport(name, lhs, lhs_den, rhs, rhs_den)))
                continue
            # Each census's ways times the cards it leaves for the first draw;
            # a second draw of the first draw's class finds one card fewer.
            first = list(map(mul, ways, left[v0]))
            first_total = sum(first)
            for v1 in classes:
                same = v0 == v1
                lhs = sum(map(mul, first, left[v1])) - same * first_total
                rhs = counts[v0] * (counts[v1] - same)
                if lhs * rhs_den != rhs * lhs_den:
                    failed.append(
                        (k, (v0, v1), IdentityReport(name, lhs, lhs_den, rhs, rhs_den))
                    )
    return checks, failed


def _telescoping_block(r: int, scaled: list[int], D: int, N: int) -> list:
    """Every lemma 6 check of the exhaustive sweep on one composition of N cards.

    R = r / D and the class weights are ``scaled`` / D, all integers.  The
    checks draw n = 1, then n = 2 weights (if N > 2), as tuples of class
    indices in ``itertools.product`` order; the failed ones are returned as
    ``(ws, report)`` in that order.  Each check evaluates the identity of
    ``exact._telescoping`` in bulk: each class's term (r + s_i) N - r (N - 1)
    is computed once, the left side is (r + sum s) N - r (N - n) and the
    right side (N - 1) times the sum of the drawn classes' terms, over the
    denominators D N (N - n) and D N (N - 1) (N - n) that the group of n
    shares, compared by cross-multiplication.  An ``IdentityReport`` is
    built only for a check that fails, from the integers compared.
    """
    classes = range(len(scaled))
    terms = [(r + s) * N - r * (N - 1) for s in scaled]
    failed = []
    lhs_den, rhs_den = D * N * (N - 1), D * N * (N - 1) * (N - 1)
    for v0 in classes:
        lhs = (r + scaled[v0]) * N - r * (N - 1)
        rhs = (N - 1) * terms[v0]
        if lhs * rhs_den != rhs * lhs_den:
            failed.append(((v0,), IdentityReport("lemma6", lhs, lhs_den, rhs, rhs_den)))
    if N > 2:
        lhs_den, rhs_den = D * N * (N - 2), D * N * (N - 1) * (N - 2)
        for v0 in classes:
            for v1 in classes:
                lhs = (r + scaled[v0] + scaled[v1]) * N - r * (N - 2)
                rhs = (N - 1) * (terms[v0] + terms[v1])
                if lhs * rhs_den != rhs * lhs_den:
                    failed.append(
                        ((v0, v1), IdentityReport("lemma6", lhs, lhs_den, rhs, rhs_den))
                    )
    return failed


def verify_lemmas(
    seed: int = 0,
    exhaustive_n: int = 8,
    random_instances: int = 100,
) -> VerificationResult:
    """Exhaustive small-deck plus seeded random checks of the four identities.

    The exhaustive block covers every composition of 2 to ``exhaustive_n``
    cards over each of the first two weight sets, in class-index space.
    For each drawable prefix (``_prefixes``) the lemma 1, 2 and 3-4 checks
    are the block of the counts it leaves (``_removal_block``), evaluated
    in bulk once per tuple of counts left for the length of the call; each
    check evaluates its own identity.  Lemma 6 is evaluated in bulk too
    (``_telescoping_block``), from the weights scaled to integers once per
    weight set and R from the class counts.  Each composition goes to one
    ``record_all``: the failures of its blocks, one per prefix, each
    block's added only when it has some, then its lemma 6 failures.  The
    random block uses the weight-level checkers on compositions of 3 to
    ``RANDOM_N_MAX`` cards.
    An ``exhaustive_n`` below 2, which would leave the exhaustive block
    empty, raises ``BadRangeError``.
    """
    seed = whole_number(seed, "seed", 0)
    exhaustive_n = whole_number(exhaustive_n, "exhaustive_n", 2)
    random_instances = whole_number(random_instances, "random_instances", 0)
    result = VerificationResult("lemmas")

    def describe(report, counts, **context) -> str:
        """A failure's text; ``counts`` is a weight -> count mapping or its pairs."""
        return (
            f"{report.name} comp={dict(counts)} "
            + " ".join(f"{key}={value}" for key, value in context.items())
            + f": lhs={report.lhs} rhs={report.rhs}"
        )

    def note(report, comp, **context):
        result.record(report.equal, lambda: describe(report, comp.counts, **context))

    # Counts left -> (number of checks in their block, the failed entries).
    blocks: dict[tuple[int, ...], tuple[int, list]] = {}
    for weights in WEIGHT_SETS[:2]:
        # One card per class; scaled_classes sorts its classes by weight.
        sorted_scaled, _, D = scaled_classes((w, 1) for w in weights)
        scaled_of = dict(zip(sorted(weights), sorted_scaled))
        scaled = [scaled_of[w] for w in weights]
        for total in range(2, exhaustive_n + 1):
            # The lemma 6 draws of n = 1 and 2 weights.
            lemma6_checks = sum(len(weights) ** n for n in range(1, min(3, total)))
            for have in _count_tuples(len(weights), total):
                checks, failed = lemma6_checks, []
                for prefix, counts in _prefixes(have):
                    block = blocks.get(counts)
                    if block is None:
                        block = blocks[counts] = _removal_block(counts)
                    checks += block[0]
                    if block[1]:
                        failed += [(prefix, *entry) for entry in block[1]]
                r = -sum(s * l for s, l in zip(scaled, have))
                failed += _telescoping_block(r, scaled, D, total)

                def detail(entry) -> str:
                    """A removal entry is (prefix, k, vs, report), a lemma 6 one (ws, report)."""
                    *where, report = entry
                    pairs = zip(weights, have)
                    if len(where) == 1:
                        return describe(report, pairs, ws=tuple(weights[i] for i in where[0]))
                    prefix, k, vs = where
                    return describe(
                        report,
                        pairs,
                        prefix=tuple(weights[i] for i in prefix),
                        k=k,
                        vs=tuple(weights[i] for i in vs),
                    )

                result.record_all(checks, failed, detail)

    rng = random.Random(seed)
    for _ in range(random_instances):
        weights = rng.choice(WEIGHT_SETS)
        total = rng.randint(3, RANDOM_N_MAX)
        comp = WeightComposition(dict(zip(weights, _random_counts(rng, len(weights), total))))
        prefix = _random_feasible_sequence(rng, comp, rng.randint(0, min(3, total - 2)))
        v0 = rng.choice(weights)
        note(check_lemma1(comp, prefix, v0), comp, prefix=prefix)

        q = rng.randint(0, min(2, total - 2 - len(prefix)))
        vs = [rng.choice(weights) for _ in range(q + 1)]
        note(check_lemma2(comp, prefix, vs), comp, prefix=prefix)

        k = rng.randint(1, max(1, min(3, total - 1 - len(prefix) - q)))
        if len(prefix) + k + q <= total - 1:
            note(check_lemma34(comp, prefix, k, vs), comp, prefix=prefix, k=k)

        n = rng.randint(1, total - 1)
        ws = [rng.choice(weights) for _ in range(n)]
        r = Fraction(rng.randint(-10, 10), rng.choice((1, 2)))
        note(check_lemma6(r, total, n, ws), comp, R=r, ws=ws)
    return result


def _check_moments(result: VerificationResult, pairs):
    """Three checks per law of N cards: total mass, mean R/N, closed-form variance.

    ``pairs`` are the (weight, count) pairs of a composition, in the order
    a failure's text prints them.  Each law's moments are its integer power
    sums (``_law_sums``: one remainder per packed census row to N/2, exact
    because the slot width keeps the sums it reads below 2^width - 1, the
    rows past it mirrored by arithmetic) over its denominators C(N, n) and
    scale * (N - n); the mean is r / (scale * N) and the closed-form
    variance n * spread / ((N - n) den), with the integers of
    ``_closed_form_terms``, which ``sigma_n_exact`` also uses.  The laws
    and the closed form read one scaling of the pairs (``_scaled``), the
    one ``tc_distribution`` makes.  Sides are compared by
    cross-multiplication; the failed checks are recorded in bulk with the
    power sums they compared, and a failure's two sides, and the
    composition as a dict, are built only for its detail.
    """
    scaled = _scaled(pairs)
    _, counts, scale, r = scaled
    N = sum(counts)
    spread, den = _closed_form_terms(scaled)
    failed = []
    for n, (s0, s1, s2) in enumerate(_law_sums(scaled), start=1):
        c, d = math.comb(N, n), scale * (N - n)
        if s0 != c:
            failed.append(("probs", n, s0, s1, s2))
        if s1 * scale * N != r * c * d:
            failed.append(("mean", n, s0, s1, s2))
        if _variance_numerator(s0, s1, s2, c) * (N - n) * den != n * spread * c**3 * d**2:
            failed.append(("variance", n, s0, s1, s2))

    def detail(entry) -> str:
        check, n, s0, s1, s2 = entry
        c, d = math.comb(N, n), scale * (N - n)
        where = f"for comp={dict(pairs)} n={n}"
        if check == "probs":
            return f"probs sum {Fraction(s0, c)} != 1 {where}"
        if check == "mean":
            return f"mean {Fraction(s1, c * d)} != R/N {Fraction(r, scale * N)} {where}"
        return (
            f"variance {Fraction(_variance_numerator(s0, s1, s2, c), c**3 * d * d)} "
            f"!= closed form {Fraction(n * spread, (N - n) * den)} {where}"
        )

    result.record_all(3 * (N - 1), failed, detail)


def verify_theorem(
    seed: int = 0,
    exhaustive_limits: tuple[int, ...] = (40, 24, 16, 16),
    sampled_totals: tuple[int, ...] = (14, 18, 22, 26, 30),
    samples_per_total: int = 4,
) -> VerificationResult:
    """Mean and variance of the enumerated law vs the closed forms, exactly.

    ``exhaustive_limits[i]`` is the largest deck swept exhaustively over
    ``WEIGHT_SETS[i]``.  An exhaustive limit below 2, more limits than
    weight sets, or a call with no exhaustive limit and no sampled
    composition raises ``BadRangeError``.  Compositions are tuples of class
    counts, each checked as its (weight, count) pairs.
    """
    seed = whole_number(seed, "seed", 0)
    samples_per_total = whole_number(samples_per_total, "samples_per_total", 0)
    sampled_totals = tuple(whole_number(t, "sampled total", 2) for t in sampled_totals)
    exhaustive_limits = tuple(whole_number(m, "exhaustive limit", 2) for m in exhaustive_limits)
    if len(exhaustive_limits) > len(WEIGHT_SETS):
        raise BadRangeError(
            f"need at most {len(WEIGHT_SETS)} exhaustive limits, one per weight set, "
            f"got {len(exhaustive_limits)}"
        )
    if not exhaustive_limits and not (sampled_totals and samples_per_total):
        raise BadRangeError("need an exhaustive limit or a sampled composition to check")
    result = VerificationResult("theorem")
    for weights, n_max in zip(WEIGHT_SETS, exhaustive_limits):
        for total in range(2, n_max + 1):
            for counts in _count_tuples(len(weights), total):
                _check_moments(result, tuple(zip(weights, counts)))
    rng = random.Random(seed)
    for total in sampled_totals:
        for weights in WEIGHT_SETS:
            for _ in range(samples_per_total):
                counts = _random_counts(rng, len(weights), total)
                _check_moments(result, tuple(zip(weights, counts)))
    return result


#: Most points a Kelly grid may have; the search holds the whole grid in memory.
KELLY_MAX_POINTS = 10**5


def _kelly_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The p0 grid lo, lo + step, ... up to hi, never past it."""
    if not 0.5 < real_number(lo, "lo") <= real_number(hi, "hi") < 1:
        raise BadRangeError(f"need 1/2 < lo <= hi < 1, got lo={shown(lo)}, hi={shown(hi)}")
    if not real_number(step, "step") > 0:
        raise BadRangeError(f"need a step > 0, got {shown(step)}")
    # The 1e-9 absorbs rounding in (hi - lo) / step when hi is a whole
    # number of steps from lo.
    steps = (hi - lo) / step + 1e-9
    if not steps < KELLY_MAX_POINTS:
        raise BadRangeError(
            f"a grid from {shown(lo)} to {shown(hi)} by {shown(step)} has more than "
            f"{KELLY_MAX_POINTS} points"
        )
    return lo + np.arange(math.floor(steps) + 1) * float(step)


def verify_kelly(
    lo: float = 0.505, hi: float = 0.95, step: float = 0.005, tolerance: float = 1e-6
) -> VerificationResult:
    """Golden-section optimality of the 2p-1 fraction over a p grid.

    One search runs over the whole grid at once (``optimality_grid``) and
    the grid is judged as arrays (``OptimalityGrid.passed``); each point is
    one check, and a detail is formatted only for a point that fails.
    """
    grid = optimality_grid(_kelly_grid(lo, hi, step), tolerance)

    def detail(i: int) -> str:
        argmax, expected = grid.argmax[i].item(), grid.expected[i].item()
        return (
            f"p0={grid.p0[i].item()}: argmax={argmax} expected={expected} "
            f"gap={abs(argmax - expected)} concave={grid.concave[i].item()}"
        )

    result = VerificationResult("kelly")
    result.record_all(len(grid.p0), np.flatnonzero(~grid.passed()).tolist(), detail)
    return result

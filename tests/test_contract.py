"""The input contract.

For counts: every count argument takes a whole number only.  Each case
calls one function with valid, small arguments, but for one count
argument, which is drawn from ``VALUES``.  The call must give a finite
result, or a report whose JSON renders, or raise a ``TrueCountError``; a
value that is not a ``numbers.Integral`` is never accepted, and a
``numpy.int64`` gives exactly what the equal Python int gives.

For reals: every real argument takes a finite value within the float range
only.  Each case calls one function with valid arguments but for one real
argument, which is drawn from ``REAL_VALUES``: NaN, either infinity and an
int past the float range each raise a ``TrueCountError``, never an
``OverflowError`` from the arithmetic on them.  A real within the float
range that a range rule refuses is printed in the error by ``shown``, even
one of more than 4,300 digits.

For the CLI: ``cli.main`` on a valid command line with one or two flag
values replaced by a bad or extreme one exits 0 with only finite numbers
printed, or exits 2 with an ``error:`` line and nothing on stdout.  And on
a valid command line of ``sigma-table``, ``kelly`` or ``longrun``, drawn
from each one's valid ranges, it exits 0 with the rows of its default
table, every cell finite.  A valid ``simulate`` command line, of every mode
and format, exits 0 and prints only finite statistics of the mode's names.

For coverage: every parameter of a callable of ``truecount.__all__``, or of
a public method of one of its classes, is named by a case's key,
``"<callable> <parameter>"``, or exempted in ``EXEMPT`` with its reason.
"""
import contextlib
import inspect
import io
import json
import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import truecount as tc
from truecount import cli, exact, kelly

HI_LO = tc.get_system("hi-lo")
SMALL = tc.WeightComposition({1: 3, -1: 2, 0: 1})
FIXED = tc.FixedAdvantageModel(0.52)

#: Values that are no numbers, which no comparison may meet bare.
NON_NUMBERS = ("3", None, 2 + 0j, [2])

#: "valid" stands for the case's valid count and "int64" for it as numpy.int64.
VALUES = (
    "valid", "int64", 1.5, 2.0, np.float32(2), math.nan, math.inf, -math.inf, -1,
    10**400, -10**5000, 10**5000, *NON_NUMBERS,
)


class Case(NamedTuple):
    call: Callable
    valid: int
    #: A whole count sizes the work: 10**400 and 10**5000 ask for a sweep without end.
    sizes_work: bool = False


CASES = {
    "CountSystem.shoe decks": Case(lambda v: HI_LO.shoe(v), 1),
    "WeightComposition counts": Case(
        lambda v: tc.WeightComposition({Fraction(1): v, Fraction(-1): 2}), 2),
    "tc_distribution n": Case(lambda v: tc.tc_distribution(SMALL, v), 2),
    "sigma_n_exact n": Case(lambda v: tc.sigma_n_exact(SMALL, v), 2),
    "predicted_increment_std decks": Case(
        lambda v: tc.predicted_increment_std(HI_LO, v, 0.5, 3), 1),
    "predicted_increment_std n": Case(
        lambda v: tc.predicted_increment_std(HI_LO, 1, 0.5, v), 3),
    "predicted_seat_sigma decks": Case(
        lambda v: tc.predicted_seat_sigma(HI_LO, v, 0.5, tc.SeatCardModel(3, 2)), 1),
    "SeatCardModel seats": Case(lambda v: tc.SeatCardModel(v, 1), 3),
    "SeatCardModel position": Case(lambda v: tc.SeatCardModel(3, v), 2),
    "SeatCardModel extra_cards_law": Case(
        lambda v: tc.SeatCardModel(3, 2, ((0, 0.5), (v, 0.5))), 1),
    "SeatCardModel.with_hand_mean seats": Case(
        lambda v: tc.SeatCardModel.with_hand_mean(v, 1, 2.6), 3),
    "SeatCardModel.with_hand_mean position": Case(
        lambda v: tc.SeatCardModel.with_hand_mean(3, v, 2.6), 2),
    "simulate_tc_increment decks": Case(
        lambda v: tc.simulate_tc_increment(HI_LO, v, 0.5, [1, 3], 4, 5), 1),
    "simulate_tc_increment n_cards": Case(
        lambda v: tc.simulate_tc_increment(HI_LO, 1, 0.5, [1, v], 4, 5), 3),
    "simulate_tc_increment trials": Case(
        lambda v: tc.simulate_tc_increment(HI_LO, 1, 0.5, [1, 3], v, 5), 4),
    "simulate_tc_increment seed": Case(
        lambda v: tc.simulate_tc_increment(HI_LO, 1, 0.5, [1, 3], 4, v), 5),
    "simulate_seat_sigma decks": Case(
        lambda v: tc.simulate_seat_sigma(HI_LO, v, 0.5, tc.SeatCardModel(3, 2), 4, 5), 1),
    "simulate_seat_sigma trials": Case(
        lambda v: tc.simulate_seat_sigma(HI_LO, 1, 0.5, tc.SeatCardModel(3, 2), v, 5), 4),
    "simulate_seat_sigma seed": Case(
        lambda v: tc.simulate_seat_sigma(HI_LO, 1, 0.5, tc.SeatCardModel(3, 2), 4, v), 5),
    "simulate_bankroll n_hands": Case(lambda v: tc.simulate_bankroll(FIXED, v, 4, 5), 10),
    "simulate_bankroll trials": Case(lambda v: tc.simulate_bankroll(FIXED, 10, v, 5), 4),
    "simulate_bankroll seed": Case(lambda v: tc.simulate_bankroll(FIXED, 10, 4, v), 5),
    "trial_rng master_seed": Case(lambda v: tc.trial_rng(v, 1), 5),
    "trial_rng chunk": Case(lambda v: tc.trial_rng(5, v), 1),
    "GrowthStats.std n": Case(lambda v: tc.GrowthStats(0.01, 0.02).std(v), 100),
    "verify_lemmas seed": Case(
        lambda v: tc.verify_lemmas(seed=v, exhaustive_n=2, random_instances=1), 3),
    "verify_lemmas exhaustive_n": Case(
        lambda v: tc.verify_lemmas(exhaustive_n=v, random_instances=0), 2, True),
    "verify_lemmas random_instances": Case(
        lambda v: tc.verify_lemmas(exhaustive_n=2, random_instances=v), 1, True),
    "verify_theorem seed": Case(
        lambda v: tc.verify_theorem(seed=v, exhaustive_limits=(), sampled_totals=(4,),
                                    samples_per_total=1), 3),
    "verify_theorem exhaustive_limits": Case(
        lambda v: tc.verify_theorem(exhaustive_limits=(3, v), sampled_totals=()), 3, True),
    "verify_theorem sampled_totals": Case(
        lambda v: tc.verify_theorem(exhaustive_limits=(), sampled_totals=(4, v),
                                    samples_per_total=1), 4, True),
    "verify_theorem samples_per_total": Case(
        lambda v: tc.verify_theorem(exhaustive_limits=(), sampled_totals=(4,),
                                    samples_per_total=v), 1, True),
    "check_lemma34 k": Case(lambda v: exact.check_lemma34(SMALL, [], v, [1]), 2),
    "check_lemma6 N": Case(lambda v: exact.check_lemma6(0, v, 2, [1, -1]), 4),
    "check_lemma6 n": Case(lambda v: exact.check_lemma6(0, 4, v, [1, -1]), 2),
}


def outcome(result) -> object:
    """A comparable form of a result, checking on the way that it is finite."""
    if isinstance(result, tc.SimulationReport):
        assert type(result.seed) is int and type(result.trials) is int
        stats = [(row.mean, row.std, row.stderr) for row in result.stats.values()]
        assert all(math.isfinite(x) for row in stats for x in row)
        return result.to_json()
    if isinstance(result, exact.IdentityReport):
        assert all(type(x) is int for x in result[1:])
        return result
    if isinstance(result, (float, tuple)):  # a float, a SigmaResult or a pair of floats
        values = [result] if isinstance(result, float) else list(result)
        assert all(math.isfinite(x) for x in values)
        return tuple(float(x).hex() for x in values)
    if isinstance(result, tc.WeightComposition):
        assert all(type(l) is int for l in result.counts.values())
        return repr(result)
    if isinstance(result, tc.SeatCardModel):
        counts = [result.seats, result.position, *(h for h, _ in result.extra_cards_law)]
        assert all(type(c) is int for c in counts)
        return repr(result)
    if isinstance(result, tc.TrueCountDistribution):
        return result.atoms
    if isinstance(result, np.random.Generator):
        return result.random(3).tolist()
    assert isinstance(result, tc.verify.VerificationResult), type(result)
    return result.summary()


#: Whole counts that ask a case whose count sizes the work for a sweep without end.
ENDLESS = (10**400, 10**5000)


def named(value) -> str:
    """``value`` as a failure names it; ``str`` refuses an int of more than 4,300 digits."""
    return tc.counting.shown(value) if type(value) is int else repr(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_counts_are_whole_numbers(case):
    for value in VALUES:
        if case.sizes_work and type(value) is int and value in ENDLESS:
            continue
        try:
            check_count(case, value)
        except Exception as exc:
            exc.add_note(f"count: {named(value)}")
            raise


def check_count(case, value):
    if value == "valid":
        outcome(case.call(case.valid))  # the valid core runs
        return
    if value == "int64":
        assert outcome(case.call(np.int64(case.valid))) == outcome(case.call(case.valid))
        return
    try:
        result = case.call(value)
    except tc.TrueCountError:
        return
    assert isinstance(value, int), f"accepted {value!r}"
    outcome(result)


#: Real arguments; "valid" stands for the case's valid value.  A Fraction
#: of more than 4,300 digits is one that ``str`` refuses to print.  In
#: numpy's float32 the float range's bound rounds to inf.
REAL_VALUES = (
    "valid", math.nan, math.inf, -math.inf, 10**400, -10**400, 10**5000,
    Fraction(-(10**5000), 3), np.float32("inf"), np.float32("-inf"), np.float32("nan"),
    *NON_NUMBERS,
)

#: Each case's call, which takes the one real, and its valid value.
REAL_CASES = {
    "FuzzyAdvantage var_p0": (lambda v: tc.FuzzyAdvantage(0.52, v), 1e-4),
    "TwoPointAdvantageModel var_p0": (lambda v: tc.TwoPointAdvantageModel(0.52, v), 1e-4),
    "TwoPointAdvantageModel p0": (lambda v: tc.TwoPointAdvantageModel(v, 1e-4), 0.52),
    "SeatCardModel.with_hand_mean mean_cards_per_hand": (
        lambda v: tc.SeatCardModel.with_hand_mean(3, 1, v), 2.6),
    "GrowthStats mean": (lambda v: tc.GrowthStats(v, 0.02), 0.01),
    "GrowthStats variance": (lambda v: tc.GrowthStats(0.01, v), 0.02),
    "long_run eps": (lambda v: tc.long_run(v, 0.9), 0.01),
    "long_run sigma_bet": (lambda v: tc.long_run(0.01, v), 0.9),
    "long_run threshold": (lambda v: tc.long_run(0.01, 0.9, v), 2.0),
    "verify_kelly step": (lambda v: tc.verify_kelly(lo=0.6, hi=0.61, step=v), 0.005),
    "verify_kelly tolerance": (
        lambda v: tc.verify_kelly(lo=0.6, hi=0.61, step=0.005, tolerance=v), 1e-6),
    "optimality_grid p0": (lambda v: kelly.optimality_grid([0.6, v]), 0.7),
    "FixedAdvantageModel p": (lambda v: tc.FixedAdvantageModel(v), 0.52),
    "FuzzyAdvantage p0": (lambda v: tc.FuzzyAdvantage(v, 0.0), 0.52),
    "kelly_fraction p": (lambda v: tc.kelly_fraction(v), 0.52),
    "growth_stats_binomial p": (lambda v: tc.growth_stats_binomial(v), 0.52),
    "verify_kelly lo": (lambda v: tc.verify_kelly(lo=v, hi=0.61, step=0.005), 0.6),
    "verify_kelly hi": (lambda v: tc.verify_kelly(lo=0.6, hi=v, step=0.005), 0.61),
    "sigma_n_approx N": (lambda v: tc.sigma_n_approx(v, 2, HI_LO), 52),
    "sigma_n_approx n": (lambda v: tc.sigma_n_approx(52, v, HI_LO), 2),
    "predicted_increment_std penetration": (
        lambda v: tc.predicted_increment_std(HI_LO, 1, v, 3), 0.5),
    "predicted_seat_sigma penetration": (
        lambda v: tc.predicted_seat_sigma(HI_LO, 1, v, tc.SeatCardModel(3, 2)), 0.5),
    "simulate_tc_increment penetration": (
        lambda v: tc.simulate_tc_increment(HI_LO, 1, v, [1, 3], 4, 5), 0.5),
    "simulate_seat_sigma penetration": (
        lambda v: tc.simulate_seat_sigma(HI_LO, 1, v, tc.SeatCardModel(3, 2), 4, 5), 0.5),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, valid", REAL_CASES.values(), ids=REAL_CASES.keys())
def test_reals_are_finite_and_within_the_float_range(call, valid):
    call(valid)  # the valid core runs
    call(np.float32(valid))  # and so does a finite float32
    for value in REAL_VALUES[1:]:
        with pytest.raises(tc.TrueCountError):
            call(value)


#: A real within the float range that ``str`` refuses to print: its
#: denominator has more than 4,300 digits.
MANY_DIGITS = Fraction(-1, 10**5000)

#: Calls whose range rule refuses ``MANY_DIGITS`` after ``real_number`` takes it.
RANGE_CASES = {
    **{name: call for name, (call, _) in REAL_CASES.items()
       if name.split()[0] in ("FixedAdvantageModel", "FuzzyAdvantage", "kelly_fraction",
                              "growth_stats_binomial", "verify_kelly", "long_run")},
    "predicted_seat_sigma penetration": lambda v: tc.predicted_seat_sigma(
        HI_LO, 1, v, tc.SeatCardModel(3, 2)),
    "cmd_sigma_table penetration": lambda v: cli.cmd_sigma_table(HI_LO, 1, v, 3, [1]),
}


@pytest.mark.parametrize("call", RANGE_CASES.values(), ids=RANGE_CASES.keys())
def test_a_real_out_of_its_range_is_shown_in_the_error(call):
    with pytest.raises(tc.TrueCountError, match=re.escape("-1/about 10**5000")):
        call(MANY_DIGITS)


SYSTEM = "a CountSystem, which make_count_system validates"
COMPOSITION = "a WeightComposition, whose counts have their case"
MODEL = "a model, whose counts and reals have their cases"
WEIGHTS = "weights, which as_weight takes or refuses with ParseError"
TEXT = "text or a name, refused with a ParseError or UnknownSystemError"

#: Public parameters that no case drives, each with its reason.  A key is
#: ``"<callable> <parameter>"``, or a callable alone for all its parameters.
EXEMPT = {
    "CountSystem": "make_count_system validates a system; the constructor takes what it built",
    "SigmaResult": "a result, which only sigma_n_exact builds",
    "SimulationReport": "a report, which only the simulators build",
    "TrueCountDistribution": "a law, which only tc_distribution builds",
    "get_system name": TEXT,
    "make_count_system name": TEXT,
    "make_count_system weights_by_rank": WEIGHTS,
    "parse_composition spec": TEXT,
    "parse_system_file text": TEXT,
    "parse_system_file name": TEXT,
    "WeightComposition.deplete removed": WEIGHTS,
    "WeightComposition.true_count units": TEXT,
    "growth_var_fuzzy adv": MODEL,
    "simulate_bankroll adv_model": MODEL,
    "predicted_seat_sigma model": MODEL,
    "simulate_seat_sigma model": MODEL,
    "sigma_n_exact comp": COMPOSITION,
    "tc_distribution comp": COMPOSITION,
    **dict.fromkeys((f"{name} system" for name in (
        "predicted_increment_std", "predicted_seat_sigma", "sigma_n_approx",
        "simulate_seat_sigma", "simulate_tc_increment")), SYSTEM),
}


def public_parameters() -> list[str]:
    """``"<callable> <parameter>"`` for every parameter of the callables of
    ``truecount.__all__`` and of the public methods of its classes; an
    error class, which takes its message, is left out."""
    found = []
    for name in tc.__all__:
        obj = getattr(tc, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        callables = [(name, obj)]
        if inspect.isclass(obj):
            callables += [
                (f"{name}.{attr}", getattr(obj, attr)) for attr, value in vars(obj).items()
                if not attr.startswith("_")
                and (inspect.isfunction(value) or isinstance(value, classmethod))
            ]
        found += [f"{label} {parameter}" for label, call in callables
                  for parameter in inspect.signature(call).parameters if parameter != "self"]
    return found


def test_every_public_parameter_has_a_case_or_an_exemption():
    """A new public argument fails here until a case drives it or EXEMPT says why not."""
    parameters = public_parameters()
    named = {*CASES, *REAL_CASES, *RANGE_CASES}
    missing = [p for p in parameters
               if p not in named and p not in EXEMPT and p.split()[0] not in EXEMPT]
    assert missing == []
    labels = {*parameters, *(p.split()[0] for p in parameters)}
    assert sorted(set(EXEMPT) - labels) == []  # no exemption outlives its parameter
    assert sorted(set(EXEMPT) & named) == []  # nor one that a case drives


def test_a_whole_step_within_the_float_range_is_a_step():
    """A step of 2**63 leaves one point, as a float step past the grid does."""
    assert tc.verify_kelly(lo=0.6, hi=0.61, step=2**63).summary() == "kelly: PASS (1 checks)"


HALF = Fraction(1, 2)


@pytest.mark.parametrize("counts, fractions", [
    ({1: 2, -1: 3}, {Fraction(1): 2, Fraction(-1): 3}),
    ({0.5: 2, -0.5: 3}, {HALF: 2, -HALF: 3}),
    ({"1/2": 2, "-0.5": 3}, {HALF: 2, -HALF: 3}),
    ({"1/2": 1, 0.5: 1, "-1/2": 3}, {HALF: 2, -HALF: 3}),
])
def test_a_composition_takes_any_weight_as_weight_does(counts, fractions):
    """Int, float and string weights give the law and sigma_n of the equal
    ``Fraction`` weights, and weights that become equal sum their counts."""
    comp, same = tc.WeightComposition(counts), tc.WeightComposition(fractions)
    assert comp == same and comp.true_count() == same.true_count()
    assert all(type(w) is Fraction for w in comp.counts)
    for n in range(1, same.total):
        law, expected = tc.tc_distribution(comp, n), tc.tc_distribution(same, n)
        assert (law.ways, law.sums) == (expected.ways, expected.sums)
        assert tc.sigma_n_exact(comp, n) == tc.sigma_n_exact(same, n)


@pytest.mark.parametrize("weight", ["x", math.nan, math.inf, None])
def test_a_composition_refuses_a_weight_that_is_no_number(weight):
    with pytest.raises(tc.ParseError, match="bad weight"):
        tc.WeightComposition({weight: 1})


#: A valid, quick command line of each subcommand that takes numbers.
ARGV_CORES = (
    ["sigma-table", "--decks", "2", "--penetration", "0.5", "--seats", "3",
     "--positions", "1,3", "--hand-mean", "2.7"],
    ["exact", "-c", "+1:2,-1:2,0:1", "-n", "2"],
    ["kelly", "--p0", "0.51", "--var-p0", "0.0001", "--hands", "100"],
    ["longrun", "--eps", "0.01", "--sigma-bet-a", "0.9", "--sigma-bet-b", "1.0",
     "--threshold", "2.0"],
    ["simulate", "--mode", "seat-sigma", "--system", "hi-lo", "--decks", "1",
     "--penetration", "0.5", "--seats", "3", "--position", "2", "--trials", "8",
     "--seed", "5"],
    ["simulate", "--mode", "tc-increment", "--system", "hi-lo", "--decks", "1",
     "--penetration", "0.5", "--n-cards", "1,3", "--trials", "8", "--seed", "5"],
    ["simulate", "--mode", "bankroll", "--p0", "0.52", "--var-p0", "0.0001",
     "--hands", "10", "--trials", "8", "--seed", "5"],
)

#: Flag values that a command line may carry in place of a valid one.
BAD_FLAG_VALUES = (
    "0", "-1", "nan", "inf", "-inf", "1e300", "5e-324", str(2**63), "1e400", "1.5",
    "x", "1,x", "",
)

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)


@st.composite
def bad_argvs(draw) -> list[str]:
    """A core command line with one or two of its flag values replaced."""
    argv = list(draw(st.sampled_from(ARGV_CORES)))
    values_at = [i for i in range(1, len(argv)) if argv[i - 1].startswith("-")]
    for i in draw(st.lists(st.sampled_from(values_at), min_size=1, max_size=2, unique=True)):
        argv[i] = draw(st.sampled_from(BAD_FLAG_VALUES))
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=bad_argvs())
def test_cli_exits_0_with_finite_output_or_2_with_an_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        assert any("error:" in line for line in err.getvalue().splitlines()), argv
    else:
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())


#: The builtin systems, one of which a valid ``sigma-table`` names.
SYSTEMS = [system.name for system in tc.builtin_systems()]


@st.composite
def valid_argvs(draw) -> tuple[list[str], int]:
    """A valid command line of a table command, and its default row count."""
    command = draw(st.sampled_from(("sigma-table", "kelly", "longrun")))
    if command == "sigma-table":
        seats = draw(st.integers(3, 7))
        positions = draw(st.lists(st.integers(1, seats), min_size=1, max_size=seats, unique=True))
        argv = [
            "--system", draw(st.sampled_from(SYSTEMS)),
            "--decks", str(draw(st.sampled_from((2, 4, 6, 8)))),
            "--penetration", repr(draw(st.floats(0.25, 0.75))),
            "--seats", str(seats), "--positions", ",".join(map(str, sorted(positions))),
        ]
        if draw(st.booleans()):
            argv += ["--hand-mean", repr(draw(st.floats(2.2, 3.2)))]
        rows = 2
    elif command == "kelly":
        # Up to p0 = 0.8 the first-order growth variance cannot go negative.
        p0 = draw(st.floats(0.5, 0.8, exclude_min=True))
        argv = [
            "--p0", repr(p0), "--var-p0", repr(draw(st.floats(0, 1)) * p0 * (1 - p0)),
            "--hands", str(draw(st.integers(1, 10**6))),
        ]
        rows = 4
    else:
        argv = [
            "--eps", repr(draw(st.floats(0.001, 0.1))),
            "--sigma-bet-a", repr(draw(st.floats(0, 2))),
            "--sigma-bet-b", repr(draw(st.floats(0, 2))),
            "--threshold", repr(draw(st.floats(0.5, 4))),
        ]
        rows = 9
    return [command, *argv, "--format", "json"], rows


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=valid_argvs())
def test_cli_on_a_valid_command_line_exits_0_with_its_default_rows(case):
    argv, rows = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    table = json.loads(out.getvalue())
    assert len(table["rows"]) == rows, argv
    cells = [cell for row in table["rows"] for cell in row["cells"]]
    assert cells and all(isinstance(c, float) and math.isfinite(c) for c in cells), (argv, cells)


@st.composite
def valid_simulate_argvs(draw, mode: str, fmt: str) -> tuple[list[str], list[str]]:
    """A valid ``simulate`` command line of ``mode`` and ``fmt``, and the
    names of its statistics.

    Few small trials; a shoe run's penetration leaves its tail one card
    unseen, so the shoe never runs out.
    """
    if mode == "bankroll":
        p = draw(st.floats(0.3, 0.8))
        if draw(st.booleans()):
            argv = ["--p", repr(p)]
        else:
            spread = draw(st.floats(0, 0.99)) * min(p, 1 - p)
            argv = ["--p0", repr(p), "--var-p0", repr(spread * spread)]
        argv += ["--hands", str(draw(st.integers(1, 500)))]
        names = ["growth_rate"]
    else:
        decks = draw(st.integers(1, 2))
        if mode == "seat-sigma":
            seats = draw(st.integers(1, 7))
            position = draw(st.integers(1, seats))
            argv = ["--seats", str(seats), "--position", str(position)]
            model = tc.SeatCardModel(seats, position)
            if draw(st.booleans()):
                hand_mean = draw(st.floats(2.0, 3.2))
                argv += ["--hand-mean", repr(hand_mean)]
                model = tc.SeatCardModel.with_hand_mean(seats, position, hand_mean)
            tail = model.base_deal + seats * model.max_extra
            names = ["sigma_bet", "sigma_play", "cards_per_hand"]
        else:
            n_cards = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
            argv = ["--n-cards", ",".join(map(str, n_cards))]
            tail = max(n_cards)
            names = [f"tc_increment_n{n}" for n in sorted(n_cards)]
        # The cut leaves the tail and one card more.
        cut = draw(st.integers(1, 52 * decks - tail - 1))
        argv += [
            "--system", draw(st.sampled_from(SYSTEMS)), "--decks", str(decks),
            "--penetration", repr(cut / (52 * decks)),
        ]
    argv += [
        "--trials", str(draw(st.integers(2, 40))), "--seed", str(draw(st.integers(0, 99))),
        "--format", fmt,
    ]
    return ["simulate", "--mode", mode, *argv], names


@pytest.mark.parametrize("fmt", tc.reports.FORMATS)
@pytest.mark.parametrize("mode", ["seat-sigma", "tc-increment", "bankroll"])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_simulate_on_a_valid_command_line_prints_finite_statistics(mode, fmt, data):
    argv, names = data.draw(valid_simulate_argvs(mode, fmt))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    text = out.getvalue()
    assert not NON_FINITE.search(text), (argv, text)
    if fmt == "csv":
        header, *rows = text.splitlines()
        assert header == "statistic,mean,std,stderr", argv
        stats = {name: dict(zip(("mean", "std", "stderr"), map(float, values)))
                 for name, *values in (row.split(",") for row in rows)}
    else:
        report, end = json.JSONDecoder().raw_decode(text)
        stats = report["stats"]
        after = text[end:].splitlines()[1:]
        assert fmt == "table" or after == [], argv
        assert all(line.startswith("predicted ") for line in after), (argv, after)
    assert sorted(stats) == sorted(names), argv
    for row in stats.values():
        assert sorted(row) == ["mean", "std", "stderr"], argv
        assert all(isinstance(v, float) and math.isfinite(v) for v in row.values()), (argv, row)

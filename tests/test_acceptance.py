"""Acceptance suite: one criterion per test, one summary line per criterion.

The summary lines are printed in the "acceptance criteria" section of the
pytest terminal output (see conftest).  Two checks are marked
``xfail(strict=True)``: they encode figures from the published tables that
are not reproducible from the canonical Thorp-ultimate weights, and the
depleted-shoe cells where the sqrt(n)*Sigma0/N approximation's own bias
exceeds the Monte Carlo resolution.  See README "Known discrepancies".
"""
import math
import time
from fractions import Fraction

import pytest

from truecount import (
    FixedAdvantageModel,
    SeatCardModel,
    WeightComposition,
    get_system,
    growth_stats_binomial,
    long_run,
    predicted_increment_std,
    predicted_seat_sigma,
    sigma_n_approx,
    sigma_n_exact,
    simulate_bankroll,
    simulate_seat_sigma,
    simulate_tc_increment,
    verify_kelly,
    verify_lemmas,
    verify_theorem,
)
from truecount.cli import main, cmd_sigma_table

from conftest import ACCEPTANCE_LINES

SEED = 20260823


def record(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed {suffix}"


# -- 1. Sigma0 catalog -------------------------------------------------------

CATALOG = {
    "hi-lo": 0.877,
    "canfield-expert": 0.877,
    "uston-advanced-plus-minus": 0.877,
    "uston-ace-five": 0.392,
    "hi-opt-i": 0.784,
    "halves": 0.920,
    "hi-opt-ii": 1.468,
    "canfield-master": 1.569,
    "zen": 1.569,
    "revere-point-count": 1.710,
}


def test_criterion_1_sigma0_catalog():
    bad = [
        name
        for name, expected in CATALOG.items()
        if round(get_system(name).sigma0(), 3) != expected
    ]
    record("1 (sigma0 catalog)", not bad, f"{len(CATALOG)} systems; mismatches: {bad}")


@pytest.mark.xfail(
    strict=True,
    reason="published 5.798 requires a 4-card ten class; canonical weights give 6.702",
)
def test_criterion_1x_thorp_sigma0():
    value = get_system("thorp-ultimate").sigma0()
    ok = round(value, 3) == 5.798
    ACCEPTANCE_LINES.append(
        f"criterion 1x (thorp-ultimate sigma0): "
        f"{'PASS' if ok else 'FAIL (expected, documented)'} [got {value:.3f}]"
    )
    assert ok


# -- 2. Sigma tables ---------------------------------------------------------

PENETRATIONS = (0.5, 2 / 3, 0.75)
HI_LO_BET = {0.5: (0.877, 0.925, 0.971), 2 / 3: (1.316, 1.388, 1.457), 0.75: (1.754, 1.850, 1.942)}
HI_LO_PLAY = {0.5: (0.449, 0.340, 0.170), 2 / 3: (0.674, 0.510, 0.256), 0.75: (0.898, 0.680, 0.340)}


def _cells(system, penetration):
    table = cmd_sigma_table(system, 8, penetration, 7, [1, 4, 7], 2.6)
    return table


def test_criterion_2_hi_lo_tables():
    worst = 0.0
    for pen in PENETRATIONS:
        table = _cells(get_system("hi-lo"), pen)
        for row, expected in ((0, HI_LO_BET[pen]), (1, HI_LO_PLAY[pen])):
            for got, want in zip(table.cells[row], expected):
                worst = max(worst, abs(got - want))
    marked = _cells(get_system("hi-lo"), 0.5)
    footnoted = (1, 2) in marked.cell_markers
    record(
        "2 (hi-lo sigma tables)",
        worst <= 0.005 and footnoted,
        f"max cell error {worst:.4f}; last-seat footnote {footnoted}",
    )


def test_criterion_2b_sigma_play_monotone_in_position():
    # Directional claim: later seats face less play-to-dealer dispersion.
    stds = [
        52 * sigma_n_approx(
            208,
            SeatCardModel(seats=7, position=p).mean_cards_between[1],
            get_system("hi-lo"),
        )
        for p in range(1, 8)
    ]
    record("2b (sigma_play monotone)", stds == sorted(stds, reverse=True))


THORP_BET = {0.5: (5.780, 6.096, 6.400), 2 / 3: (8.670, 9.144, 9.600), 0.75: (11.56, 12.192, 12.8)}


@pytest.mark.xfail(
    strict=True,
    reason="published Thorp tables scale from the 5.798 slip; weights give ~15.6% higher",
)
def test_criterion_2x_thorp_tables():
    worst = 0.0
    for pen in PENETRATIONS:
        table = _cells(get_system("thorp-ultimate"), pen)
        for got, want in zip(table.cells[0], THORP_BET[pen]):
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 0.005
    ACCEPTANCE_LINES.append(
        f"criterion 2x (thorp-ultimate tables): "
        f"{'PASS' if ok else 'FAIL (expected, documented)'} "
        f"[max relative error {worst:.3f}]"
    )
    assert ok


# -- 3. Exact-oracle equivalence --------------------------------------------

def test_criterion_3_moment_sweep():
    t0 = time.time()
    # Every composition of up to 40/24/16/16 cards over the four weight
    # sets (the default exhaustive limits), plus nine sampled ones.
    result = verify_theorem(seed=0, sampled_totals=(22, 26, 30), samples_per_total=3)
    elapsed = time.time() - t0
    record(
        "3 (exact moment sweep)",
        result.passed,
        f"{result.checked} exact checks, {elapsed:.0f}s",
    )


# -- 4. Lemma suite ----------------------------------------------------------

def test_criterion_4_lemma_suite():
    t0 = time.time()
    result = verify_lemmas(seed=0, exhaustive_n=8, random_instances=100)
    elapsed = time.time() - t0
    record(
        "4 (lemma suite)",
        result.passed and result.checked == 50_693,
        f"{result.checked} exact checks, {elapsed:.0f}s",
    )


# -- 5. Worked example -------------------------------------------------------

def test_criterion_5_worked_example():
    comp = WeightComposition({1: 5, -1: 5, 0: 3})
    sigma1 = 52 * sigma_n_exact(comp, 1).value
    tc = float(comp.deplete([1]).true_count("deck"))
    ok = (
        sigma_n_exact(comp, 1).squared == Fraction(5, 936)
        and abs(sigma1 - 3.80) <= 0.005
        and abs(tc - 4.33) <= 0.005
    )
    record("5 (worked example)", ok, f"sigma1 {sigma1:.4f}, post-removal TC {tc:.4f}")


# -- 6. Kelly ----------------------------------------------------------------

def test_criterion_6_kelly():
    grid = verify_kelly()
    stats = growth_stats_binomial(0.51)
    closed = 0.51 * math.log(1.02) + 0.49 * math.log(0.98)
    mean_ok = abs(stats.mean - closed) < 1e-9
    approx_ok = abs(stats.mean - 2 * 0.01**2) / (2 * 0.01**2) < 0.05
    n_ref = long_run(0.01, 0.0, 2.0)
    delta = long_run(0.01, math.sqrt(0.02), 2.0) - n_ref
    ok = grid.passed and mean_ok and approx_ok and n_ref == 40000.0 and delta == 800.0
    record(
        "6 (kelly)",
        ok,
        f"grid {grid.checked} points, N {n_ref:.0f}, delta-N {delta:.0f}",
    )


# -- 7. Monte Carlo concordance ---------------------------------------------

def test_criterion_7_monte_carlo():
    t0 = time.time()
    hi_lo = get_system("hi-lo")
    worst_z = 0.0
    # Seat cells: big shoe keeps the approximation in its N >> n regime,
    # integer-n surrogate (3 cards per hand exactly) pins the card counts.
    for position in (1, 7):
        model = SeatCardModel.with_hand_mean(7, position, 3.0)
        report = simulate_seat_sigma(hi_lo, 200, 0.5, model, 100_000, SEED)
        remaining = 52 * 200 * 0.5
        for i, label in enumerate(("sigma_bet", "sigma_play")):
            emp = report.stats[label].std
            approx = 52 * sigma_n_approx(remaining, model.mean_cards_between[i], hi_lo)
            se = emp / math.sqrt(2 * (report.trials - 1))
            worst_z = max(worst_z, abs(emp - approx) / se)
    # Depleted 8-deck shoe against the exact finite-population prediction.
    inc = simulate_tc_increment(hi_lo, 8, 0.75, [1, 4, 16], 10_000, SEED)
    for n in (1, 4, 16):
        row = inc.stats[f"tc_increment_n{n}"]
        se = row.std / math.sqrt(2 * (inc.trials - 1))
        z = abs(row.std - predicted_increment_std(hi_lo, 8, 0.75, n)) / se
        worst_z = max(worst_z, z)
    # Bankroll run against the fixed-advantage closed forms.
    bank = simulate_bankroll(FixedAdvantageModel(0.51), 40_000, 1000, SEED)
    row = bank.stats["growth_rate"]
    stats = growth_stats_binomial(0.51)
    z_mean = abs(row.mean - stats.mean) / row.stderr
    z_std = abs(row.std - stats.std(40_000)) / (row.std / math.sqrt(2 * 999))
    elapsed = time.time() - t0
    ok = worst_z < 4 and z_mean < 3 and z_std < 3
    record(
        "7 (monte carlo concordance)",
        ok,
        f"worst seat/increment z {worst_z:.2f}, bankroll z {z_mean:.2f}/{z_std:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7b_exact_seat_sigma():
    # Every seat of an 8-deck shoe against the exact finite-shoe prediction,
    # with the default 0/1/2 extra-card law.  The normal-theory standard
    # error of a std understates the play-moment spread of the last seats,
    # whose increments are mostly zero, so the gate is stricter there.
    t0 = time.time()
    hi_lo = get_system("hi-lo")
    worst_z = 0.0
    for position in range(1, 8):
        model = SeatCardModel(7, position)
        report = simulate_seat_sigma(hi_lo, 8, 0.5, model, 100_000, SEED)
        exact = predicted_seat_sigma(hi_lo, 8, 0.5, model)
        for label, predicted in zip(("sigma_bet", "sigma_play"), exact):
            emp = report.stats[label].std
            se = emp / math.sqrt(2 * (report.trials - 1))
            worst_z = max(worst_z, abs(emp - predicted) / se)
    record(
        "7b (exact seat sigma, 8 decks)",
        worst_z < 4,
        f"7 seats, worst z {worst_z:.2f}, {time.time() - t0:.0f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="sqrt(n)*Sigma0/N bias (~9% at N=104, n=16) exceeds 4 MC standard errors",
)
def test_criterion_7x_approx_at_depleted_shoe():
    hi_lo = get_system("hi-lo")
    report = simulate_tc_increment(hi_lo, 8, 0.75, [16], 10_000, SEED)
    row = report.stats["tc_increment_n16"]
    approx = 52 * sigma_n_approx(104, 16, hi_lo)
    se = row.std / math.sqrt(2 * (report.trials - 1))
    z = abs(row.std - approx) / se
    ok = z < 4
    ACCEPTANCE_LINES.append(
        f"criterion 7x (approximation at 75% penetration): "
        f"{'PASS' if ok else 'FAIL (expected, documented)'} [z {z:.1f}]"
    )
    assert ok


# -- 8. Determinism ----------------------------------------------------------

def test_criterion_8_determinism(capsys):
    argv = [
        "simulate", "--mode", "seat-sigma", "--system", "hi-lo",
        "--decks", "8", "--penetration", "0.5", "--seats", "7",
        "--position", "7", "--trials", "500", "--seed", "77",
        "--format", "csv",
    ]
    outputs = []
    for _ in range(2):
        code = main(list(argv))
        outputs.append(capsys.readouterr().out)
        assert code == 0
    record(
        "8 (determinism)",
        outputs[0] == outputs[1] and "\r\n" in outputs[0],
        "byte-identical CSV across repeated runs",
    )

"""Tests of the benchmark's oracles and of the checks built on them.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402

WORKED = {F(1): 5, F(-1): 5, F(0): 3}
HI_LO_S0_SQ = F(40, 52)
DEFAULT_LAW = [(0, F(55, 100)), (1, F(30, 100)), (2, F(15, 100))]


def test_worked_example_sigma1():
    assert oracles.sigma1_squared(WORKED) == F(5, 936)


@pytest.mark.parametrize("n", range(1, 13))
def test_brute_force_law_has_closed_form_moments(n):
    total, mean, var = oracles.law_moments(list(oracles.brute_force_law(WORKED, n).items()))
    assert total == 1
    assert mean == 0
    assert var == oracles.increment_variance(WORKED, n)


def test_brute_force_law_by_hand():
    # R = -(2 - 1) = -1 over N = 3; revealing a +1 leaves R = 0 over 2 cards.
    law = oracles.brute_force_law({F(1): 2, F(-1): 1}, 1)
    assert law == {F(0): F(2, 3), F(-2, 2): F(1, 3)}


def test_convolved_extra_law():
    law = oracles.convolve_law(DEFAULT_LAW, 2)
    assert sum(law.values()) == 1
    assert law[0] == F(55, 100) ** 2
    assert law[4] == F(15, 100) ** 2
    assert oracles.convolve_law(DEFAULT_LAW, 0) == {0: 1}


def test_seat_prediction_exceeds_large_deck_approximation():
    # 8 decks, half dealt, last seat: the exact finite-shoe sigma_bet is
    # 1.0217, above the sqrt(n) Sigma0 / N figure of 0.971.
    var_bet, _ = oracles.seat_sigma_variances(HI_LO_S0_SQ, 8, 208, 7, 7, DEFAULT_LAW)
    approx = 52 * math.sqrt(2 * 8 + 6 * 0.6) * math.sqrt(40 / 52) / 208
    assert math.sqrt(var_bet) == pytest.approx(1.0217, abs=1e-4)
    assert approx == pytest.approx(0.971, abs=1e-3)


def test_fixed_n_seat_law_reduces_to_increment_variance():
    var_bet, var_play = oracles.seat_sigma_variances(HI_LO_S0_SQ, 200, 5200, 7, 7, [(1, F(1))])
    assert var_bet == oracles.shoe_increment_variance(HI_LO_S0_SQ, 200, 5200, 22)
    assert var_play == oracles.shoe_increment_variance(HI_LO_S0_SQ, 200, 5222, 1)


def test_growth_moments_match_binomial_closed_form():
    p = 0.51
    mean, var = oracles.growth_moments([(1.0, p)])
    assert mean == pytest.approx(p * math.log(2 * p) + (1 - p) * math.log(2 - 2 * p), rel=1e-12)
    assert var == pytest.approx(p * (1 - p) * math.log(p / (1 - p)) ** 2, rel=1e-9)
    # A state with no edge bets nothing and adds no growth.
    assert oracles.growth_moments([(0.5, 0.5), (0.5, p)])[0] == pytest.approx(mean / 2)


def test_sweep_sizes():
    # Total 2: only the empty prefix; lemma 1, lemma 2 (q = 0), lemma 3/4
    # (k = 1, q = 0) and lemma 6 (n = 1) give 4c checks per composition.
    assert oracles.lemma_checks(2) == 3 * 4 * 2 + 6 * 4 * 3
    assert oracles.theorem_checks((14,), 1) == 4 * 3 * 13
    assert oracles.kelly_grid_checks(0.505, 0.95, 0.005) == 90


def test_closed_forms_of_cli_tables():
    assert oracles.kelly_cells(0.5, 0.0, 10) == [0.0, 0.0, 0.0, 0.0]
    fraction, mean, var, std = oracles.kelly_cells(0.52, 0.0, 100)
    assert fraction == pytest.approx(0.04)
    assert std == pytest.approx(math.sqrt(var / 100))
    cells = oracles.longrun_cells(0.01, 0.0, 0.877, 2.0)
    assert cells[0] == pytest.approx(40_000)
    assert cells[1] == pytest.approx(40_000 * (1 + 0.877**2))
    bet, play = oracles.sigma_table_cells(math.sqrt(40 / 52), 8, 0.5, 7, [7], 2.6)
    assert bet[0] == pytest.approx(0.971, abs=1e-3)


# -- planted wrong answers ------------------------------------------------------

def _result(text: str, code=0) -> workloads.CliResult:
    return workloads.CliResult(code, text, "")


def _exact_output(law, mean, sigma) -> str:
    rows = [f"{v * 52}  {p}" for v, p in law] + [
        f"mean (exact)  {mean * 52}", f"sigma (enumerated)  {sigma:.6f}",
        f"sigma (closed form)  {sigma:.6f}",
    ]
    return "title\n  probability\n" + "\n".join(rows) + "\n"


def test_exact_check_accepts_truth_and_rejects_planted_errors():
    n = 4
    law = sorted(oracles.brute_force_law(WORKED, n).items())
    sigma = 52 * math.sqrt(oracles.increment_variance(WORKED, n))
    check = workloads.CliMix._exact_check("table", WORKED, n)
    check(_result(_exact_output(law, F(0), sigma)))
    v0, p0 = law[0]
    bad_prob = [(v0, p0 + F(1, 1000)), *law[1:]]
    moved = [(v0 + F(1, 52), p0), *law[1:]]
    for text in (
        _exact_output(bad_prob, F(0), sigma),
        _exact_output(moved, F(0), sigma),
        _exact_output(law, F(1, 13), sigma),
        _exact_output(law, F(0), sigma * 1.001),
    ):
        with pytest.raises(ValueError):
            check(_result(text))


def test_table_check_rejects_planted_cell():
    check = workloads.CliMix._table_check("json", 8, [("a", [1.5]), ("b", [2.0])])
    good = '{"rows": [{"label": "a", "cells": [1.5]}, {"label": "b", "cells": [2.0]}]}'
    check(_result(good))
    for bad in (good.replace("2.0", "2.0001"), good.replace("2.0", "NaN"),
                good.replace('"b"', '"c"')):
        with pytest.raises(ValueError):
            check(_result(bad))
    text_check = workloads.CliMix._table_check("table", 3, [("x", [0.9712])])
    text_check(_result("t\n   1\nx  0.971*\n* note\n"))
    with pytest.raises(ValueError):
        text_check(_result("t\n   1\nx  0.973*\n"))


def test_verify_and_simulate_checks_reject_planted_output():
    workloads.CliMix._verify_check(90)(_result("kelly: PASS (90 checks)\n"))
    with pytest.raises(ValueError):
        workloads.CliMix._verify_check(90)(_result("kelly: PASS (89 checks)\n"))
    check = workloads.CliMix._simulate_check("csv", {"g"})
    check(_result("statistic,mean,std,stderr\r\ng,0.1,0.2,0.01\r\n"))
    with pytest.raises(ValueError):
        check(_result("statistic,mean,std,stderr\r\ng,0.1,nan,nan\r\n"))


def test_faulty_command_succeeds_only_with_a_typed_error():
    wl = workloads.CliMix.__new__(workloads.CliMix)
    wl.errors, wl.reference = [], {}
    call = workloads.Call("faulty", 1, None, {"index": 0, "check": None})
    assert wl.check(0, call, workloads.CliResult(2, "", "error: bad input\n"))
    assert not wl.check(0, call, workloads.CliResult(0, "nan\n", ""))
    assert not wl.check(0, call, workloads.CliResult("ValueError: x", "", ""))


def _mc_with_samples(scale: float, tmp_path) -> workloads.MonteCarlo:
    wl = workloads.MonteCarlo(1, tmp_path)
    for label, trials, _, preds in wl.configs:
        for stat, (mu, var) in preds.items():
            sd = math.sqrt(float(var)) * scale
            # Per-call stds spread by about their sampling error.
            rows = [(float(mu), sd * (1 + (-1) ** i * 0.5 / math.sqrt(trials))) for i in range(20)]
            wl.samples[(label, stat)] = rows
    return wl


def test_concordance_accepts_exact_std_and_rejects_planted_bias(tmp_path):
    wl = _mc_with_samples(1.0, tmp_path)
    wl.finish()
    wl.pool([wl.details])
    assert wl.errors == []
    wl = _mc_with_samples(1.05, tmp_path)
    wl.finish()
    wl.pool([wl.details])
    assert wl.errors


def test_brute_force_check_rejects_planted_law(tmp_path, monkeypatch):
    wl = workloads.ExactSweep(3, tmp_path)
    wl.finish()
    assert wl.errors == [] and wl.details["brute_force_laws"] > 0
    real = oracles.brute_force_law

    def planted(comp, n):
        law = real(comp, n)
        v = min(law)
        law[v + 1] = law.pop(v)
        return law

    monkeypatch.setattr(oracles, "brute_force_law", planted)
    wl = workloads.ExactSweep(3, tmp_path)
    wl.finish()
    assert wl.errors


# -- the traced run ---------------------------------------------------------------

def test_tracer_counts_work_and_restores_the_package():
    import json

    import spans
    from truecount import kelly, verify

    original = verify.verify_kelly
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = verify.verify_kelly(lo=0.6, hi=0.61, step=0.005)
    finally:
        tracer.uninstall()
    assert verify.verify_kelly is original and kelly.log_growth.__name__ == "log_growth"
    assert not hasattr(kelly.log_growth, "__wrapped__")
    assert tracer.counts["verify.checks"] == result.checked == 3
    self_times, roots = tracer.self_times()
    assert self_times["verify"] > 0 and self_times["kelly"] > 0
    assert sum(self_times.values()) == pytest.approx(roots)

    names = [f"{g}.self_s" for g in spans.SELF_GROUPS] + list(spans.COUNTERS)
    names += ["other_s", "trace.wall_s", "trace.overhead_s"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(m["name"] for m in declared) == sorted(names)

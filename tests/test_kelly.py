"""Kelly growth closed forms, optimality search, and the fuzzy correction."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from truecount import (
    BadRangeError,
    FuzzyAdvantage,
    GrowthStats,
    advantage_variance,
    growth_stats_binomial,
    growth_var_fuzzy,
    kelly_fraction,
    long_run,
    verify_kelly_optimality,
)
from truecount.kelly import log_growth


def exact_two_point_growth(p0: float, var_p0: float) -> GrowthStats:
    """Independent oracle: exact G_1 moments for the two-point advantage.

    The advantage is p0 +/- sqrt(var_p0) with equal probability and the bet
    tracks the realized advantage; the four outcomes are enumerated.
    """
    s = math.sqrt(var_p0)
    m1 = m2 = 0.0
    for p in (p0 - s, p0 + s):
        f = kelly_fraction(p)
        for value, prob in ((math.log1p(f), p), (math.log1p(-f), 1 - p)):
            m1 += 0.5 * prob * value
            m2 += 0.5 * prob * value * value
    return GrowthStats(m1, m2 - m1 * m1)


class TestKellyFraction:
    def test_basic_values(self):
        assert kelly_fraction(0.5) == 0.0
        assert kelly_fraction(0.51) == pytest.approx(0.02)
        assert kelly_fraction(0.3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(BadRangeError):
            kelly_fraction(1.2)

    @given(st.floats(min_value=0.5, max_value=1.0 - 1e-9))
    def test_fraction_maximizes_growth_locally(self, p):
        f = kelly_fraction(p)
        h = 1e-5
        best = log_growth(p, f)
        if f - h > 0:
            assert best >= log_growth(p, f - h)
        if f + h < 1:
            assert best >= log_growth(p, f + h)


class TestGrowthStats:
    def test_closed_forms(self):
        stats = growth_stats_binomial(0.51)
        p, q = 0.51, 0.49
        assert stats.mean == pytest.approx(
            p * math.log(2 * p) + q * math.log(2 * q), abs=1e-15
        )
        assert stats.variance == pytest.approx(
            p * q * math.log(p / q) ** 2, abs=1e-15
        )

    def test_small_edge_approximation(self):
        # E(G_1) ~ 2 eps^2 for edge eps = p - 1/2.
        stats = growth_stats_binomial(0.51)
        assert stats.mean == pytest.approx(2 * 0.01**2, rel=0.05)

    def test_std_scales_inverse_sqrt_n(self):
        stats = growth_stats_binomial(0.52)
        assert stats.std(100) == pytest.approx(stats.std(1) / 10)
        assert stats.mean_over(100) == stats.mean

    def test_range_checks(self):
        for p in (0.5, 0.0, 1.0):
            with pytest.raises(BadRangeError):
                growth_stats_binomial(p)

    def test_std_needs_a_round(self):
        with pytest.raises(BadRangeError):
            growth_stats_binomial(0.52).std(0)

    def test_negative_variance_rejected(self):
        with pytest.raises(BadRangeError):
            GrowthStats(0.0, -1.0)


class TestOptimality:
    def test_argmax_matches_closed_form(self):
        report = verify_kelly_optimality(0.6, tolerance=1e-6)
        assert report.passed
        assert report.gap < 1e-6
        assert report.concave_at_max

    def test_out_of_range(self):
        with pytest.raises(BadRangeError):
            verify_kelly_optimality(0.4)


class TestFuzzyAdvantage:
    def test_variance_bound_enforced(self):
        with pytest.raises(BadRangeError):
            FuzzyAdvantage(0.51, 0.3)

    def test_advantage_variance_units(self):
        # Edge eps per true count unit, sigma_bet true count units of noise.
        assert advantage_variance(0.005, 2.0) == pytest.approx(1e-4)

    def test_reduces_to_fixed_when_noiseless(self):
        base = growth_stats_binomial(0.53)
        fuzzy = growth_var_fuzzy(FuzzyAdvantage(0.53, 0.0))
        assert fuzzy.mean == base.mean
        assert fuzzy.variance == base.variance

    def test_noise_increases_both_moments(self):
        base = growth_stats_binomial(0.53)
        fuzzy = growth_var_fuzzy(FuzzyAdvantage(0.53, 1e-4))
        assert fuzzy.mean > base.mean
        assert fuzzy.variance > base.variance

    @pytest.mark.parametrize("p0", [0.53, 0.56, 0.6])
    @pytest.mark.parametrize("spread", [1e-3, 5e-3, 1e-2])
    def test_first_order_formula_vs_exact_two_point(self, p0, spread):
        var = spread**2
        fuzzy = growth_var_fuzzy(FuzzyAdvantage(p0, var))
        exact = exact_two_point_growth(p0, var)
        # First order in var: residual must be o(var), bounded here by
        # a generous multiple of spread^3.
        assert abs(fuzzy.mean - exact.mean) < 20 * spread**3
        assert abs(fuzzy.variance - exact.variance) < 50 * spread**3

    def test_first_order_error_shrinks_quadratically(self):
        errors = []
        for spread in (4e-3, 2e-3, 1e-3):
            var = spread**2
            fuzzy = growth_var_fuzzy(FuzzyAdvantage(0.55, var))
            exact = exact_two_point_growth(0.55, var)
            errors.append(abs(fuzzy.variance - exact.variance))
        assert errors[0] > errors[1] > errors[2]


class TestLongRun:
    def test_zero_noise_case(self):
        assert long_run(0.01, 0.0, 2.0) == pytest.approx(40000.0)

    def test_variance_gap_of_two_percent(self):
        # A 0.02 gap in sigma_bet^2 costs 800 extra favorable hands.
        delta = long_run(0.01, math.sqrt(0.02), 2.0) - long_run(0.01, 0.0, 2.0)
        assert delta == pytest.approx(800.0)

    def test_monotone_in_noise(self):
        assert long_run(0.01, 1.0) > long_run(0.01, 0.5)

    def test_range_checks(self):
        with pytest.raises(BadRangeError):
            long_run(0.0, 1.0)
        with pytest.raises(BadRangeError):
            long_run(0.01, -1.0)
        with pytest.raises(BadRangeError):
            long_run(0.01, 1.0, 0.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 2.0), (0.01, math.nan, 2.0), (0.01, 1.0, math.nan),
        (math.inf, 1.0, 2.0), (0.01, math.inf, 2.0), (0.01, 1.0, math.inf),
    ])
    def test_non_finite_rejected(self, args):
        with pytest.raises(BadRangeError):
            long_run(*args)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.505, max_value=0.95))
def test_growth_mean_positive_and_bounded(p):
    stats = growth_stats_binomial(p)
    assert 0 < stats.mean < math.log(2)
    assert stats.variance > 0

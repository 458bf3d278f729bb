"""Kelly growth closed forms, optimality search, and the fuzzy correction."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from truecount import verify
from truecount import (
    BadRangeError,
    ConvergenceError,
    FuzzyAdvantage,
    GrowthStats,
    growth_stats_binomial,
    growth_var_fuzzy,
    kelly_fraction,
    long_run,
)
from truecount.kelly import GOLDEN, _golden_max, log_growth, optimality_grid


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

    @pytest.mark.parametrize("mean, variance", [
        (0.0, math.nan), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0),
    ])
    def test_non_finite_moments_rejected(self, mean, variance):
        with pytest.raises(BadRangeError, match="need a finite (mean|variance)"):
            GrowthStats(mean, variance)


class TestOptimality:
    def test_argmax_matches_closed_form(self):
        grid = optimality_grid([0.6], tolerance=1e-6)
        assert grid.passed().tolist() == [True]
        assert abs(grid.argmax[0] - grid.expected[0]) < 1e-6
        assert grid.expected[0] == pytest.approx(0.2)
        assert grid.concave.tolist() == [True]

    def test_out_of_range(self):
        with pytest.raises(BadRangeError):
            optimality_grid([0.4])


def scalar_golden_max(fn, lo, hi, tol):
    """Reference: the one-point golden-section search the batched one replaced."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a >= tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2


class TestKellyGrid:
    @pytest.mark.parametrize("lo, hi, count", [(0.5005, 0.6, 200), (0.9, 0.999, 199)])
    def test_argmax_within_tolerance_near_the_ends(self, lo, hi, count):
        grid = optimality_grid(verify._kelly_grid(lo, hi, 0.0005), tolerance=1e-6)
        assert len(grid.p0) == count
        assert np.all(np.abs(grid.argmax - grid.expected) < 1e-6) and grid.concave.all()

    def test_batched_search_matches_the_one_point_search(self):
        p0 = verify._kelly_grid(0.5005, 0.999, 0.0035)
        batched = _golden_max(lambda f: log_growth(p0, f), 0.0, 1 - 1e-9, 1e-8)
        for p, x in zip(p0.tolist(), batched.tolist()):
            assert x == scalar_golden_max(lambda f: log_growth(p, f), 0.0, 1 - 1e-9, 1e-8)

    def test_search_that_cannot_converge(self):
        p0 = np.array([0.55, 0.6])
        with pytest.raises(ConvergenceError):
            _golden_max(lambda f: log_growth(p0, f), 0.0, 1 - 1e-9, 1e-8, max_iter=1)

    def test_planted_wrong_expected_names_each_p0(self, monkeypatch):
        real = verify.optimality_grid
        bent_points = [1, 3]

        def bent(p0s, tolerance):
            grid = real(p0s, tolerance)
            expected = grid.expected.copy()
            expected[bent_points] += 1e-3
            return grid._replace(expected=expected)

        monkeypatch.setattr(verify, "optimality_grid", bent)
        result = verify.verify_kelly(lo=0.55, hi=0.75, step=0.05)
        assert result.checked == 5
        grid = verify._kelly_grid(0.55, 0.75, 0.05).tolist()
        named = [f"p0={grid[i]}" for i in bent_points]
        assert [f.split(":")[0] for f in result.failures] == named

    def test_failures_match_the_per_report_details(self):
        # At a tolerance below the search's float resolution most points
        # fail; each failure's text is built from the grid's point, in grid
        # order.
        lo, hi, step, tol = 0.52, 0.92, 0.0005, 1e-9
        result = verify.verify_kelly(lo=lo, hi=hi, step=step, tolerance=tol)
        grid = optimality_grid(verify._kelly_grid(lo, hi, step), tol)
        want = [
            f"p0={p0}: argmax={argmax} expected={expected} "
            f"gap={abs(argmax - expected)} concave={concave}"
            for p0, argmax, expected, concave, passed in zip(
                grid.p0.tolist(), grid.argmax.tolist(), grid.expected.tolist(),
                grid.concave.tolist(), grid.passed().tolist(),
            )
            if not passed
        ]
        assert result.checked == len(grid.p0) == 801
        assert len(want) == 663
        assert result.failures == want

    @pytest.mark.parametrize("p0s", [[], np.array([[0.6, 0.7]]), 0.6])
    def test_bad_grid_shape_rejected(self, p0s):
        with pytest.raises(BadRangeError):
            optimality_grid(p0s)

    @pytest.mark.parametrize("lo, hi, step, count", [
        (0.505, 0.95, 0.005, 90),  # the CLI's grid
        (0.55, 0.75, 0.05, 5),
        (0.6, 0.61, 0.005, 3),
        (0.7, 0.7, 0.01, 1),
    ])
    def test_grid_point_counts(self, lo, hi, step, count):
        assert len(verify._kelly_grid(lo, hi, step)) == count

    def test_benchmark_style_grids_have_801_points(self):
        for j in range(450):
            lo = round(0.505 + j * 1e-4, 4)
            grid = verify._kelly_grid(lo, round(lo + 800 * 0.0005, 4), 0.0005)
            assert len(grid) == 801

    def test_grid_stops_at_hi(self):
        # hi is not a whole number of steps from lo: rounding the step count
        # up would put a point at p0 = 1.
        result = verify.verify_kelly(lo=0.99, hi=0.999999, step=0.005)
        assert result.passed and result.checked == 2
        assert verify._kelly_grid(0.99, 0.999999, 0.005).max() <= 0.999999

    def test_concavity_probe_stays_below_one(self):
        # At p0 >= 0.99995 the argmax is within 1e-4 of f = 1, where a
        # centred second difference of step 1e-4 would leave the domain.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = verify.verify_kelly(lo=0.9999, hi=0.99999, step=0.00001)
            grid = optimality_grid([0.9999999])
        assert result.passed and result.checked == 10
        assert grid.passed().tolist() == [True]

    def test_grid_size_is_bounded(self):
        step = 2.0**-20
        lo, hi = 0.625, 0.625 + (verify.KELLY_MAX_POINTS - 1) * step
        assert len(verify._kelly_grid(lo, hi, step)) == verify.KELLY_MAX_POINTS
        with pytest.raises(BadRangeError):
            verify._kelly_grid(lo, hi + step, step)

    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0},
        {"step": -0.005},
        {"step": math.nan},
        {"step": math.inf},
        {"step": 1e-6},
        {"step": 1e-300},
        {"step": 5e-324},
        {"lo": math.nan},
        {"hi": math.nan},
        {"lo": 0.7, "hi": 0.6},
        {"lo": 0.5},
        {"hi": 1.0},
        {"tolerance": 0.0},
        {"tolerance": -1e-6},
        {"tolerance": math.nan},
    ])
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(BadRangeError):
            verify.verify_kelly(**kwargs)


class TestFuzzyAdvantage:
    def test_variance_bound_enforced(self):
        with pytest.raises(BadRangeError):
            FuzzyAdvantage(0.51, 0.3)

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

    @pytest.mark.parametrize("args", [
        (1e-200, 0.0, 2.0), (1e200, 0.0, 2.0), (1e-154, 0.0, 2.0),
        (0.01, 0.0, 1e200), (0.01, 0.0, 1e-200), (0.01, 1e200, 2.0),
    ], ids=["eps-squared-0", "eps-squared-over", "count-inf", "threshold-over",
            "count-0", "sigma-over"])
    def test_count_past_float_range_rejected(self, args):
        # A square that overflows or underflows, or a count that does, never
        # comes back as inf, 0 or a traceback.
        with pytest.raises(BadRangeError, match="no finite long run"):
            long_run(*args)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.505, max_value=0.95))
def test_growth_mean_positive_and_bounded(p):
    stats = growth_stats_binomial(p)
    assert 0 < stats.mean < math.log(2)
    assert stats.variance > 0

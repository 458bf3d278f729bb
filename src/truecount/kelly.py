"""Kelly betting analytics for two-outcome games.

Covers the fixed-advantage closed forms for the exponential growth rate,
a numeric optimality check of the 2p-1 fraction (``optimality_grid``: one
golden-section search over an array of p0, judged as arrays by
``OptimalityGrid.passed``), the first-order correction when the per-round
advantage is itself noisy, and the long-run hand-count estimator.  Natural
logarithms throughout.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .counting import real_number, shown, whole_number
from .errors import BadRangeError, ConvergenceError

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class GrowthStats:
    """Mean and variance of the per-round exponential growth rate G_1."""

    mean: float
    variance: float

    def __post_init__(self):
        real_number(self.mean, "mean")
        real_number(self.variance, "variance", 0)

    def std(self, n: int = 1) -> float:
        """Std of G_n; variance scales as 1/n for independent rounds."""
        n = whole_number(n, "n rounds", 1)
        if n > sys.float_info.max:
            raise BadRangeError(f"need n rounds within the float range, got {shown(n)}")
        return math.sqrt(self.variance / n)


@dataclass(frozen=True)
class FuzzyAdvantage:
    """Noisy per-round win probability: mean p0 and variance var_p0."""

    p0: float
    var_p0: float

    def __post_init__(self):
        if not 0 < real_number(self.p0, "p0") < 1:
            raise BadRangeError(f"need 0 < p0 < 1, got {shown(self.p0)}")
        real_number(self.var_p0, "var_p0", 0)
        if self.var_p0 > self.p0 * (1 - self.p0):
            raise BadRangeError(
                f"var_p0 {shown(self.var_p0)} exceeds the probability bound "
                f"p0(1-p0) = {shown(self.p0 * (1 - self.p0))}"
            )


def kelly_fraction(p: float) -> float:
    """Optimal bet fraction for win probability p: max(0, 2p - 1)."""
    if not 0 <= real_number(p, "p") <= 1:
        raise BadRangeError(f"need 0 <= p <= 1, got {shown(p)}")
    return max(0.0, 2 * p - 1)


def growth_stats_binomial(p: float) -> GrowthStats:
    """Growth mean/variance for a fixed-advantage game bet at the Kelly fraction."""
    if not 0.5 < real_number(p, "p") < 1:
        raise BadRangeError(f"need 1/2 < p < 1, got {shown(p)}")
    mean = p * math.log(2 * p) + (1 - p) * math.log(2 - 2 * p)
    variance = p * (1 - p) * math.log(p / (1 - p)) ** 2
    return GrowthStats(mean, variance)


def log_growth(p0, f):
    """Expected log growth when betting fraction f at expected advantage p0.

    Elementwise: p0 and f may be floats or numpy arrays of a common shape.
    """
    return p0 * np.log1p(f) + (1 - p0) * np.log1p(-f)


def _golden_max(fn, lo: float, hi: float, tol: float, max_iter: int = 500) -> np.ndarray:
    """Golden-section maxima of the elementwise unimodal ``fn`` over ``[lo, hi]``.

    ``fn`` maps an array of probes to an array of values, one per point,
    and every point starts from the same bracket.  Each step narrows every
    point's bracket by the golden ratio, so all of them cross ``tol``
    together; the search stops once the widest one has.
    """
    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    a, b = np.full_like(fc, lo), np.full_like(fc, hi)
    width = b - a
    for _ in range(max_iter):
        if np.max(width) < tol:
            return (a + b) / 2
        # Where fc > fd the maximum lies in [a, d]: d becomes the new b, c
        # the new d, and a probe goes in at the new c; otherwise mirrored.
        # The new width serves this probe and the next step's stop test.
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        step = GOLDEN * width
        probe = np.where(left, b - step, a + step)
        f_probe = fn(probe)
        c, fc, d, fd = (
            np.where(left, probe, d),
            np.where(left, f_probe, fd),
            np.where(left, c, probe),
            np.where(left, fc, f_probe),
        )
    raise ConvergenceError(f"golden-section search did not reach tol={tol}")


class OptimalityGrid(NamedTuple):
    """One golden-section search over an array of p0, held as arrays."""

    p0: np.ndarray
    argmax: np.ndarray
    expected: np.ndarray
    concave: np.ndarray
    tolerance: float

    def passed(self) -> np.ndarray:
        """The pass rule, per point: argmax within tolerance of 2p0 - 1, and concave."""
        return (abs(self.argmax - self.expected) < self.tolerance) & self.concave


def optimality_grid(p0s: Sequence[float], tolerance: float = 1e-6) -> OptimalityGrid:
    """Numerically maximize the growth functional at every p0 and compare with 2p0-1.

    One golden-section search over the whole 1-D array of p0, each point in
    the bracket [0, 1 - 1e-9] to ``tolerance / 100``, then the second
    difference at each argmax for concavity.  Its step is 1e-4, shrunk to
    half the distance to f = 1 where that is closer, so the probe stays
    inside the domain of the growth functional.
    """
    try:
        p0 = np.asarray(p0s)
    except ValueError:  # a ragged sequence, such as [0.6, [2]]
        raise BadRangeError("need a non-empty 1-D array of p0, got a ragged sequence") from None
    if p0.dtype.kind != "f":  # ints, objects or strings, which a cast to float could overflow
        for p in p0.flat:
            real_number(p, "p0")
    p0 = p0.astype(float, copy=False)
    if p0.ndim != 1 or not p0.size:
        raise BadRangeError(f"need a non-empty 1-D array of p0, got shape {p0.shape}")
    bad = ~((p0 > 0.5) & (p0 < 1))
    if bad.any():
        raise BadRangeError(f"need 1/2 < p0 < 1, got {p0[bad][0]}")
    if not real_number(tolerance, "tolerance") > 0:
        raise BadRangeError(f"need a tolerance > 0, got {shown(tolerance)}")
    fn = lambda f: log_growth(p0, f)
    argmax = _golden_max(fn, 0.0, 1.0 - 1e-9, tol=tolerance / 100)
    h = np.minimum(1e-4, (1 - argmax) / 2)
    concave = fn(argmax - h) - 2 * fn(argmax) + fn(argmax + h) < 0
    return OptimalityGrid(p0, argmax, 2 * p0 - 1, concave, tolerance)


def growth_var_fuzzy(adv: FuzzyAdvantage) -> GrowthStats:
    """Growth stats under a noisy advantage, to first order in the noise.

    With var_p0 = 0 this reduces exactly to the fixed-advantage closed form.
    The first-order variance goes negative once 1 - (2p0 - 1) logit(p0) < 0
    and var_p0 is large enough; that raises ``BadRangeError``.
    """
    p0, var = adv.p0, adv.var_p0
    if not 0.5 < p0 < 1:
        raise BadRangeError(f"need 1/2 < p0 < 1, got {shown(p0)}")
    base = growth_stats_binomial(p0)
    logit = math.log(p0 / (1 - p0))
    pq = p0 * (1 - p0)
    mean = base.mean + var / (2 * pq)
    variance = base.variance + (1 - (2 * p0 - 1) * logit) / pq * var
    if variance < 0:
        raise BadRangeError(
            f"the first-order growth variance p0(1-p0) logit(p0)^2 + "
            f"(1 - (2p0 - 1) logit(p0)) var_p0 / (p0(1-p0)) is negative at "
            f"p0={shown(p0)}, var_p0={shown(var)}"
        )
    return GrowthStats(mean, variance)


def long_run(eps: float, sigma_bet: float, threshold: float = 2.0) -> float:
    """Minimal favorable-hand count with E(G_N)/std(G_N) >= threshold.

    Uses the small-edge closed form threshold^2 (1 + sigma_bet^2) / eps^2,
    and raises ``BadRangeError`` where that is not a finite float > 0.
    """
    for name, value in (("eps", eps), ("sigma_bet", sigma_bet), ("threshold", threshold)):
        real_number(value, name)
    if eps <= 0:
        raise BadRangeError(f"need eps > 0, got {shown(eps)}")
    if sigma_bet < 0:
        raise BadRangeError(f"need sigma_bet >= 0, got {shown(sigma_bet)}")
    if threshold <= 0:
        raise BadRangeError(f"need threshold > 0, got {shown(threshold)}")
    try:
        n = threshold**2 * (1 + sigma_bet**2) / eps**2
    except (OverflowError, ZeroDivisionError):  # a square past the float range
        n = math.inf
    if not (math.isfinite(n) and n > 0):
        raise BadRangeError(
            f"no finite long run > 0 at eps={shown(eps)}, sigma_bet={shown(sigma_bet)}, "
            f"threshold={shown(threshold)}"
        )
    return n

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmetrics.stats import (
    activity_ratio,
    correlate,
    median,
    p_two_tailed,
    pearson_r,
    regularized_incomplete_beta,
)


# --------------------------------------------------------------------------
# oracles: exact-arithmetic correlation, 50-digit incomplete beta


def oracle_pearson(xs, ys):
    """Direct formula over exact fractions; sqrt at 50 digits."""
    n = len(xs)
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    sxx = sum((x - mx) ** 2 for x in fx)
    syy = sum((y - my) ** 2 for y in fy)
    if sxx == 0 or syy == 0 or n < 3:
        return float("nan")
    sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
    with mpmath.workdps(50):
        return float(mpmath.mpf(sxy.numerator) / sxy.denominator
                     / mpmath.sqrt(mpmath.mpf(sxx.numerator) / sxx.denominator
                                   * mpmath.mpf(syy.numerator) / syy.denominator))


def oracle_p(r, n):
    """Two-tailed p at 50 digits: the regularized incomplete beta
    p = I_x((n-2)/2, 1/2) with x = 1 - r^2 of the exact float r (the Student-t
    tail with t^2 = (n-2) r^2 / (1-r^2); Abramowitz & Stegun, ch. 26), so no
    float step is shared with p_two_tailed."""
    if n < 3 or math.isnan(r):
        return 1.0
    with mpmath.workdps(50):
        x = 1 - mpmath.mpf(r) ** 2
        if x <= 0:
            return 0.0
        return float(mpmath.betainc(mpmath.mpf(n - 2) / 2, 0.5, 0, x, regularized=True))


# --------------------------------------------------------------------------
# pearson_r


def test_perfect_linear():
    assert pearson_r([1, 2, 3], [1, 2, 3]) == 1.0


def test_constant_series_is_nan():
    assert math.isnan(pearson_r([1, 1, 1], [1, 2, 3]))
    assert math.isnan(pearson_r([1, 2, 3], [5, 5, 5]))


def test_constant_series_is_nan_despite_mean_rounding():
    # fsum/n of a constant non-dyadic value is off by an ulp; the zero
    # variance must still be detected.
    assert math.isnan(pearson_r([0.1, 0.1, 0.1], [1, 2, 3]))
    assert math.isnan(pearson_r([1, 2, 3], [85.68894838507023] * 3))


def test_short_series_is_nan():
    assert math.isnan(pearson_r([1, 2], [3, 4]))
    assert math.isnan(pearson_r([], []))


def test_spot_value_nine_over_sqrt_84():
    assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        pearson_r([1, 2], [1, 2, 3])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40))
def test_symmetry(xs):
    ys = [x * 0.5 + 3 for x in xs[::-1]]
    a = pearson_r(xs, ys)
    b = pearson_r(ys, xs)
    if math.isnan(a):
        assert math.isnan(b)
    else:
        assert a == pytest.approx(b, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-100, 100), min_size=3, max_size=30),
    st.floats(0.01, 100),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-1000, 1000),
)
def test_affine_invariance(values, magnitude, sign, b):
    # Well-conditioned inputs: integer-valued xs keep a*x + b from losing
    # the series variance to rounding.
    xs = [float(v) for v in values]
    a = sign * magnitude
    ys = [(i * 7) % 13 - 5.0 for i in range(len(xs))]
    base = pearson_r(xs, ys)
    scaled = pearson_r([a * x + b for x in xs], ys)
    if math.isnan(base):
        assert math.isnan(scaled)
    else:
        assert scaled == pytest.approx(math.copysign(1.0, a) * base, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=30),
    st.lists(st.integers(-10**6, 10**6), min_size=30, max_size=30),
    st.integers(-1000, 1000),
    st.booleans(),
)
def test_power_of_two_scaling_keeps_r_bit_identical(xs, ys, k, scale_both):
    # Large |k| takes the scaled series past the overflow or underflow guard
    # and back.
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys[:len(xs)]]
    base = pearson_r(xs, ys)
    factor = 2.0 ** k
    scaled = pearson_r([x * factor for x in xs], [y * factor for y in ys] if scale_both else ys)
    assert math.isnan(scaled) if math.isnan(base) else scaled == base


def test_tiny_series_do_not_underflow():
    # The squared deviations of this series underflow to zero unless it is
    # scaled up first.
    assert pearson_r([1e-200, 2e-200, 3e-200], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)


def test_huge_finite_series_do_not_overflow():
    xs = [1.0, 2.0, 3.0, 5.0, 8.0]
    ys = [3e300, 1e300, 4e300, 1e300, 5e300]
    r = pearson_r(xs, ys)
    assert r == pearson_r(xs, [y / 2.0 ** 1000 for y in ys])
    assert r == pytest.approx(oracle_pearson(xs, ys), abs=1e-12)


# --------------------------------------------------------------------------
# p_two_tailed: p = I_{1-r^2}((n-2)/2, 1/2)


def test_nan_r_gives_p_one():
    assert p_two_tailed(float("nan"), 50) == 1.0


def test_zero_r_gives_p_one():
    assert p_two_tailed(0.0, 50) == 1.0


def test_small_n_gives_p_one():
    assert p_two_tailed(0.9, 2) == 1.0


def test_exact_unit_r_gives_p_zero():
    assert p_two_tailed(1.0, 10) == 0.0
    assert p_two_tailed(-1.0, 10) == 0.0


def test_spot_value_half_r_twenty_samples():
    assert p_two_tailed(0.5, 20) == pytest.approx(0.0248, abs=5e-4)


def test_p_monotone_decreasing_in_abs_r():
    for n in (5, 20, 100):
        values = [p_two_tailed(r / 100, n) for r in range(0, 100, 5)]
        assert values == sorted(values, reverse=True)


def test_p_monotone_decreasing_in_n():
    for r in (0.1, 0.5, 0.9):
        values = [p_two_tailed(r, n) for n in range(3, 120, 7)]
        assert values == sorted(values, reverse=True)


def test_t_table_critical_values():
    # Two-tailed critical values (df, t, alpha) as printed in t tables: at
    # r = t / sqrt(df + t^2) they pin the r form p = I_{1-r^2}(df/2, 1/2)
    # that oracle_p and p_two_tailed both compute.
    for df, t, alpha in [
        (1, 12.706, 0.05), (2, 4.303, 0.05), (5, 2.571, 0.05), (10, 2.228, 0.05), (20, 2.086, 0.05),
        (30, 2.042, 0.05), (100, 1.984, 0.05), (10, 3.169, 0.01), (20, 2.845, 0.01), (5, 6.869, 0.001),
    ]:
        r, n = t / math.sqrt(df + t * t), df + 2
        assert oracle_p(r, n) == pytest.approx(alpha, rel=1e-3)
        assert p_two_tailed(r, n) == pytest.approx(alpha, rel=1e-3)


@pytest.mark.parametrize("r, n", [
    (0.9999998997439765, 65), (0.999999999, 30),
    *[(1.0 - 10.0 ** -k, n) for k in (4, 6, 8, 10, 12) for n in (3, 10, 30)],
])
def test_p_keeps_its_digits_as_r_nears_one(r, n):
    # 1 - r^2 formed as 1 - r * r cancels as r -> 1: such a kernel is 8.1e-9
    # and 7.0e-9 off at the first two points, 7.7e-9 at 1 - r = 1e-8, n = 30.
    assert p_two_tailed(r, n) == pytest.approx(oracle_p(r, n), rel=1e-9, abs=0)
    assert p_two_tailed(-r, n) == p_two_tailed(r, n)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(3, 10 ** 5))
def test_p_is_a_probability(r, n):
    assert 0.0 <= p_two_tailed(r, n) <= 1.0


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_against_oracles_on_random_series():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(3, 200)
        xs = [rng.gauss(0, 1) * rng.choice([1, 10, 1000]) for _ in range(n)]
        ys = [rng.gauss(0, 1) for _ in range(n)]
        r = pearson_r(xs, ys)
        assert r == pytest.approx(oracle_pearson(xs, ys), abs=1e-10)
        assert p_two_tailed(r, n) == pytest.approx(oracle_p(r, n), rel=1e-9, abs=1e-322)


# --------------------------------------------------------------------------
# median / activity


def test_median_singleton():
    assert median([5]) == 5


def test_median_even_count_averages():
    assert median([1, 2]) == 1.5


def test_median_unsorted_input():
    assert median([3, 1, 2, 10]) == 2.5


def test_median_empty_raises():
    with pytest.raises(ValueError):
        median([])


def test_activity_ratio():
    assert activity_ratio(10, 100) == pytest.approx(0.1)
    assert activity_ratio(0, 5) == 0.0
    assert activity_ratio(37, 296) == pytest.approx(0.125, abs=1e-3)


def test_activity_requires_positive_bugs():
    with pytest.raises(ValueError):
        activity_ratio(10, 0)


# --------------------------------------------------------------------------
# CorrelationResult invariants


def test_correlate_bundles_invariant_results():
    result = correlate("IC-WMC", [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert math.isnan(result.r)
    assert result.p_two_tailed == 1.0
    assert result.n == 3

    result = correlate("LOC", [1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert result.r == 1.0
    assert result.p_two_tailed == 0.0

"""Numeric kernel: Pearson correlation, two-tailed significance, medians.

Everything here is pure, reentrant, and implemented directly on floats so
results are reproducible bit-for-bit across runs. The Student-t tail goes
through the regularized incomplete beta function, evaluated with the
continued-fraction method.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

NAN = float("nan")

_BETACF_TOL = 1e-14
_BETACF_MAX_ITER = 300
_TINY = 1e-300
# Below this magnitude no sum of squared deviations, nor the product of two
# such sums, can overflow: with |v| <= 2**200, sxx <= n * 2**402, and
# sxx * syy < 2**1024 for any n < 2**110.
_SAFE_MAGNITUDE = 2.0 ** 200


class CorrelationResult(NamedTuple):
    """One (metric, bug-count) correlation.

    r is NaN exactly when either series has zero variance or fewer than
    three points; a NaN r always pairs with p = 1.0.
    """

    metric_name: str
    r: float
    p_two_tailed: float
    n: int


def _in_safe_range(values: Sequence[float]) -> Sequence[float]:
    """``values``, scaled by a power of two when their squares could overflow.

    r does not change when a series is scaled, and scaling by a power of two
    is exact (short of values that underflow), so a scaled series gets the r
    it would get in a wider float; a series within the safe range is
    returned as it is and keeps every bit of its r.
    """
    peak = max(map(abs, values))
    if peak <= _SAFE_MAGNITUDE:
        return values
    shift = math.frexp(peak)[1]  # the scaled peak lies in [0.5, 1)
    return [math.ldexp(v, -shift) for v in values]


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; NaN on zero variance or n < 3."""
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        return NAN
    # Exact-equality check: a constant series must be NaN even when the
    # rounded mean differs from the common value by an ulp.
    if all(x == xs[0] for x in xs) or all(y == ys[0] for y in ys):
        return NAN
    xs, ys = _in_safe_range(xs), _in_safe_range(ys)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return NAN
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + numerator / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + numerator / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge within {_BETACF_MAX_ITER}"
        f" iterations for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _student_t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for t >= 0; computed tail-first so tiny values survive."""
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def p_two_tailed(r: float, n: int) -> float:
    """Two-tailed significance of a Pearson r from n samples.

    Uses the t transform t = r * sqrt((n-2) / (1-r^2)) with n-2 degrees of
    freedom: p = 2 * (1 - F_t(|t|)). NaN r or n < 3 maps to 1.0; exact
    |r| = 1 maps to 0.0.
    """
    if n < 3 or math.isnan(r):
        return 1.0
    r = max(-1.0, min(1.0, r))
    if abs(r) >= 1.0:
        return 0.0
    df = float(n - 2)
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    p = 2.0 * _student_t_upper_tail(t, df)
    return max(0.0, min(1.0, p))


def correlate(metric_name: str, xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Bundle r, p and n for one metric/bug series pair."""
    r = pearson_r(xs, ys)
    return CorrelationResult(metric_name=metric_name, r=r, p_two_tailed=p_two_tailed(r, len(xs)), n=len(xs))


def median(values: Sequence[float]) -> float:
    """Middle value (odd n) or mean of the two middle values (even n)."""
    if not values:
        raise ValueError("median of an empty series")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def activity_ratio(n_releases: int, n_bugs: int) -> float:
    """Releases per bug fixed; the discriminator for correlation-bearing projects."""
    if n_bugs <= 0:
        raise ValueError(f"bug count must be positive, got {n_bugs}")
    return n_releases / n_bugs

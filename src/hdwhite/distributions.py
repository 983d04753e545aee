"""Reference distributions for the white-noise tests.

Closed forms only: the extreme-value limit of the squared max statistic,
the chi-square with 4 degrees of freedom used by the Fisher combination,
and the standard normal.  Survival functions are provided separately so
small upper-tail probabilities keep full precision.  Nothing here needs
more than the standard library: the normal quantile is
``statistics.NormalDist`` (the standard library's module, not
``hdwhite.statistics``), and the chi-square(4) quantile bisects the
closed-form distribution function.
"""

from __future__ import annotations

import math

from .errors import check_level

_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI
_SQRT_2 = math.sqrt(2.0)


def gumbel_cdf(y: float) -> float:
    """Limit law of the recentred squared max statistic: exp(-exp(-y/2)/sqrt(pi))."""
    return math.exp(-_INV_SQRT_PI * math.exp(-y / 2.0))


def gumbel_sf(y: float) -> float:
    """Upper tail 1 - gumbel_cdf(y), computed without cancellation."""
    return -math.expm1(-_INV_SQRT_PI * math.exp(-y / 2.0))


def gumbel_quantile(alpha: float) -> float:
    """Critical value q with gumbel_sf(q) = alpha, for alpha in (0, 1).

    Closed form: q = -2 log(-sqrt(pi) log(1 - alpha)).
    """
    alpha = check_level("alpha", alpha)
    return -2.0 * math.log(-_SQRT_PI * math.log1p(-alpha))


def chi2_4_sf(x: float) -> float:
    """Upper tail of chi-square(4): (1 + x/2) exp(-x/2) for x >= 0."""
    if x <= 0.0:
        return 1.0
    u = x / 2.0
    return (1.0 + u) * math.exp(-u)


def chi2_4_cdf(x: float) -> float:
    """Distribution function of chi-square(4): 1 - (1 + x/2) exp(-x/2)."""
    if x <= 0.0:
        return 0.0
    u = x / 2.0
    if u >= 0.5:
        return -math.expm1(-u) - u * math.exp(-u)
    # The two terms above are both about u and cancel as u -> 0, so sum
    # the series 1 - (1+u)e^-u = sum_{k>=2} (-1)^k (k-1) u^k / k! instead.
    term = total = u * u / 2.0
    k = 2
    while True:
        k += 1
        term *= -u / k
        updated = total + (k - 1) * term
        if updated == total:
            return total
        total = updated


def chi2_4_quantile(q: float) -> float:
    """Quantile of chi-square(4): the x with chi2_4_cdf(x) = q.

    Bisects ``chi2_4_cdf`` until the bracket closes on two adjacent
    doubles, and returns the upper one, the smallest double found whose
    distribution function reaches q.
    """
    q = check_level("quantile level", q)
    lo, hi = 0.0, 8.0
    while chi2_4_cdf(hi) < q:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if chi2_4_cdf(mid) < q:
            lo = mid
        else:
            hi = mid


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function via erfc."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def std_normal_sf(x: float) -> float:
    """Standard normal upper tail via erfc, accurate for large x."""
    return 0.5 * math.erfc(x / _SQRT_2)


def std_normal_quantile(q: float) -> float:
    """Standard normal quantile, from the standard library's ``NormalDist``.

    The module is imported here, not with the package: with the
    ``fractions`` and ``decimal`` modules it pulls in, it costs about
    7 ms and 0.5 MB, which only ``power-theory`` needs to pay.
    """
    from statistics import NormalDist

    q = check_level("quantile level", q)
    return NormalDist().inv_cdf(q)

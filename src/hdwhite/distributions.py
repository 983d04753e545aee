"""Reference distributions for the white-noise tests.

Closed forms only: the extreme-value limit of the squared max statistic,
the chi-square with 4 degrees of freedom used by the Fisher combination,
and the standard normal.  Survival functions are provided separately so
small upper-tail probabilities keep full precision.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import ndtri

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
    # 1 - (1+u)e^-u  =  -expm1(-u) - u e^-u, stable for small u.
    return -math.expm1(-u) - u * math.exp(-u)


def chi2_4_quantile(q: float) -> float:
    """Quantile of chi-square(4): the x with chi2_4_cdf(x) = q."""
    q = check_level("quantile level", q)
    hi = 8.0
    while chi2_4_cdf(hi) < q:
        hi *= 2.0
    return float(brentq(lambda x: chi2_4_cdf(x) - q, 0.0, hi, xtol=1e-12))


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function via erfc."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def std_normal_sf(x: float) -> float:
    """Standard normal upper tail via erfc, accurate for large x."""
    return 0.5 * math.erfc(x / _SQRT_2)


def std_normal_quantile(q: float) -> float:
    """Standard normal quantile."""
    q = check_level("quantile level", q)
    return float(ndtri(q))

"""Closed-form power calculators for the sum and max tests.

The sum test's power approximation covers a one-lag moving-average
alternative x_t = A0 z_t + A1 z_{t-1} with a single tested lag: the
statistic is asymptotically normal with mean mu_s and a variance made of
twelve polynomial trace terms in the Gram matrices of (A0, A1).  Each
term is carried separately so it can be unit-tested on its own.

The max test admits no comparable closed form; it gets a two-sided
sandwich on its power at a planted single-entry correlation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import gumbel_quantile, std_normal_cdf, std_normal_quantile
from .errors import (
    ConfigError, check_array, check_integer, check_level, check_number, check_probability,
)
from .panel import check_lag_budget

__all__ = [
    "PowerInputs",
    "SumVarianceTerms",
    "SumPowerBreakdown",
    "sum_power",
    "max_power_bounds",
    "signal_detectable",
]


@dataclass(frozen=True, eq=False)
class PowerInputs:
    """Alternative-hypothesis description for the sum-test power formula.

    a0 and a1 are finite square matrices of one shape, n an integer of at
    least 2, nu4 (the innovations' fourth moment) a finite number of at
    least 1, and alpha a level; anything else raises ``ConfigError``.
    Equality and hashing are by identity, as for any object.
    """

    a0: np.ndarray = field(repr=False)
    a1: np.ndarray = field(repr=False)
    n: int
    nu4: float
    alpha: float

    def __post_init__(self):
        a0 = check_array("a0", self.a0, square=True)
        a1 = check_array("a1", self.a1, square=True)
        if a1.shape != a0.shape:
            raise ConfigError(
                f"a0 and a1 must have equal shapes, got {a0.shape} and {a1.shape}"
            )
        check_integer("n", self.n, 2)
        if not check_number("nu4", self.nu4) >= 1.0:
            raise ConfigError(
                "nu4 must be at least 1 (Cauchy-Schwarz on a unit-variance variable), "
                f"got {self.nu4}"
            )
        check_level("alpha", self.alpha)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)


@dataclass(frozen=True)
class SumVarianceTerms:
    """The twelve summands of the sum statistic's alternative variance.

    Writing S0 = A0'A0, S1 = A1'A1, C = A0'A1, T = n, and D(.) for the
    diagonal-part matrix, the terms are:

      term_1  = (2/T^2)  tr^2(S0^2 + S1^2)
      term_2  = (6/T^2)  tr^2(S0 S1)
      term_3  = (4/T)   [2 tr((S0 S1)^2) + (nu4 - 3) tr{D^2(S0 S1)}]
      term_4  = (8/T^2)  tr(C C') tr(S0^2 + S1^2)
      term_5  = (16/T^2) tr(C S1) tr(C S0)
      term_6  = (16/T^2) tr(S0 + S1) {tr(C' C S0) + tr(C C' S1)}
      term_7  = (16/T^2) tr(C) {tr(S0^2 C') + tr(S1^2 C) + 2 tr(S1 C S0)}
      term_8  = (4/T)    tr(C' C S0^2 + C C' S1^2 + 2 C' S1 C S0)
      term_9  = (4/T)    tr(C C' C' C)
      term_10 = (12/T^2) tr^2(C C')
      term_11 = (16/T^2) tr(C) tr(C C' C')
      term_12 = (4/T^2) [tr^2(S0 C) + tr^2(S1 C)]

    Under a pure null (A1 = 0) every term except term_1 vanishes and
    term_1 reduces to the null variance (2/T^2) tr^2(S0^2).
    """

    term_1: float
    term_2: float
    term_3: float
    term_4: float
    term_5: float
    term_6: float
    term_7: float
    term_8: float
    term_9: float
    term_10: float
    term_11: float
    term_12: float

    def total(self) -> float:
        return float(sum(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class SumPowerBreakdown:
    """Sum-test power approximation with its intermediate quantities."""

    mu_s: float
    sigma_s1: float
    xi0: float
    beta_sum: float
    variance_terms: SumVarianceTerms

    def __post_init__(self):
        check_number("mu_s", self.mu_s)
        for name in ("sigma_s1", "xi0"):
            value = getattr(self, name)
            if not check_number(name, value) > 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        check_probability("beta_sum", self.beta_sum)

    def to_dict(self) -> dict:
        d = {
            "mu_s": self.mu_s,
            "sigma_s1": self.sigma_s1,
            "xi0": self.xi0,
            "beta_sum": self.beta_sum,
        }
        for f in fields(SumVarianceTerms):
            d[f.name] = getattr(self.variance_terms, f.name)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# float64's smallest normal number over its epsilon: while the largest
# variance term is at least this, every term that moves the power by an
# epsilon or more is a normal number.
_TERM_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


def _tr(m: np.ndarray) -> float:
    return float(np.trace(m))


def sum_variance_terms(
    s0: np.ndarray, s1: np.ndarray, c: np.ndarray, n: int, nu4: float
) -> SumVarianceTerms:
    """Evaluate the twelve variance summands from the Gram matrices.

    ``s0`` and ``s1`` are the lag-0 Grams A0'A0 and A1'A1, ``c`` is the
    cross Gram A0'A1.
    """
    t = float(n)
    s0sq = s0 @ s0
    s1sq = s1 @ s1
    s0s1 = s0 @ s1
    cct = c @ c.T
    ctc = c.T @ c
    diag_s0s1 = np.diagonal(s0s1)

    term_1 = (2.0 / t**2) * _tr(s0sq + s1sq) ** 2
    term_2 = (6.0 / t**2) * _tr(s0s1) ** 2
    term_3 = (4.0 / t) * (
        2.0 * _tr(s0s1 @ s0s1) + (nu4 - 3.0) * float(np.sum(diag_s0s1**2))
    )
    term_4 = (8.0 / t**2) * _tr(cct) * _tr(s0sq + s1sq)
    term_5 = (16.0 / t**2) * _tr(c @ s1) * _tr(c @ s0)
    term_6 = (16.0 / t**2) * (_tr(s0) + _tr(s1)) * (
        _tr(ctc @ s0) + _tr(cct @ s1)
    )
    term_7 = (16.0 / t**2) * _tr(c) * (
        _tr(s0sq @ c.T) + _tr(s1sq @ c) + 2.0 * _tr(s1 @ c @ s0)
    )
    term_8 = (4.0 / t) * (
        _tr(ctc @ s0sq) + _tr(cct @ s1sq) + 2.0 * _tr(c.T @ s1 @ c @ s0)
    )
    term_9 = (4.0 / t) * _tr(cct @ cct.T)
    term_10 = (12.0 / t**2) * _tr(cct) ** 2
    term_11 = (16.0 / t**2) * _tr(c) * _tr(c @ c.T @ c.T)
    term_12 = (4.0 / t**2) * (_tr(s0 @ c) ** 2 + _tr(s1 @ c) ** 2)

    return SumVarianceTerms(
        term_1, term_2, term_3, term_4, term_5, term_6,
        term_7, term_8, term_9, term_10, term_11, term_12,
    )


def sum_power(inp: PowerInputs) -> SumPowerBreakdown:
    """Asymptotic power of the sum test (single tested lag) under
    x_t = A0 z_t + A1 z_{t-1}.

    The vanishing remainder of the variance expansion is dropped, so the
    result is an approximation; the null case A1 = 0 returns exactly the
    level alpha.  Scaling A0 and A1 by one factor c leaves the power as
    it is, but scales the variance terms by c^8: a term that overflows
    float64, or a largest one below ``_TERM_FLOOR``, raises ConfigError.
    So does a nonzero pair whose truncated variance expansion is not
    positive, as it can be at small nu4, with the total and nu4 in the
    message: at nu4 = 1 (Rademacher innovations), A0 = [[-0.5, -0.5],
    [-0.5, -0.1]] and A1 = [[1.2, -0.7], [-0.9, 0.2]] at n = 1000 total
    -5.97e-4.
    """
    if not (inp.a0.any() or inp.a1.any()):
        raise ConfigError(
            "variance expansion is not positive; the alternative is degenerate "
            "(both coefficient matrices are zero?)"
        )
    n = inp.n
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s0 = inp.a0.T @ inp.a0
            s1 = inp.a1.T @ inp.a1
            c = inp.a0.T @ inp.a1
            mu_s = _tr(s0 @ s1) + (2.0 / n) * _tr(c) ** 2
            terms = sum_variance_terms(s0, s1, c, n, inp.nu4)
            xi0 = _tr(s0 @ s0 + s1 @ s1) + 2.0 * _tr(c.T @ c)
        sizes = [abs(getattr(terms, f.name)) for f in fields(terms)]
        finite = all(map(math.isfinite, [mu_s, xi0, *sizes]))
    except OverflowError:
        finite = False
    if not finite or not max(sizes) >= _TERM_FLOOR:
        raise ConfigError(
            f"the sum-test power's trace terms {'underflow' if finite else 'overflow'} "
            f"float64; scaling A0 and A1 together leaves the power unchanged, so rescale them"
        )
    var = terms.total()
    if not var > 0.0:
        raise ConfigError(
            f"the truncated variance expansion totals {var:.3e} at nu4 = {inp.nu4}, which is "
            f"not a positive variance; the approximation gives no power for this (A0, A1)"
        )
    sigma_s1 = math.sqrt(var)
    z_alpha = std_normal_quantile(1.0 - inp.alpha)
    beta = std_normal_cdf(mu_s / sigma_s1 - z_alpha * math.sqrt(2.0) * xi0 / (n * sigma_s1))
    return SumPowerBreakdown(
        mu_s=mu_s, sigma_s1=sigma_s1, xi0=xi0, beta_sum=beta, variance_terms=terms
    )


def max_power_bounds(
    rho: float, n: int, p: int, lags: int, alpha: float
) -> tuple[float, float]:
    """Sandwich on the max test's power at a planted correlation rho.

    With x_alpha = 2 log(K p^2) - log log(K p^2) + q_alpha, the power at
    a single entry of size rho is bounded below by
    Phi(sqrt(n) rho - sqrt(x_alpha)) + Phi(-sqrt(n) rho - sqrt(x_alpha))
    and above by that plus alpha.  Both ends are clipped to [0, 1].  When
    x_alpha <= 0 (small K p^2 and a large alpha), every t_max^2 >= 0
    clears it, so the test rejects every panel: both ends are 1.  rho
    is a correlation, so it must be finite with |rho| <= 1; p and n must
    be integers, and K must satisfy ``check_lag_budget`` for n rows.
    """
    check_integer("p", p, 2)
    check_integer("n", n, 2)
    check_lag_budget(n, lags)
    alpha = check_level("alpha", alpha)
    rho = check_number("rho", rho, finite=False)
    if not abs(rho) <= 1.0:
        raise ConfigError(f"rho must be a correlation in [-1, 1], got {rho}")
    log_np = math.log(lags * p * p)
    x_alpha = 2.0 * log_np - math.log(log_np) + gumbel_quantile(alpha)
    if x_alpha <= 0.0:
        return 1.0, 1.0
    root = math.sqrt(x_alpha)
    drift = math.sqrt(n) * rho
    lower = std_normal_cdf(drift - root) + std_normal_cdf(-drift - root)
    lower = min(max(lower, 0.0), 1.0)
    upper = min(lower + alpha, 1.0)
    return lower, upper


def signal_detectable(
    gammas: list[np.ndarray], n: int, b0: float
) -> bool:
    """Whether population autocorrelations clear the sparse-detection bar.

    True iff the largest |rho_ij(k)| over lags k and strictly upper
    triangular pairs i < j reaches b0 * sqrt(log p / n).  Equality counts
    as detectable.  The matrices must be square and of one shape, n an
    integer of at least 1, and b0 and every matrix entry finite.
    """
    if not gammas:
        raise ConfigError("need at least one autocorrelation matrix")
    check_integer("n", n, 1)
    check_number("b0", b0)
    mats = [
        check_array(f"autocorrelation matrix {k}", g, square=True)
        for k, g in enumerate(gammas, start=1)
    ]
    shape = mats[0].shape
    for g in mats:
        if g.shape != shape:
            raise ConfigError(
                f"autocorrelation matrices must be of one shape, got shapes {shape} and {g.shape}"
            )
    p = shape[0]
    if p < 2:
        raise ConfigError(f"p must be at least 2, got {p}")
    upper = np.triu_indices(p, k=1)
    largest = max(float(np.abs(g[upper]).max()) for g in mats)
    return largest >= b0 * math.sqrt(math.log(p) / n)

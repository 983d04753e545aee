"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (explicit
loops, plain bisection) so it shares no code path with the package.  Two
exceptions are vectorized.  ``per_lag_max_stat`` keeps an earlier form of
a statistic so that tests can demand bit-for-bit equality with it.  The
long-double oracles use numpy's own loops, which it runs for long double
in place of BLAS, so they share no product with the package either.
"""

from __future__ import annotations

import math

import numpy as np

# A float64 value checked against a long-double oracle is held to a few
# ulps: a relative error (or, for an autocorrelation, an absolute one) of
# at most this.
LONGDOUBLE_TOL = 4e-15


def brute_autocovariance(x: np.ndarray, lag: int) -> np.ndarray:
    """Entry-by-entry lag-k autocovariance with divisor n, no centering."""
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for t in range(n - lag):
                acc += x[t + lag, i] * x[t, j]
            out[i, j] = acc / n
    return out


def brute_autocorrelation(x: np.ndarray, lag: int) -> np.ndarray:
    cov0 = brute_autocovariance(x, 0)
    covk = brute_autocovariance(x, lag)
    p = cov0.shape[0]
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            out[i, j] = covk[i, j] / math.sqrt(cov0[i, i] * cov0[j, j])
    return out


def brute_max_stat(x: np.ndarray, lags: int) -> float:
    """sqrt(n) times the largest |autocorrelation| over lags 1..lags."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    largest = 0.0
    for k in range(1, lags + 1):
        corr = brute_autocorrelation(x, k)
        for row in corr:
            for value in row:
                largest = max(largest, abs(value))
    return math.sqrt(n) * largest


def per_lag_max_stat(x: np.ndarray, lags: int) -> float:
    """The max statistic in its per-lag form: a fresh lag-0 product for
    every lag, each lag scaled by the outer product of inverse roots,
    then ``abs().max()``.

    Same matmuls in the same order as the package's path for a panel that
    carries its moments, so the two must agree bit for bit there; the
    brute-force ``brute_max_stat`` checks the value.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    largest = 0.0
    for k in range(1, lags + 1):
        cov0 = x.T @ x / n
        cov0 = (cov0 + cov0.T) / 2.0
        inv_scale = 1.0 / np.sqrt(np.diagonal(cov0))
        covk = x[k:].T @ x[: n - k] / n
        corr = covk * np.outer(inv_scale, inv_scale)
        largest = max(largest, float(np.abs(corr).max()))
    return math.sqrt(n) * largest


def longdouble_autocorrelation(x: np.ndarray, lag: int) -> np.ndarray:
    """The lag-k autocorrelation matrix in long double.

    Entry (i, j) is sum_t x[t+k, i] x[t, j] over the square root of
    sum_t x[t, i]^2 sum_t x[t, j]^2, every sum formed in long double.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    n = xl.shape[0]
    scale = np.sqrt((xl * xl).sum(axis=0))
    return (xl[lag:].T @ xl[: n - lag]) / np.outer(scale, scale)


def longdouble_max_stat(x: np.ndarray, lags: int) -> np.longdouble:
    """sqrt(n) times the largest |autocorrelation| over lags 1..lags, in long double."""
    largest = max(np.abs(longdouble_autocorrelation(x, k)).max() for k in range(1, lags + 1))
    return np.sqrt(np.longdouble(x.shape[0])) * largest


def brute_sum_stat(x: np.ndarray, lags: int) -> float:
    """Quadruple-loop sum statistic: ordered pairs t != s in 1..n-l per lag."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    total = 0.0
    for l in range(1, lags + 1):
        for t in range(n - l):
            for s in range(n - l):
                if t == s:
                    continue
                total += float(x[t] @ x[s]) * float(x[t + l] @ x[s + l])
    return total / (n * (n - 1))


def brute_trace_sq(x: np.ndarray) -> float:
    """All-ordered-pairs U-statistic estimate of tr(Sigma^2)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    total = 0.0
    for t in range(n):
        for s in range(n):
            if t == s:
                continue
            total += float(x[t] @ x[s]) ** 2
    return total / (n * (n - 1))


def isserlis_centred_sum_mean(n: int, lags: int, a: float, b: float) -> float:
    """The mean of the sum statistic's lag total, sum_l S_l before the
    division by n(n-1), on n centred Gaussian rows, pair by pair.

    Centred rows have Cov(x_t, x_s) = g(t, s) Sigma with g = delta - 1/n,
    and Isserlis' theorem gives E[(x_t'x_s)(x_u'x_v)] = g(t, s) g(u, v) A
    + (g(t, u) g(s, v) + g(t, v) g(s, u)) B for A = (tr Sigma)^2 and
    B = tr Sigma^2.
    """
    def g(t, s):
        return (t == s) - 1.0 / n

    total = 0.0
    for l in range(1, lags + 1):
        for t in range(n - l):
            for s in range(n - l):
                if t == s:
                    continue
                total += (g(t, s) * g(t + l, s + l) * a
                          + (g(t, t + l) * g(s, s + l) + g(t, s + l) * g(s, t + l)) * b)
    return total


def longdouble_run_pair_sums(x: np.ndarray, lags: int, window: int):
    """SUM's sums for every run of ``window`` consecutive rows, in long double.

    For the run starting at row i, with g_ts = x_t'x_s formed in long
    double: the sum over ordered pairs t != s in the run of g_ts^2; of
    |x_t|^2 |x_s|^2 (the residue before its ``SCALE_RESOLUTION`` factor);
    and, for each lag l = 1..lags, of g_ts g_{t+l,s+l} over pairs t != s
    with t + l and s + l in the run.  Returns one (pair sum, norm pair sum,
    lag terms) per run, each a long double.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    n = xl.shape[0]
    gram = np.empty((n, n), dtype=np.longdouble)
    for t in range(n):
        for s in range(n):
            gram[t, s] = np.sum(xl[t] * xl[s])
    out = []
    for i in range(n - window + 1):
        rows = range(i, i + window)
        pair_sum = norm_pair_sum = np.longdouble(0)
        for t in rows:
            for s in rows:
                if t != s:
                    pair_sum += gram[t, s] ** 2
                    norm_pair_sum += gram[t, t] * gram[s, s]
        terms = []
        for l in range(1, lags + 1):
            term = np.longdouble(0)
            for t in range(i, i + window - l):
                for s in range(i, i + window - l):
                    if t != s:
                        term += gram[t, s] * gram[t + l, s + l]
            terms.append(term)
        out.append((pair_sum, norm_pair_sum, tuple(terms)))
    return out


def _bisect(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    assert flo * fhi <= 0.0, "bisection bracket does not straddle the root"
    for _ in range(200):
        mid = (lo + hi) / 2.0
        fm = fn(mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def bisection_gumbel_quantile(alpha: float) -> float:
    """Root of sf(q) = alpha for the extreme-value limit, by pure bisection."""

    def sf(y):
        return 1.0 - math.exp(-math.exp(-y / 2.0) / math.sqrt(math.pi))

    return _bisect(lambda y: sf(y) - alpha, -20.0, 200.0)


def bisection_chi2_4_quantile(q: float) -> float:
    """Chi-square(4) quantile by bisecting a numerically integrated CDF."""

    def density(x):
        return 0.25 * x * math.exp(-x / 2.0)

    def cdf(x, steps=20000):
        # Simpson's rule on [0, x].
        if x <= 0.0:
            return 0.0
        h = x / steps
        acc = density(0.0) + density(x)
        for i in range(1, steps):
            acc += density(i * h) * (4.0 if i % 2 else 2.0)
        return acc * h / 3.0

    return _bisect(lambda x: cdf(x) - q, 0.0, 100.0, tol=1e-11)


def lyapunov_covariance(a: np.ndarray, sz: np.ndarray) -> np.ndarray:
    """Stationary covariance of x_t = A x_{t-1} + z_t via the vec identity."""
    a = np.asarray(a, dtype=np.float64)
    p = a.shape[0]
    lhs = np.eye(p * p) - np.kron(a, a)
    vec = np.linalg.solve(lhs, np.asarray(sz, dtype=np.float64).reshape(-1))
    return vec.reshape(p, p)


def stepwise_recursion(b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows x_t = B x_{t-1} + u_t from x_{-1} = 0, one step at a time."""
    x = np.zeros(u.shape[1])
    out = np.empty_like(u)
    for t in range(u.shape[0]):
        x = b @ x + u[t]
        out[t] = x
    return out


def stepwise_alternative(scenario: str, coeff: np.ndarray, z: np.ndarray,
                         burn_in: int) -> np.ndarray:
    """Full p x p step loops for the var1, varma1 and vma1 alternatives.

    ``coeff`` is the p x p coefficient matrix and ``z`` the p-wide
    innovation rows in time order: n + 1 rows for vma1, burn_in + n for
    var1, burn_in + n + 1 for varma1.  Only the top-left block of
    ``coeff`` is nonzero, so the columns of a burn-in row outside the
    block are never read and may hold anything finite, such as zeros.
    """
    p = coeff.shape[0]
    if scenario == "vma1":
        return z[1:] + z[:-1] @ coeff.T
    if scenario == "var1":
        n = z.shape[0] - burn_in
        x = np.zeros(p)
        out = np.empty((n, p))
        for t in range(burn_in + n):
            x = coeff @ x + z[t]
            if t >= burn_in:
                out[t - burn_in] = x
        return out
    if scenario == "varma1":
        n = z.shape[0] - burn_in - 1
        half = 0.5 * coeff
        x = np.zeros(p)
        out = np.empty((n, p))
        for t in range(1, burn_in + n + 1):
            x = half @ x + z[t] + half @ z[t - 1]
            if t > burn_in:
                out[t - burn_in - 1] = x
        return out
    raise ValueError(f"no step loop for {scenario}")

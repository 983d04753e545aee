"""Reference MAX / SUM / Fisher formulas the benchmark checks outputs against.

Written from the definitions in README.md, not from hdwhite's code: MAX
standardizes columns before taking lagged products, and SUM uses the
lag-l cross products instead of the n x n Gram matrix, via

    sum_{t != s} x_t'x_s x_{t+l}'x_{s+l}
        = ||X[l:]' X[:n-l]||_F^2 - sum_t |x_t|^2 |x_{t+l}|^2.

Only numpy is imported, so a defect in hdwhite cannot leak in here.
"""

from __future__ import annotations

import math

import numpy as np

P_VALUE_FLOOR = 1e-300

# Keys of a report, in the order hdwhite's flat report uses, with the
# scale below which a value is compared absolutely instead of relatively.
REPORT_SCALES = {
    "t_max": 1e-12, "gumbel_y": 1.0, "p_max": 1e-300,
    "t_sum": None, "z": 1.0, "p_sum": 1e-300,
    "t_fc": 1.0, "p_fc": 1e-300,
}
DECISIONS = ("rej_max", "rej_sum", "rej_fc")


def max_stat(x: np.ndarray, lags: int) -> tuple[float, float, float]:
    """(t_max, gumbel_y, p_max) over lags 1..lags."""
    n, p = x.shape
    y = x / np.sqrt(np.einsum("ti,ti->i", x, x) / n)
    largest = max(
        float(np.abs(y[k:].T @ y[: n - k]).max()) / n for k in range(1, lags + 1)
    )
    t_max = math.sqrt(n) * largest
    log_np = math.log(lags * p * p)
    g = t_max * t_max - 2.0 * log_np + math.log(log_np)
    p_max = -math.expm1(-math.exp(-g / 2.0) / math.sqrt(math.pi))
    return t_max, g, p_max


def sum_stat(x: np.ndarray, lags: int) -> dict:
    """t_sum, its studentizer and p-value from lag-l cross products."""
    n = x.shape[0]
    pairs = n * (n - 1)
    sq = np.einsum("ti,ti->t", x, x)
    trace_sq = (float(np.square(x.T @ x).sum()) - float(sq @ sq)) / pairs
    total = 0.0
    for l in range(1, lags + 1):
        cross = x[l:].T @ x[: n - l]
        total += float(np.square(cross).sum()) - float(sq[l:] @ sq[: n - l])
    t_sum = total / pairs
    sigma = math.sqrt(2.0 * lags / pairs) * trace_sq
    z = t_sum / sigma
    return {"t_sum": t_sum, "sigma": sigma, "z": z, "p_sum": 0.5 * math.erfc(z / math.sqrt(2.0))}


def fisher(p_max: float, p_sum: float) -> tuple[float, float]:
    t = -2.0 * math.log(max(p_max, P_VALUE_FLOOR)) - 2.0 * math.log(max(p_sum, P_VALUE_FLOOR))
    p = 1.0 if t <= 0.0 else (1.0 + t / 2.0) * math.exp(-t / 2.0)
    return t, p


def report(x: np.ndarray, lags: int, alpha: float) -> dict:
    """All three tests on one panel, keyed like hdwhite's flat report."""
    x = np.asarray(x, dtype=np.float64)
    t_max, g, p_max = max_stat(x, lags)
    s = sum_stat(x, lags)
    t_fc, p_fc = fisher(p_max, s["p_sum"])
    return {
        "t_max": t_max, "gumbel_y": g, "p_max": p_max,
        "t_sum": s["t_sum"], "sigma": s["sigma"], "z": s["z"], "p_sum": s["p_sum"],
        "t_fc": t_fc, "p_fc": p_fc,
        "rej_max": p_max < alpha, "rej_sum": s["p_sum"] < alpha, "rej_fc": p_fc < alpha,
    }


def mismatches(got: dict, ref: dict, rel_tol: float = 1e-10) -> list[str]:
    """Names of report fields where ``got`` disagrees with ``ref``.

    Each value is compared at ``rel_tol`` relative error; below a field's
    scale the comparison is absolute at that scale (t_sum is scaled by
    its own null standard deviation, since it is centred at zero).
    """
    bad = []
    for key, floor in REPORT_SCALES.items():
        scale = ref["sigma"] if floor is None else floor
        if not abs(got[key] - ref[key]) <= rel_tol * max(abs(ref[key]), scale):
            bad.append(key)
    bad += [key for key in DECISIONS if bool(got[key]) != ref[key]]
    return bad


def ols_residuals(returns: np.ndarray, factors: np.ndarray, risk_free: np.ndarray) -> np.ndarray:
    """Excess returns minus their least-squares fit on [1, factors]."""
    excess = returns - risk_free[:, None]
    design = np.column_stack([np.ones(len(factors)), factors])
    coef, *_ = np.linalg.lstsq(design, excess, rcond=None)
    return excess - design @ coef

"""Synthetic data generators for the size and power experiments.

Null scenarios produce independent rows with a known cross-sectional
covariance; alternative scenarios put serial dependence in an m x m
top-left block through first-order autoregressive or moving-average
recursions.  Generation is deterministic given the spec, including its
seed: every random draw flows from one generator in a fixed order
(coefficient matrix first, then innovations).  Only the m x m block
carries a recursion, so only the block is computed, by recursive doubling
rather than a step loop; see ``gen_alternative_panel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Choice, ConfigError, NonstationaryDrawError, check_array, check_integer
from .linalg import psd_projection_root, sym_sqrt
from .panel import TimeSeriesPanel

# Settle-in period discarded before sampling autoregressive recursions.
BURN_IN = 300
# A drawn recursion matrix with spectral radius at or above this is
# rejected as numerically nonstationary.
SPECTRAL_RADIUS_LIMIT = 0.999


class Scenario(Choice):
    NULL_I = "null-i"        # polynomially decaying cross-correlation
    NULL_II = "null-ii"      # banded cross-correlation
    NULL_III = "null-iii"    # dense random mixing matrix, drawn per panel
    VAR1 = "var1"            # first-order autoregression in a block
    VMA1 = "vma1"            # first-order moving average in a block
    VARMA1 = "varma1"        # mixed recursion in a block

    @property
    def is_null(self) -> bool:
        return self in (Scenario.NULL_I, Scenario.NULL_II, Scenario.NULL_III)


class Innovation(Choice):
    GAUSSIAN = "gaussian"
    SHIFTED_GAMMA = "shifted-gamma"   # Gamma(4, 1/2) - 2: mean 0, variance 1


def fourth_moment(innovation: Innovation) -> float:
    """Fourth moment of one innovation coordinate (variance is 1)."""
    innovation = Innovation(innovation)
    if innovation is Innovation.GAUSSIAN:
        return 3.0
    # Gamma(shape a, scale s) shifted to mean 0: excess kurtosis 6/a.
    return 4.5


def _check_block_size(m, p: int) -> None:
    """Require an integer block size m with 1 <= m <= min(10, p)."""
    check_integer("m", m)
    if not 1 <= m <= min(10, p):
        raise ConfigError(f"m must lie in [1, min(10, p)] = [1, {min(10, p)}], got {m}")


@dataclass(frozen=True)
class DgpSpec:
    """Everything needed to generate one panel reproducibly."""

    scenario: Scenario
    innovation: Innovation
    n: int
    p: int
    seed: int
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "innovation", Innovation(self.innovation))
        check_integer("n", self.n, 10)
        check_integer("p", self.p, 2)
        check_integer("seed", self.seed, 0)
        if self.scenario.is_null:
            if self.m is not None:
                raise ConfigError(
                    f"block size m only applies to alternative scenarios, got m={self.m} "
                    f"for {self.scenario.value}"
                )
        else:
            if self.m is None:
                raise ConfigError(f"scenario {self.scenario.value} requires a block size m")
            _check_block_size(self.m, self.p)
            if self.innovation is not Innovation.GAUSSIAN:
                raise ConfigError(
                    "alternative scenarios are defined for gaussian innovations only"
                )


def make_sigma(scenario: Scenario, p: int) -> np.ndarray:
    """Cross-sectional covariance for the two deterministic null scenarios.

    null-i: unit diagonal, off-diagonal 0.5 / (i - j)^2.
    null-ii: unit diagonal, off-diagonal 0.5 when |i - j| < 5.
    """
    scenario = Scenario(scenario)
    check_integer("p", p, 2)
    idx = np.arange(p)
    gap = np.abs(idx[:, None] - idx[None, :])
    if scenario is Scenario.NULL_I:
        with np.errstate(divide="ignore"):
            sigma = 0.5 / np.square(np.where(gap == 0, 1, gap).astype(np.float64))
    elif scenario is Scenario.NULL_II:
        sigma = 0.5 * (gap < 5).astype(np.float64)
    else:
        raise ConfigError(
            f"scenario {scenario.value} has no deterministic covariance matrix"
        )
    np.fill_diagonal(sigma, 1.0)
    return sigma


_ROOT_CACHE: dict[tuple[Scenario, int], np.ndarray] = {}


def _sigma_root(scenario: Scenario, p: int) -> np.ndarray:
    key = (scenario, p)
    if key not in _ROOT_CACHE:
        sigma = make_sigma(scenario, p)
        if scenario is Scenario.NULL_II:
            # The banded matrix is indefinite once p >= 9 (its symbol dips
            # to -0.5), so no real square root exists; sample from its PSD
            # projection instead, as eigen-method normal samplers do.
            _ROOT_CACHE[key] = psd_projection_root(sigma)
        else:
            _ROOT_CACHE[key] = sym_sqrt(sigma)
    return _ROOT_CACHE[key]


def draw_innovations(
    rng: np.random.Generator, rows: int, p: int, innovation: Innovation
) -> np.ndarray:
    """Draw a rows x p block of i.i.d. innovations with mean 0, variance 1."""
    innovation = Innovation(innovation)
    if innovation is Innovation.GAUSSIAN:
        return rng.standard_normal((rows, p))
    return rng.gamma(shape=4.0, scale=0.5, size=(rows, p)) - 2.0


def gen_null_panel(spec: DgpSpec) -> TimeSeriesPanel:
    """Generate a panel of independent rows x_t = A z_t.

    For null-i and null-ii, A is the symmetric square root of the
    scenario covariance.  For null-iii, A has i.i.d. Uniform(-1, 1)
    entries drawn once per panel, before the innovations.
    """
    if not spec.scenario.is_null:
        raise ConfigError(f"{spec.scenario.value} is not a null scenario")
    rng = np.random.default_rng(spec.seed)
    if spec.scenario is Scenario.NULL_III:
        mix = rng.uniform(-1.0, 1.0, size=(spec.p, spec.p))
    else:
        mix = _sigma_root(spec.scenario, spec.p)
    z = draw_innovations(rng, spec.n, spec.p, spec.innovation)
    return TimeSeriesPanel(z @ mix.T)


# Coefficient entry ranges: (low, high) for the scalar m=1 block, and the
# half-width numerator c of Uniform(-c/m, c/m) for 2 <= m <= 10.
_COEFF_RANGES = {
    Scenario.VAR1: ((0.4, 0.8), 1.4),
    Scenario.VMA1: ((0.4, 0.9), 1.8),
    Scenario.VARMA1: ((0.4, 0.8), 1.6),
}


def make_coeff_matrix(
    scenario: Scenario, p: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the p x p coefficient matrix: an m x m top-left block, zeros elsewhere."""
    scenario = Scenario(scenario)
    if scenario.is_null:
        raise ConfigError(f"{scenario.value} has no coefficient matrix")
    _check_block_size(m, p)
    scalar_range, half_width = _COEFF_RANGES[scenario]
    coeff = np.zeros((p, p))
    if m == 1:
        coeff[0, 0] = rng.uniform(*scalar_range)
    else:
        bound = half_width / m
        coeff[:m, :m] = rng.uniform(-bound, bound, size=(m, m))
    return coeff


def _spectral_radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(a)).max())


def _run_recursion(b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows x_t = B x_{t-1} + u_t for t = 0..N-1, started from x_{-1} = 0.

    Recursive doubling: after the pass with stride s, row t holds
    sum_{k < 2s} B^k u_{t-k}, so ceil(log2 N) passes of one matmul each
    reach every lag.  This costs O(N m^2 log N) flops for an N x m
    input, in about log2 N numpy calls instead of N interpreter steps.
    """
    x = u.copy()
    power = b
    stride = 1
    while stride < x.shape[0]:
        x[stride:] += x[:-stride] @ power.T
        power = power @ power
        stride *= 2
    return x


def gen_alternative_panel(spec: DgpSpec) -> TimeSeriesPanel:
    """Generate a panel with block serial dependence.

    var1:   x_t = A x_{t-1} + z_t, started at zero and burned in.
    vma1:   x_t = z_t + A z_{t-1}, using one pre-sample innovation.
    varma1: x_t = 0.5 A x_{t-1} + z_t + 0.5 A z_{t-1}, burned in.

    The coefficient matrix is drawn first, then checked against the
    stationarity limit; a draw at or beyond it raises and the caller may
    retry with fresh randomness.  The innovations are drawn next, in
    time order: vma1 draws n + 1 rows of p.  var1 draws BURN_IN rows of
    m, then n rows of p; varma1 draws BURN_IN + 1 rows of m (the last is
    the moving-average term's pre-sample), then n rows of p.

    A is zero outside its top-left m x m block, so columns m+1..p are the
    innovations themselves and only the block is computed: one matmul for
    vma1, and for var1 and varma1 the block recursion over all
    BURN_IN + n = N steps by recursive doubling, O(N m^2 log N) flops in
    about ten numpy calls.  The burn-in rows are read only by the block,
    so they are drawn only in its m columns.  The result agrees with a
    step-by-step p x p loop to rounding, and outside the block bit for
    bit.
    """
    if spec.scenario.is_null:
        raise ConfigError(f"{spec.scenario.value} is not an alternative scenario")
    rng = np.random.default_rng(spec.seed)
    m = spec.m
    block = make_coeff_matrix(spec.scenario, spec.p, m, rng)[:m, :m]

    if spec.scenario is not Scenario.VMA1:
        recursion = block if spec.scenario is Scenario.VAR1 else 0.5 * block
        # Every eigenvalue outside the block is exactly zero.
        radius = _spectral_radius(recursion)
        if radius >= SPECTRAL_RADIUS_LIMIT:
            raise NonstationaryDrawError(
                f"drawn recursion matrix has spectral radius {radius:.4f} >= "
                f"{SPECTRAL_RADIUS_LIMIT}; redraw"
            )

    n, p = spec.n, spec.p
    if spec.scenario is Scenario.VMA1:
        z = draw_innovations(rng, n + 1, p, spec.innovation)
        out = z[1:].copy()
        out[:, :m] += z[:-1, :m] @ block.T
        return TimeSeriesPanel(out)

    # Burn-in rows feed only the block; panel rows become the output.
    lead = BURN_IN if spec.scenario is Scenario.VAR1 else BURN_IN + 1
    burn = draw_innovations(rng, lead, m, spec.innovation)
    out = draw_innovations(rng, n, p, spec.innovation)
    z = np.concatenate((burn, out[:, :m]))
    u = z if spec.scenario is Scenario.VAR1 else z[1:] + z[:-1] @ recursion.T
    out[:, :m] = _run_recursion(recursion, u)[BURN_IN:]
    return TimeSeriesPanel(out)


def gen_ma_panel(
    a0: np.ndarray,
    a1: np.ndarray,
    n: int,
    seed: int,
    innovation: Innovation = Innovation.GAUSSIAN,
) -> TimeSeriesPanel:
    """Generate x_t = A0 z_t + A1 z_{t-1} for explicit coefficient matrices.

    This is the one-lag moving average the sum-test power theory is
    stated for; it accepts any finite conformable matrices rather than the
    scenario sampler's block draws.  n must be at least 2, the fewest rows
    a panel holds.
    """
    a0 = check_array("a0", a0, square=True)
    a1 = check_array("a1", a1, square=True)
    if a0.shape != a1.shape:
        raise ConfigError(f"a0 and a1 must have equal shapes, got {a0.shape} and {a1.shape}")
    check_integer("n", n, 2)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    z = draw_innovations(rng, n + 1, a0.shape[0], innovation)
    return TimeSeriesPanel(z[1:] @ a0.T + z[:-1] @ a1.T)

"""White-noise hypothesis tests for high-dimensional time series.

Public surface: panels and their lagged sample moments, the max / sum /
Fisher-combined tests, reference distributions, theoretical power
calculators, synthetic data generators, a Monte Carlo experiment
harness, and a factor-model residual pipeline.
"""

from .distributions import (
    chi2_4_cdf,
    chi2_4_quantile,
    chi2_4_sf,
    gumbel_cdf,
    gumbel_quantile,
    gumbel_sf,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateColumnError,
    HdwhiteError,
    LagError,
    NonstationaryDrawError,
    NotPsdError,
    NotSymmetricError,
    ParseError,
)
from .dgp import (
    DgpSpec,
    Innovation,
    Scenario,
    fourth_moment,
    gen_alternative_panel,
    gen_ma_panel,
    gen_null_panel,
    make_coeff_matrix,
    make_sigma,
)
from .factor import (
    FactorData,
    SlidingWindowSummary,
    build_factor_data,
    ols_residuals,
    sliding_window_rates,
)
from .harness import (
    CellResult,
    ExperimentConfig,
    ExperimentKind,
    GridCell,
    check_output,
    emit_table,
    run_experiment,
)
from .linalg import sym_sqrt
from .panel import (
    TimeSeriesPanel,
    read_panel_csv,
    sample_autocorrelation,
    sample_autocovariance,
    write_panel_csv,
)
from .power import (
    PowerInputs,
    SumPowerBreakdown,
    SumVarianceTerms,
    max_power_bounds,
    signal_detectable,
    sum_power,
)
from .statistics import (
    MaxResult,
    SumResult,
    TestReport,
    fisher_combine,
    max_test,
    run_all,
    sum_test,
)

__version__ = "0.1.0"

__all__ = [
    "CellResult",
    "ConfigError",
    "DataError",
    "DegenerateColumnError",
    "DgpSpec",
    "ExperimentConfig",
    "ExperimentKind",
    "FactorData",
    "GridCell",
    "HdwhiteError",
    "Innovation",
    "LagError",
    "MaxResult",
    "NonstationaryDrawError",
    "NotPsdError",
    "NotSymmetricError",
    "ParseError",
    "PowerInputs",
    "Scenario",
    "SlidingWindowSummary",
    "SumPowerBreakdown",
    "SumResult",
    "SumVarianceTerms",
    "TestReport",
    "TimeSeriesPanel",
    "build_factor_data",
    "check_output",
    "chi2_4_cdf",
    "chi2_4_quantile",
    "chi2_4_sf",
    "emit_table",
    "fisher_combine",
    "fourth_moment",
    "gen_alternative_panel",
    "gen_ma_panel",
    "gen_null_panel",
    "gumbel_cdf",
    "gumbel_quantile",
    "gumbel_sf",
    "make_coeff_matrix",
    "make_sigma",
    "max_power_bounds",
    "max_test",
    "ols_residuals",
    "read_panel_csv",
    "run_all",
    "run_experiment",
    "sample_autocorrelation",
    "sample_autocovariance",
    "signal_detectable",
    "sliding_window_rates",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_sf",
    "sum_power",
    "sum_test",
    "sym_sqrt",
    "write_panel_csv",
]

"""The argument checks in ``hdwhite.errors``, and the public calls built on them."""

import functools
import math

import numpy as np
import pytest

from hdwhite.dgp import DgpSpec, Innovation, Scenario, fourth_moment, gen_ma_panel, make_sigma
from hdwhite.distributions import chi2_4_quantile, gumbel_quantile, std_normal_quantile
from hdwhite.errors import (
    ConfigError, DataError, LagError, NotSymmetricError,
    check_array, check_integer, check_level, check_number, check_probability,
)
from hdwhite.factor import FactorData, SlidingWindowSummary, sliding_window_rates
from hdwhite.harness import CellResult, ExperimentConfig, ExperimentKind, GridCell
from hdwhite.linalg import sym_sqrt
from hdwhite.panel import TimeSeriesPanel
from hdwhite.power import (
    PowerInputs, SumPowerBreakdown, SumVarianceTerms, max_power_bounds, signal_detectable,
)
from hdwhite.statistics import fisher_combine, run_all


class TestCheckInteger:
    @pytest.mark.parametrize("value", [4, np.int64(4), np.int32(4), np.uint64(4)])
    def test_integers_are_returned_as_python_ints(self, value):
        checked = check_integer("n", value, 1)
        assert type(checked) is int and checked == 4

    @pytest.mark.parametrize("value", [True, False, 4.0, 4.5, np.float64(4.0), "4", None, math.nan])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_integer("n", value)
        assert str(exc.value) == f"n must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [3, np.int64(3), 3.5, -math.inf, math.nan])
    def test_a_real_below_the_floor_is_out_of_range(self, value):
        with pytest.raises(ConfigError) as exc:
            check_integer("n", value, 4)
        assert str(exc.value) == f"n must be at least 4, got {value}"

    def test_a_fraction_above_the_floor_is_not_an_integer(self):
        with pytest.raises(ConfigError, match=r"^n must be an integer, got 4\.5$"):
            check_integer("n", 4.5, 4)

    def test_the_error_type_is_the_callers(self):
        with pytest.raises(LagError, match=r"^lag must be an integer, got True$"):
            check_integer("lag", True, error=LagError)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0.5, 2, np.float64(0.5), np.float32(0.5), np.int64(2)])
    def test_reals_are_returned_as_python_floats(self, value):
        checked = check_number("b0", value)
        assert type(checked) is float and checked == float(value)

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5], 1j])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_number("b0", value)
        assert str(exc.value) == f"b0 must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_values_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_number("b0", value)
        assert str(exc.value) == f"b0 must be finite, got {value}"

    def test_an_integer_too_large_for_a_float_is_not_finite(self):
        with pytest.raises(ConfigError, match=r"^b0 must be finite, got inf$"):
            check_number("b0", 10**400)

    def test_non_finite_values_pass_on_request(self):
        assert math.isnan(check_number("rho", math.nan, finite=False))
        with pytest.raises(ConfigError, match="must be a number"):
            check_number("rho", "nan", finite=False)


class TestCheckLevel:
    @pytest.mark.parametrize("value", [0.05, np.float64(0.05), np.float32(0.25), 1e-300])
    def test_levels_are_returned_as_python_floats(self, value):
        checked = check_level("alpha", value)
        assert type(checked) is float and checked == float(value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1, math.nan, math.inf, np.float64(1.5)])
    def test_numbers_outside_the_unit_interval_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_level("alpha", value)
        assert str(exc.value) == f"alpha must lie in (0, 1), got {value}"

    @pytest.mark.parametrize("value", [True, "0.05", None, [0.05]])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_level("alpha", value)
        assert str(exc.value) == f"alpha must be a number, got {value!r}"


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 0, 1, np.float64(0.25)])
    def test_the_closed_unit_interval_is_returned_as_python_floats(self, value):
        checked = check_probability("p_max", value)
        assert type(checked) is float and checked == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan, math.inf])
    def test_numbers_outside_it_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_probability("p_max", value)
        assert str(exc.value) == f"p_max must lie in [0, 1], got {value}"

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            check_probability("p_max", value)
        assert str(exc.value) == f"p_max must be a number, got {value!r}"


class TestCheckArray:
    def test_a_float64_array_is_returned_as_it_is(self):
        values = np.ones((3, 2))
        assert check_array("a0", values) is values

    @pytest.mark.parametrize("value", [[[1, 2], [3, 4]], np.arange(4).reshape(2, 2), [[True]]])
    def test_real_input_becomes_float64(self, value):
        checked = check_array("a0", value)
        assert checked.dtype == np.float64
        np.testing.assert_array_equal(checked, np.asarray(value, dtype=np.float64))

    def test_copy_gives_a_fresh_c_ordered_array(self):
        values = np.asfortranarray(np.ones((3, 2)))
        checked = check_array("panel", values, copy=True)
        assert checked.flags.c_contiguous and not np.shares_memory(checked, values)

    @pytest.mark.parametrize("value", [np.ones((2, 2), dtype=complex), [[1.0, 2j]]])
    def test_complex_input_is_refused(self, value):
        with pytest.raises(ConfigError, match=r"^a0 must be real, got a complex array$"):
            check_array("a0", value)

    @pytest.mark.parametrize("value", [[["a", "b"]], [[1.0, 2.0], [3.0]], [[1.0, object()]]])
    def test_an_unconvertible_value_raises_the_callers_error(self, value):
        with pytest.raises(DataError, match=r"^panel must be an array of real numbers: "):
            check_array("panel", value, DataError)


class TestChoice:
    def test_members_and_values_are_unchanged(self):
        assert [s.value for s in Scenario] == [
            "null-i", "null-ii", "null-iii", "var1", "vma1", "varma1",
        ]
        assert [i.value for i in Innovation] == ["gaussian", "shifted-gamma"]
        assert [k.value for k in ExperimentKind] == ["size", "power"]
        assert Scenario("var1") is Scenario.VAR1 and Scenario.VAR1 == "var1"

    def test_an_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ConfigError) as exc:
            Innovation("t5")
        assert str(exc.value) == (
            "unknown Innovation 't5'; known values are 'gaussian', 'shifted-gamma'"
        )

    @pytest.mark.parametrize("value", [None, 1, ["var1"]])
    def test_a_value_of_another_type_is_unknown(self, value):
        with pytest.raises(ConfigError) as exc:
            Scenario(value)
        assert str(exc.value).startswith(f"unknown Scenario {value!r}; known values are 'null-i'")


PANEL = TimeSeriesPanel(np.random.default_rng(5).standard_normal((60, 4)))
EYE = np.eye(3)
CELL = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 40, 8, 1)
TERMS = SumVarianceTerms(*[0.1] * 12)
RETURNS = np.random.default_rng(6).standard_normal((20, 3))
FACTORS = np.random.default_rng(7).standard_normal((20, 3))


def _eye_with(*entries):
    """The 3 x 3 identity with each (row, column, value) of ``entries`` written in."""
    matrix = np.eye(3)
    for row, column, value in entries:
        matrix[row, column] = value
    return matrix


# Every kind of bad array, with the message that follows the argument's
# name.  The NaN matrix also holds a later inf, and its message names the
# first of the two in row-major order, by 1-based row and column.
BAD_INPUTS = {
    "complex": (EYE + 1j, "must be real, got a complex array"),
    "text": ([["a", "b"], ["c", "d"]], "must be an array of real numbers: "),
    "ragged": ([[1.0, 0.0], [0.0]], "must be an array of real numbers: "),
    "1d": (np.ones(3), "must be 2-dimensional, got shape (3,)"),
    "3d": (np.ones((3, 3, 3)), "must be 2-dimensional, got shape (3, 3, 3)"),
    "non-square": (np.ones((3, 2)), "must be square, got shape (3, 2)"),
    "nan": (_eye_with((2, 1, np.nan), (2, 2, np.inf)),
            "contains a non-finite value at row 3, column 2"),
    "inf": (_eye_with((0, 2, -np.inf)), "contains a non-finite value at row 1, column 3"),
}

# Every array-taking public entry point: a call of the bad array, the
# name its messages give that array, whether the array must be square,
# and the error class.  Of two coefficient matrices, a0 goes by the entry
# point's name and a1 adds "-a1".
ARRAY_CALLS = {
    "panel": (TimeSeriesPanel, "panel", False, DataError),
    "from-array": (lambda a: TimeSeriesPanel.from_array(a, center=True), "panel", False,
                   DataError),
    "factor-returns": (lambda a: FactorData(a, FACTORS), "excess returns", False, DataError),
    "factor-factors": (lambda a: FactorData(RETURNS, a), "factors", False, DataError),
    "sym-sqrt": (sym_sqrt, "matrix", True, NotSymmetricError),
    "power-inputs": (lambda a: PowerInputs(a, EYE, 100, 3.0, 0.05), "a0", True, ConfigError),
    "power-inputs-a1": (lambda a: PowerInputs(EYE, a, 100, 3.0, 0.05), "a1", True,
                        ConfigError),
    "ma-panel": (lambda a: gen_ma_panel(a, EYE, 50, 1), "a0", True, ConfigError),
    "ma-panel-a1": (lambda a: gen_ma_panel(EYE, a, 50, 1), "a1", True, ConfigError),
    "detectable": (lambda a: signal_detectable([EYE, a], 100, 1.0),
                   "autocorrelation matrix 2", True, ConfigError),
}
# {entry-input id: (call, error class, message)} for every entry point
# and every bad input it can get.
ARRAY_CONTRACT = {
    f"{entry}-{kind}": (functools.partial(call, value), error, f"{name} {message}")
    for entry, (call, name, square, error) in ARRAY_CALLS.items()
    for kind, (value, message) in BAD_INPUTS.items()
    if square or kind != "non-square"
}


# Each call answered a bad value with a bare TypeError or ValueError
# before the checks moved into ``errors``; the second item is text the
# message must contain.
BAD_CALLS = {
    "run_all-alpha-str": (lambda: run_all(PANEL, 1, "0.05"), "alpha"),
    "run_all-alpha-None": (lambda: run_all(PANEL, 1, None), "alpha"),
    "sliding-alpha": (lambda: sliding_window_rates(PANEL, 20, 1, "0.05"), "alpha"),
    "power-inputs-alpha": (lambda: PowerInputs(EYE, EYE, 100, 3.0, "0.05"), "alpha"),
    "power-inputs-nu4": (lambda: PowerInputs(EYE, EYE, 100, "3", 0.05), "nu4"),
    "power-inputs-nu4-None": (lambda: PowerInputs(EYE, EYE, 100, None, 0.05), "nu4"),
    "max-bounds-alpha": (lambda: max_power_bounds(0.2, 100, 40, 1, "0.05"), "alpha"),
    "max-bounds-rho": (lambda: max_power_bounds("0.2", 100, 40, 1, 0.05), "rho"),
    "max-bounds-rho-None": (lambda: max_power_bounds(None, 100, 40, 1, 0.05), "rho"),
    "gumbel-quantile": (lambda: gumbel_quantile("0.05"), "alpha"),
    "normal-quantile": (lambda: std_normal_quantile("0.5"), "quantile level"),
    "chi2-quantile": (lambda: chi2_4_quantile("0.5"), "quantile level"),
    "detectable-b0": (lambda: signal_detectable([np.eye(4)], 100, "1"), "b0"),
    "detectable-b0-None": (lambda: signal_detectable([np.eye(4)], 100, None), "b0"),
    "fisher-p": (lambda: fisher_combine("0.5", 0.5), "p_max"),
    "dgp-scenario": (lambda: DgpSpec("null-iv", "gaussian", 40, 8, 1), "Scenario"),
    "grid-innovation": (lambda: GridCell("null-i", "t5", 40, 8, 1), "Innovation"),
    "config-kind": (lambda: ExperimentConfig("sizes", (CELL,), 5, 0.05, 1), "ExperimentKind"),
    "make-sigma-scenario": (lambda: make_sigma("x", 4), "Scenario"),
    "make-sigma-p": (lambda: make_sigma(Scenario.NULL_I, "4"), "p"),
    "fourth-moment": (lambda: fourth_moment("x"), "Innovation"),
    "ma-panel-n": (lambda: gen_ma_panel(EYE, EYE, "50", 1), "n"),
    # This raised a bare IndexError.
    "detectable-scalar": (lambda: signal_detectable([np.float64(0.3)], 100, 1.0),
                          "autocorrelation matrix 1 must be 2-dimensional, got shape ()"),
    # This raised a DataError about the panel.
    "ma-panel-one-row": (lambda: gen_ma_panel(np.eye(2), np.eye(2), 1, 0), "n must be at least 2"),
    "cell-result-rate": (lambda: CellResult(CELL, "0.5", 0.1, 0.1, 10, 0.0, 0.0, 0.0),
                         "rate_max"),
    "window-summary-count": (lambda: SlidingWindowSummary(60, 2, 0.05, "3", 0.1, 0.2, 0.15),
                             "num_windows"),
    "sum-power-sigma": (lambda: SumPowerBreakdown(1.0, "x", 1.0, 0.5, TERMS), "sigma_s1"),
    **{key: (call, message) for key, (call, error, message) in ARRAY_CONTRACT.items()
       if error is ConfigError},
}


@pytest.mark.parametrize("call, name", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_every_public_call_answers_a_bad_value_with_config_error(call, name):
    with pytest.raises(ConfigError) as exc:
        call()
    assert name in str(exc.value)
    assert isinstance(exc.value, ValueError)


# Array inputs that numpy converted by dropping the imaginary part (with
# only a ComplexWarning) or refused with a bare ValueError, and NaN or inf
# entries that were not located; each now raises the error its function
# gives for bad data, naming the first non-finite entry.
BAD_ARRAYS = {key: case for key, case in ARRAY_CONTRACT.items() if case[1] is not ConfigError}


@pytest.mark.parametrize("call, error, name", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
def test_every_array_input_answers_a_bad_array_with_data_error(call, error, name):
    with pytest.raises(error) as exc:
        call()
    assert name in str(exc.value)
    assert isinstance(exc.value, DataError)

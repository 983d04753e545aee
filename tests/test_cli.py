"""Command-line interface, driven in process through main()."""

import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from hdwhite import cli
from hdwhite.cli import main
from hdwhite.errors import ParseError
from hdwhite.factor import read_factors_csv, read_returns_csv
from hdwhite.panel import TimeSeriesPanel, read_panel_csv, write_panel_csv
from hdwhite.statistics import REPORT_COLUMNS

# The CPUs this process may run on.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.fixture
def panel_csv(tmp_path):
    rng = np.random.default_rng(60)
    panel = TimeSeriesPanel(rng.standard_normal((80, 6)))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, str(path))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTestSubcommand:
    def test_json_output(self, panel_csv, capsys):
        code, out, err = run_cli(
            capsys, "test", "--input", str(panel_csv), "--K", "2"
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert tuple(report.keys()) == REPORT_COLUMNS
        assert report["n"] == 80 and report["p"] == 6 and report["K"] == 2
        assert 0.0 <= report["p_fc"] <= 1.0
        assert report["rej_max"] in (True, False)

    def test_csv_output(self, panel_csv, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--input", str(panel_csv), "--K", "1",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == ",".join(REPORT_COLUMNS)
        cells = row.split(",")
        assert len(cells) == len(REPORT_COLUMNS)
        assert cells[0] == "80"
        assert cells[-3] in ("0", "1") and cells[-1] in ("0", "1")

    def test_header_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        panel = TimeSeriesPanel(rng.standard_normal((40, 3)))
        path = tmp_path / "headed.csv"
        write_panel_csv(panel, str(path), header=True)
        code, out, _ = run_cli(
            capsys, "test", "--input", str(path), "--K", "1", "--header"
        )
        assert code == 0
        assert json.loads(out)["n"] == 40

    def test_alpha_changes_decisions_only(self, panel_csv, capsys):
        _, strict_out, _ = run_cli(
            capsys, "test", "--input", str(panel_csv), "--K", "1",
            "--alpha", "0.99",
        )
        strict = json.loads(strict_out)
        assert strict["alpha"] == 0.99
        assert strict["rej_fc"] is True, "p-values are essentially never >= 0.99"

    def test_bad_lag_budget_is_config_error(self, panel_csv, capsys):
        code, _, err = run_cli(
            capsys, "test", "--input", str(panel_csv), "--K", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unparsable_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n7.0,8.0\n")
        code, _, err = run_cli(capsys, "test", "--input", str(path), "--K", "1")
        assert code == 3
        assert "row 2" in err

    @pytest.mark.parametrize("lags", ["1", "7"], ids=["cross", "gram"])
    def test_overflowing_panel_is_data_error(self, tmp_path, capsys, lags):
        path = tmp_path / "huge.csv"
        values = np.random.default_rng(5).standard_normal((60, 8)) * 1e80
        write_panel_csv(TimeSeriesPanel(values), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "test", "--input", str(path), "--K", lags)
        assert (code, out) == (3, "")
        assert err == (
            "error: sum-test sums overflow float64; the tests are scale-invariant, "
            "so rescale the panel\n"
        )

    def test_centring_overflow_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        values = np.random.default_rng(6).standard_normal((40, 5))
        values[[3, 9], 2] = 1e308
        write_panel_csv(TimeSeriesPanel(values), str(path))
        code, out, err = run_cli(capsys, "test", "--input", str(path), "--K", "1", "--center")
        assert (code, out) == (3, "")
        assert err == (
            "error: centring column 3 overflows float64; the tests are scale-invariant, "
            "so rescale the panel\n"
        )

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "test", "--input", str(tmp_path / "nope.csv"), "--K", "1"
        )
        assert code == 4

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--K", "1"])
        assert exc.value.code == 2


# Grid keys that turn the size config below into a power one.
POWER_CELL = {"size": {}, "power": {"scenarios": "vma1", "m": 1}}


class TestExperimentSubcommands:
    def write_config(self, tmp_path, **extra):
        raw = {
            "kind": "size",
            "scenarios": "null-i",
            "n": 30,
            "p": 5,
            "K": 1,
            "replications": 6,
            "master_seed": 17,
        }
        raw.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_size_writes_table(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "rates.csv"
        code, out, _ = run_cli(
            capsys, "size", "--config", str(cfg), "--out", str(out_path)
        )
        assert code == 0
        assert out.strip() == f"wrote 1 cells to {out_path}"
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,innovation,")
        assert len(lines) == 2

    def test_size_markdown_format(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_path = tmp_path / "rates.md"
        code, _, _ = run_cli(
            capsys, "size", "--config", str(cfg), "--out", str(out_path),
            "--format", "markdown",
        )
        assert code == 0
        assert "## null-i, gaussian innovations" in out_path.read_text()

    @pytest.mark.parametrize("kind", ["size", "power"])
    def test_without_output_path(self, tmp_path, capsys, kind):
        cfg = self.write_config(tmp_path, kind=kind, **POWER_CELL[kind])
        code, _, err = run_cli(capsys, kind, "--config", str(cfg))
        assert code == 2
        assert "no output path" in err

    @pytest.mark.parametrize("kind, other", [("size", "power"), ("power", "size")])
    def test_kind_mismatch(self, tmp_path, capsys, kind, other):
        cfg = self.write_config(tmp_path, kind=kind, **POWER_CELL[kind])
        code, _, err = run_cli(
            capsys, other, "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert f"config \"kind\" is '{kind}' but the {other} subcommand was invoked" in err

    def test_curve_is_power_only(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["size", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--curve"])
        assert exc.value.code == 2
        assert "--curve" in capsys.readouterr().err

    def test_power_curve(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, kind="power", scenarios="vma1", m=[1, 2, 3], replications=4
        )
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "power", "--config", str(cfg), "--out", str(out_path), "--curve"
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "m,rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc"
        assert len(lines) == 4

    @pytest.mark.parametrize("extra, message", [
        ({"m": [1, 3]}, "power curve is missing block sizes [2]"),
        ({"m": [1, 2], "n": [30, 40]}, "power-curve cells must share"),
    ], ids=["gap-in-m", "two-designs"])
    def test_power_curve_design_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        def must_not_run(*args):
            raise AssertionError("a replication ran before the curve design was checked")

        monkeypatch.setattr("hdwhite.harness._replicate", must_not_run)
        cfg = self.write_config(tmp_path, kind="power", scenarios="var1", **extra)
        out_path = tmp_path / "curve.csv"
        code, out, err = run_cli(
            capsys, "power", "--config", str(cfg), "--out", str(out_path), "--curve"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert not out_path.exists()

    def test_seed_override_changes_rates(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, replications=20)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "size", "--config", str(cfg), "--out", str(out_a))
        run_cli(capsys, "size", "--config", str(cfg), "--out", str(out_b),
                "--seed", "101")
        assert out_a.read_text() != out_b.read_text()

    @pytest.mark.parametrize("where", [
        "missing-parent", "parent-is-file", "path-is-dir", "read-only-parent",
        "empty", "empty-in-config",
    ])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, where):
        (tmp_path / "plain.txt").write_text("")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        if where == "read-only-parent" and os.access(locked, os.W_OK):
            pytest.skip("permission bits do not bind this user")
        out_path = {
            "missing-parent": tmp_path / "absent" / "rates.csv",
            "parent-is-file": tmp_path / "plain.txt" / "rates.csv",
            "path-is-dir": tmp_path,
            "read-only-parent": locked / "rates.csv",
            "empty": "",
            "empty-in-config": None,
        }[where]

        def must_not_run(cfg):
            raise AssertionError("the grid ran before the output path was checked")

        monkeypatch.setattr("hdwhite.cli.run_experiment", must_not_run)
        if out_path is None:
            cfg = self.write_config(tmp_path, out="")
            code, out, err = run_cli(capsys, "size", "--config", str(cfg))
        else:
            cfg = self.write_config(tmp_path)
            code, out, err = run_cli(capsys, "size", "--config", str(cfg), "--out", str(out_path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        if where.startswith("empty"):
            assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"scenarios": "null-iv"}, '"scenarios[0]": unknown Scenario \'null-iv\''),
        ({"innovations": ["gaussian", "t5"]}, '"innovations[1]": unknown Innovation \'t5\''),
        ({"p": [4, "ten"]}, '"p[1]" must be an integer, got \'ten\''),
        ({"alpha": "0.05"}, '"alpha" must be a number, got \'0.05\''),
        ({"n": [30, 40, 30]}, '"n[2]": repeated value 30'),
    ], ids=["scenario", "innovation", "p", "alpha", "repeated-n"])
    def test_bad_config_value_names_the_field(self, tmp_path, capsys, extra, message):
        cfg = self.write_config(tmp_path, **extra)
        code, out, err = run_cli(
            capsys, "size", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_invalid_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run_cli(
            capsys, "size", "--config", str(path), "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "not valid JSON" in err


class TestPowerTheorySubcommand:
    def write_matrix(self, path, matrix):
        path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"
        )

    def test_breakdown_json(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        a1_path = tmp_path / "a1.csv"
        self.write_matrix(a0_path, np.eye(5))
        self.write_matrix(a1_path, 0.3 * np.eye(5))
        code, out, _ = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a1_path),
            "--n", "200",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_sum"] == pytest.approx(0.9988652341977389, rel=1e-9)
        for i in range(1, 13):
            assert f"term_{i}" in payload
        assert payload["mu_s"] > 0.0

    def test_mismatched_matrices(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        a1_path = tmp_path / "a1.csv"
        self.write_matrix(a0_path, np.eye(3))
        self.write_matrix(a1_path, np.eye(4))
        code, _, err = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a1_path),
            "--n", "100",
        )
        assert code == 2

    def test_non_square_matrix_is_named(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        self.write_matrix(a0_path, np.ones((2, 3)))
        code, out, err = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a0_path), "--n", "100",
        )
        assert (code, out, err) == (2, "", "error: a0 must be square, got shape (2, 3)\n")

    def test_expansion_not_positive_exit_2(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        a1_path = tmp_path / "a1.csv"
        self.write_matrix(a0_path, [[-0.5, -0.5], [-0.5, -0.1]])
        self.write_matrix(a1_path, [[1.2, -0.7], [-0.9, 0.2]])
        code, out, err = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a1_path),
            "--n", "1000", "--nu4", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: the truncated variance expansion totals -5.970e-04 at nu4")

    def test_one_by_one_matrices(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        a1_path = tmp_path / "a1.csv"
        self.write_matrix(a0_path, np.eye(1))
        self.write_matrix(a1_path, 0.3 * np.eye(1))
        code, out, _ = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a1_path),
            "--n", "100",
        )
        assert code == 0
        assert 0.0 < json.loads(out)["beta_sum"] < 1.0

    @pytest.mark.parametrize(
        "scale, kind", [(1e40, "overflow"), (1e200, "overflow"), (1e-60, "underflow")]
    )
    def test_trace_terms_out_of_range_exit_2(self, tmp_path, capsys, scale, kind):
        # 1e40 printed a traceback and exited 1.
        a0_path = tmp_path / "a0.csv"
        a1_path = tmp_path / "a1.csv"
        self.write_matrix(a0_path, scale * np.eye(5))
        self.write_matrix(a1_path, 0.3 * scale * np.eye(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a1_path),
                "--n", "200",
            )
        assert code == 2 and out == ""
        assert err.startswith(f"error: the sum-test power's trace terms {kind} float64;")

    def test_bad_matrix_cell(self, tmp_path, capsys):
        a0_path = tmp_path / "a0.csv"
        a0_path.write_text("1.0,0.0\nx,1.0\n")
        code, _, err = run_cli(
            capsys, "power-theory", "--a0", str(a0_path), "--a1", str(a0_path),
            "--n", "100",
        )
        assert code == 3


class TestResidualTestSubcommand:
    def write_inputs(self, tmp_path, t=80, p=4, outlier=None):
        rng = np.random.default_rng(62)
        factors = rng.standard_normal((t, 3)).round(5)
        beta = rng.standard_normal((3, p)).round(5)
        rf = 0.01
        if outlier is not None:
            # OLS spreads an outlying month's returns over month s's residual
            # by the hat-matrix entry H[s, outlier].  Zero factors within 40
            # months of it, and its own factors solved so that H[s, outlier]
            # is zero there, keep its residual dominant in every window that
            # holds it: H[s, outlier] is proportional to e_1' A^-1 x_outlier,
            # A the design's Gram matrix without the outlying month.
            factors[outlier - 40 : outlier + 41] = 0.0
            rest = np.delete(np.column_stack([np.ones(t), factors]), outlier, axis=0)
            g = np.linalg.solve(rest.T @ rest, np.eye(4)[0])
            factors[outlier] = -g[0] * g[1:] / (g[1:] @ g[1:])
        returns = (factors @ beta + rng.standard_normal((t, p))).round(5) + rf
        if outlier is not None:
            returns[outlier] *= 1e7
        dates = [f"d{i:03d}" for i in range(t)]
        returns_path = tmp_path / "returns.csv"
        factors_path = tmp_path / "factors.csv"
        returns_path.write_text(
            "date," + ",".join(f"a{j}" for j in range(p)) + "\n"
            + "\n".join(
                dates[i] + "," + ",".join(repr(float(v)) for v in returns[i])
                for i in range(t)
            )
            + "\n"
        )
        factors_path.write_text(
            "date,market_excess,smb,hml,rf\n"
            + "\n".join(
                dates[i] + "," + ",".join(repr(float(v)) for v in factors[i])
                + f",{rf}"
                for i in range(t)
            )
            + "\n"
        )
        return returns_path, factors_path

    def test_summary_json(self, tmp_path, capsys):
        returns_path, factors_path = self.write_inputs(tmp_path)
        code, out, _ = run_cli(
            capsys, "residual-test", "--returns", str(returns_path),
            "--factors", str(factors_path), "--window", "40", "--K", "2",
            "--check-dates",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["window_length"] == 40
        assert payload["K"] == 2
        assert payload["num_windows"] == 40
        for key in ("rate_max", "rate_sum", "rate_fc"):
            assert 0.0 <= payload[key] <= 1.0

    def test_outlying_month_on_the_cross_route(self, tmp_path, capsys):
        # (K+1) p = 12 < 30, so a fresh window would take SUM's cross route,
        # whose pair sum cancels next to the month scaled by 1e7.
        returns_path, factors_path = self.write_inputs(tmp_path, t=160, outlier=80)
        code, out, err = run_cli(
            capsys, "residual-test", "--returns", str(returns_path),
            "--factors", str(factors_path), "--window", "30", "--K", "2",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["num_windows"] == 130
        for key in ("rate_max", "rate_sum", "rate_fc"):
            assert 0.0 <= payload[key] <= 1.0

    @pytest.mark.parametrize("t, p", [(300, 12), (160, 4)], ids=["gram", "cross"])
    def test_every_worker_count_prints_the_same_summary(
        self, tmp_path, capsys, started_processes, t, p
    ):
        # Window 30 at K=2: the Gram route over 270 windows in five blocks
        # of 64, the last partial, or the cross route over 130 in three.
        # Month 70, scaled by 1e7, is in windows 41-70, on both sides of
        # the first block boundary.  A run starts one helper process fewer
        # than the workers, and never more than one per block.  The
        # default count runs in the other residual-test tests.
        returns_path, factors_path = self.write_inputs(tmp_path, t=t, p=p, outlier=70)
        argv = ["residual-test", "--returns", str(returns_path), "--factors", str(factors_path),
                "--window", "30", "--K", "2", "--alpha", "0.3"]
        blocks = -(-(t - 30) // 64)
        outputs = set()
        started = []
        for workers in (1, 2, 3, 50):
            code, out, err = run_cli(capsys, *argv, "--workers", str(workers))
            assert (code, err) == (0, ""), workers
            assert multiprocessing.active_children() == []
            outputs.add(out)
            started.append(len(started_processes))
            started_processes.clear()
        assert started == [0, 1, 2, blocks - 1]
        assert len(outputs) == 1, outputs
        assert json.loads(outputs.pop())["num_windows"] == t - 30

    def test_zero_workers_is_refused_as_size_refuses_it(self, tmp_path, capsys):
        returns_path, factors_path = self.write_inputs(tmp_path)
        config = tmp_path / "size.json"
        config.write_text(json.dumps({"kind": "size", "scenarios": ["null-i"], "n": 30, "p": 4,
                                      "K": 1, "replications": 2, "master_seed": 1}))
        size = run_cli(capsys, "size", "--config", str(config), "--workers", "0",
                       "--out", str(tmp_path / "size.csv"))
        residual = run_cli(
            capsys, "residual-test", "--returns", str(returns_path),
            "--factors", str(factors_path), "--window", "40", "--K", "2", "--workers", "0",
        )
        assert size == residual == (2, "", 'error: "workers" must be at least 1, got 0\n')

    @pytest.mark.parametrize("method, workers", [("fork", None), ("spawn", 1), ("forkserver", 1)])
    def test_default_workers_follow_the_start_method(self, monkeypatch, method, workers):
        # Forked pool processes inherit the loaded package; others import it afresh.
        monkeypatch.setattr(cli.multiprocessing, "get_start_method", lambda: method)
        expected = CPUS if workers is None else workers
        assert cli._default_workers() == expected

    def test_window_longer_than_sample(self, tmp_path, capsys):
        returns_path, factors_path = self.write_inputs(tmp_path, t=30)
        code, _, err = run_cli(
            capsys, "residual-test", "--returns", str(returns_path),
            "--factors", str(factors_path), "--window", "60", "--K", "1",
        )
        assert code == 2
        assert "shorter than the panel" in err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hdwhite" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Each malformed file as a list of lines after the first: None is a blank
# line, otherwise the four cells after the leading column.  Then the
# expected (file line, column) of the error; column None for a ragged row.
GOOD = ["0.1", "0.2", "0.3", "0.4"]
MALFORMED = {
    "unparsable-after-blanks": (
        [None, None, GOOD, ["0.1", "0.2", "oops", "0.4"]], 5, 4),
    "ragged-after-blank": ([None, GOOD, ["0.1", "0.2", "0.3"]], 4, None),
    "inf": ([GOOD, ["0.1", "inf", "0.3", "0.4"]], 3, 3),
    "nan": ([GOOD, GOOD, ["0.1", "0.2", "0.3", "nan"]], 4, 5),
    # Longer than csv.field_size_limit(); the csv module names no column.
    "field-over-limit": ([GOOD, GOOD, ["0.1", "1" * 200_000, "0.3", "0.4"]], 4, None),
}


def render(lines, first, lead):
    """CSV text: ``first`` as line 1, then each row behind a ``lead`` cell."""
    out = [first]
    for cells in lines:
        out.append("" if cells is None else ",".join([lead] + cells))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_every_reader_reports_the_same_file_location(case, tmp_path, capsys):
    lines, row, column = MALFORMED[case]
    # The same layout twice: headed and dated for the factor readers,
    # all numeric for the panel and matrix readers.
    headed = tmp_path / "headed.csv"
    headed.write_text(render(lines, "date,mkt,smb,hml,rf", "2020-01-01"))
    numeric = tmp_path / "numeric.csv"
    numeric.write_text(render(lines, "1.0,2.0,3.0,4.0,5.0", "0.5"))

    messages = set()
    for reader, path in (
        (read_panel_csv, numeric),
        (read_returns_csv, headed),
        (read_factors_csv, headed),
    ):
        with pytest.raises(ParseError) as exc:
            reader(str(path))
        assert (exc.value.row, exc.value.column) == (row, column), reader.__name__
        messages.add(str(exc.value))
    code, _, err = run_cli(
        capsys, "power-theory", "--a0", str(numeric), "--a1", str(numeric),
        "--n", "100",
    )
    assert code == 3
    messages.add(err.strip().removeprefix("error: "))
    assert len(messages) == 1, messages
    location = f"(row {row})" if column is None else f"(row {row}, column {column})"
    assert messages.pop().endswith(location)

"""Monte Carlo harness: config expansion, seeding, determinism, emitters."""

import json

import numpy as np
import pytest

from hdwhite.dgp import Innovation, Scenario
from hdwhite.errors import ConfigError
from hdwhite.harness import (
    DEFAULT_POWER_REPLICATIONS,
    DEFAULT_SIZE_REPLICATIONS,
    CellResult,
    ExperimentConfig,
    ExperimentKind,
    GridCell,
    derive_seed,
    emit_power_curve,
    emit_table,
    run_experiment,
)


def small_size_config(**overrides):
    raw = {
        "kind": "size",
        "scenarios": ["null-i"],
        "n": [30],
        "p": [5],
        "K": [1],
        "replications": 40,
        "master_seed": 7,
    }
    raw.update(overrides)
    return ExperimentConfig.from_mapping(raw)


class TestConfigExpansion:
    def test_cartesian_grid_in_written_order(self):
        cfg = ExperimentConfig.from_mapping(
            {
                "kind": "size",
                "scenarios": ["null-i", "null-iii"],
                "innovations": ["gaussian", "shifted-gamma"],
                "n": [30, 40],
                "p": [5],
                "K": [1, 2],
                "replications": 5,
                "master_seed": 1,
            }
        )
        assert len(cfg.grid) == 2 * 2 * 2 * 1 * 2
        first = cfg.grid[0]
        assert (first.scenario, first.innovation, first.n, first.p, first.lags) == (
            Scenario.NULL_I,
            Innovation.GAUSSIAN,
            30,
            5,
            1,
        )
        assert cfg.grid[1].lags == 2, "innermost axis is the lag budget"
        assert cfg.grid[2].n == 40
        assert cfg.grid[4].innovation is Innovation.SHIFTED_GAMMA
        assert cfg.grid[8].scenario is Scenario.NULL_III

    def test_scalars_accepted_where_lists_expected(self):
        cfg = ExperimentConfig.from_mapping(
            {
                "kind": "size",
                "scenarios": "null-ii",
                "n": 30,
                "p": 10,
                "K": 2,
                "replications": 5,
                "master_seed": 1,
            }
        )
        assert len(cfg.grid) == 1
        assert cfg.grid[0].scenario is Scenario.NULL_II

    def test_defaults(self):
        raw = {"kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1,
               "master_seed": 3}
        cfg = ExperimentConfig.from_mapping(raw)
        assert cfg.replications == DEFAULT_SIZE_REPLICATIONS
        assert cfg.alpha == 0.05
        assert cfg.workers == 1
        assert cfg.grid[0].innovation is Innovation.GAUSSIAN
        raw_power = {"kind": "power", "scenarios": "vma1", "n": 30, "p": 5, "K": 1,
                     "m": 1, "master_seed": 3}
        assert ExperimentConfig.from_mapping(raw_power).replications == (
            DEFAULT_POWER_REPLICATIONS
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match='"reps": unknown config key'):
            small_size_config(reps=10)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match='"kind": required'):
            ExperimentConfig.from_mapping({"scenarios": "null-i", "n": 30, "p": 5, "K": 1})
        with pytest.raises(ConfigError, match='"scenarios": required'):
            ExperimentConfig.from_mapping({"kind": "size", "n": 30, "p": 5, "K": 1})
        with pytest.raises(ConfigError, match='"master_seed": required'):
            ExperimentConfig.from_mapping(
                {"kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1}
            )

    def test_seed_override_fills_missing_master_seed(self):
        cfg = ExperimentConfig.from_mapping(
            {"kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1},
            seed_override=99,
        )
        assert cfg.master_seed == 99

    def test_kind_scenario_compatibility(self):
        # Through the config file the mismatch surfaces via the block
        # size coupling; a directly built config names the grid cell.
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping(
                {"kind": "size", "scenarios": "vma1", "n": 30, "p": 5, "K": 1,
                 "master_seed": 1}
            )
        with pytest.raises(ConfigError, match=r"grid\[0\]"):
            ExperimentConfig.from_mapping(
                {"kind": "power", "scenarios": "null-i", "n": 30, "p": 5, "K": 1,
                 "m": 1, "master_seed": 1}
            )
        cell = GridCell(Scenario.VMA1, Innovation.GAUSSIAN, 30, 5, 1, m=1)
        with pytest.raises(ConfigError, match=r"grid\[0\].scenario"):
            ExperimentConfig(
                kind=ExperimentKind.SIZE, grid=(cell,), replications=5,
                alpha=0.05, master_seed=1,
            )

    def test_block_size_only_for_power(self):
        with pytest.raises(ConfigError, match='"m": only valid for power'):
            small_size_config(m=2)
        with pytest.raises(ConfigError, match='"m": required for power'):
            ExperimentConfig.from_mapping(
                {"kind": "power", "scenarios": "vma1", "n": 30, "p": 5, "K": 1,
                 "master_seed": 1}
            )

    def test_type_errors_name_the_field(self):
        with pytest.raises(ConfigError, match=r'"p\[1\]": expected an integer'):
            small_size_config(p=[5, "ten"])
        with pytest.raises(ConfigError, match='"replications": expected an integer'):
            small_size_config(replications=True)
        with pytest.raises(ConfigError, match='"alpha"'):
            small_size_config(alpha="tiny")

    def test_gamma_alternative_rejected_in_expansion(self):
        with pytest.raises(ConfigError, match=r'"grid\[0\]" \(expanded\)'):
            ExperimentConfig.from_mapping(
                {"kind": "power", "scenarios": "var1",
                 "innovations": "shifted-gamma", "n": 30, "p": 5, "K": 1,
                 "m": 1, "master_seed": 1}
            )

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1,
            "replications": 5, "master_seed": 11,
        }))
        cfg = ExperimentConfig.from_json_file(str(path))
        assert cfg.master_seed == 11
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json_file(str(bad))

    def test_lag_budget_must_fit_sample_size(self):
        with pytest.raises(ConfigError):
            GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, n=10, p=5, lags=9)


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_seed(7, 123, 0, 0) == derive_seed(7, 123, 0, 0)

    def test_distinct_across_axes(self):
        base = derive_seed(7, 123, 0, 0)
        assert derive_seed(8, 123, 0, 0) != base
        assert derive_seed(7, 124, 0, 0) != base
        assert derive_seed(7, 123, 1, 0) != base
        assert derive_seed(7, 123, 0, 1) != base

    def test_cell_keys_distinguish_fields(self):
        a = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1).key()
        b = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 2).key()
        c = GridCell(Scenario.NULL_II, Innovation.GAUSSIAN, 30, 5, 1).key()
        assert len({a, b, c}) == 3


class TestRunExperiment:
    def test_serial_repeat_is_identical(self):
        cfg = small_size_config()
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert [r.rate_max for r in first] == [r.rate_max for r in second]
        assert [r.rate_sum for r in first] == [r.rate_sum for r in second]
        assert [r.rate_fc for r in first] == [r.rate_fc for r in second]

    def test_worker_count_does_not_change_results(self, tmp_path):
        size_grid = {
            "kind": "size",
            "scenarios": ["null-i", "null-iii"],
            "n": [30],
            "p": [5, 8],
            "K": [1, 2],
            "replications": 12,
            "master_seed": 70,
        }
        power_grid = {
            "kind": "power",
            "scenarios": ["var1", "varma1", "vma1"],
            "n": [30],
            "p": [6],
            "K": [1],
            "m": [1, 3],
            "replications": 8,
            "master_seed": 71,
        }
        for raw in (size_grid, power_grid):
            serial = run_experiment(ExperimentConfig.from_mapping(raw))
            parallel = run_experiment(
                ExperimentConfig.from_mapping(raw, workers_override=2)
            )
            path_a = tmp_path / f"{raw['kind']}-serial.csv"
            path_b = tmp_path / f"{raw['kind']}-parallel.csv"
            emit_table(serial, str(path_a))
            emit_table(parallel, str(path_b))
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_replication_accounting(self):
        cfg = small_size_config(replications=17)
        results = run_experiment(cfg)
        assert [r.replications_used for r in results] == [17]

    def test_single_replication_degenerate_rates(self):
        cfg = small_size_config(replications=1)
        res = run_experiment(cfg)[0]
        for rate, se in ((res.rate_max, res.se_max), (res.rate_sum, res.se_sum),
                         (res.rate_fc, res.se_fc)):
            assert rate in (0.0, 1.0)
            assert se == 0.0

    def test_survives_nonstationary_draws(self):
        # Master seed 11 makes the first attempt of this cell draw a
        # coefficient matrix beyond the stationarity limit, forcing the
        # redraw path before any rate is tallied.
        cfg = ExperimentConfig.from_mapping(
            {
                "kind": "power",
                "scenarios": "var1",
                "n": [20],
                "p": [2],
                "K": [1],
                "m": [2],
                "replications": 3,
                "master_seed": 11,
            }
        )
        results = run_experiment(cfg)
        assert results[0].replications_used == 3

    def test_alternative_rates_exceed_null_rates(self):
        cfg = ExperimentConfig.from_mapping(
            {
                "kind": "power",
                "scenarios": "vma1",
                "n": [100],
                "p": [10],
                "K": [1],
                "m": [1],
                "replications": 60,
                "master_seed": 5,
            }
        )
        res = run_experiment(cfg)[0]
        assert res.rate_max > 0.3, f"planted scalar signal barely detected: {res.rate_max}"


class TestEmitters:
    def run_small(self):
        return run_experiment(small_size_config(replications=8))

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="refusing to emit"):
            emit_table([], str(tmp_path / "out.csv"))
        with pytest.raises(ConfigError, match="refusing to emit"):
            emit_power_curve([], str(tmp_path / "out.csv"))

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "rates.csv"
        emit_table(self.run_small(), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "scenario,innovation,n,p,K,m,replications,"
            "rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc"
        )
        row = lines[1].split(",")
        assert row[0] == "null-i" and row[1] == "gaussian"
        assert row[5] == "", "null cells leave the block-size column blank"
        assert 0.0 <= float(row[7]) <= 1.0

    def test_markdown_layout(self, tmp_path):
        raw = {
            "kind": "size",
            "scenarios": ["null-i", "null-ii"],
            "n": [30, 40],
            "p": [5],
            "K": [1, 2],
            "replications": 4,
            "master_seed": 21,
        }
        results = run_experiment(ExperimentConfig.from_mapping(raw))
        path = tmp_path / "rates.md"
        emit_table(results, str(path), format="markdown")
        text = path.read_text()
        assert "## null-i, gaussian innovations" in text
        assert "## null-ii, gaussian innovations" in text
        header = next(l for l in text.splitlines() if l.startswith("| n |"))
        assert header == (
            "| n | p | K=1 MAX | K=1 SUM | K=1 FC | K=2 MAX | K=2 SUM | K=2 FC |"
        )
        rows = [l for l in text.splitlines() if l.startswith("| 30 |")]
        assert len(rows) == 2, "one row per (n, p) in each scenario block"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            emit_table(self.run_small(), str(tmp_path / "x"), format="tsv")

    def test_power_curve_layout(self, tmp_path):
        raw = {
            "kind": "power",
            "scenarios": "vma1",
            "n": [30],
            "p": [6],
            "K": [1],
            "m": [3, 1, 2],
            "replications": 6,
            "master_seed": 9,
        }
        results = run_experiment(ExperimentConfig.from_mapping(raw))
        path = tmp_path / "curve.csv"
        emit_power_curve(results, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3"], (
            "rows must be sorted by block size"
        )

    def test_power_curve_missing_block_sizes(self, tmp_path):
        raw = {
            "kind": "power",
            "scenarios": "vma1",
            "n": [30],
            "p": [6],
            "K": [1],
            "m": [1, 3],
            "replications": 4,
            "master_seed": 9,
        }
        results = run_experiment(ExperimentConfig.from_mapping(raw))
        with pytest.raises(ConfigError, match=r"missing block sizes \[2\]"):
            emit_power_curve(results, str(tmp_path / "curve.csv"))

    def test_power_curve_mixed_designs(self, tmp_path):
        raw = {
            "kind": "power",
            "scenarios": "vma1",
            "n": [30, 40],
            "p": [6],
            "K": [1],
            "m": [1],
            "replications": 4,
            "master_seed": 9,
        }
        results = run_experiment(ExperimentConfig.from_mapping(raw))
        with pytest.raises(ConfigError, match="must share"):
            emit_power_curve(results, str(tmp_path / "curve.csv"))


class TestCellResult:
    def test_from_counts(self):
        cell = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1)
        res = CellResult.from_counts(cell, (2, 5, 3), 10)
        assert res.rate_max == 0.2
        assert res.rate_sum == 0.5
        assert res.se_sum == pytest.approx(np.sqrt(0.25 / 10), rel=1e-12)

    def test_rate_bounds_checked(self):
        cell = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1)
        with pytest.raises(ConfigError):
            CellResult(cell, 1.2, 0.1, 0.1, 10, 0.0, 0.0, 0.0)

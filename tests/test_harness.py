"""Monte Carlo harness: config expansion, seeding, determinism, emitters."""

import functools
import json
import multiprocessing
import operator
import os
import re
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from hdwhite import harness
from hdwhite.dgp import Innovation, Scenario
from hdwhite.errors import ConfigError, DataError
from hdwhite.harness import (
    DEFAULT_POWER_REPLICATIONS,
    DEFAULT_SIZE_REPLICATIONS,
    CellResult,
    ExperimentConfig,
    ExperimentKind,
    GridCell,
    derive_seed,
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
        with pytest.raises(ConfigError, match=r'"p\[1\]" must be an integer'):
            small_size_config(p=[5, "ten"])
        with pytest.raises(ConfigError, match='"replications" must be an integer'):
            small_size_config(replications=True)
        with pytest.raises(ConfigError, match='"alpha"'):
            small_size_config(alpha="tiny")

    @pytest.mark.parametrize("key, values, message", [
        ("scenarios", ["vma1", "var1", "vma1"], '"scenarios[2]": repeated value \'vma1\''),
        ("innovations", ["gaussian", "gaussian"], '"innovations[1]": repeated value \'gaussian\''),
        ("n", [30, 40, 30], '"n[2]": repeated value 30'),
        ("p", [5, 5], '"p[1]": repeated value 5'),
        ("K", [1, 2, 2], '"K[2]": repeated value 2'),
        ("m", [1, 1, 2], '"m[1]": repeated value 1'),
    ], ids=["scenarios", "innovations", "n", "p", "K", "m"])
    def test_repeated_list_value_names_the_key_and_index(self, key, values, message):
        # A repeated value would run the same cell twice with the same seeds.
        raw = {"kind": "power", "scenarios": "vma1", "n": 30, "p": 5, "K": 1, "m": 1,
               "master_seed": 1, key: values}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_mapping(raw)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("field, value", [
        ("n", 40.5), ("p", 4.0), ("m", 2.0), ("n", True),
    ])
    def test_grid_cell_sizes_must_be_integers(self, field, value):
        fields = dict(scenario=Scenario.VMA1, innovation=Innovation.GAUSSIAN,
                      n=40, p=5, lags=1, m=2)
        fields[field] = value
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            GridCell(**fields)

    @pytest.mark.parametrize("field, value", [
        ("replications", True), ("replications", 2.5), ("replications", "5"),
        ("workers", 2.5), ("workers", True), ("master_seed", 1.5), ("master_seed", False),
    ])
    def test_direct_config_integers_are_typed(self, field, value):
        # The same check, and message, whether the config comes from a
        # mapping or is built directly.
        cell = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1)
        fields = dict(kind=ExperimentKind.SIZE, grid=(cell,), replications=5,
                      alpha=0.05, master_seed=1, workers=1)
        fields[field] = value
        message = f'"{field}" must be an integer, got {value!r}'
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**fields)
        assert str(exc.value) == message
        raw = {"kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1,
               "replications": 5, "master_seed": 1, "workers": 1, field: value}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_mapping(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, key, value, expected", [
        ("alpha", "alpha", "0.05", "a number"), ("alpha", "alpha", None, "a number"),
        ("alpha", "alpha", [0.05], "a number"), ("alpha", "alpha", True, "a number"),
        ("out_path", "out", 5, "a string path"), ("out_path", "out", ["x.csv"], "a string path"),
    ])
    def test_direct_config_alpha_and_out_are_typed(self, field, key, value, expected):
        cell = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1)
        fields = dict(kind=ExperimentKind.SIZE, grid=(cell,), replications=5,
                      alpha=0.05, master_seed=1, workers=1)
        fields[field] = value
        message = f'"{key}" must be {expected}, got {value!r}'
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**fields)
        assert str(exc.value) == message
        raw = {"kind": "size", "scenarios": "null-i", "n": 30, "p": 5, "K": 1,
               "replications": 5, "master_seed": 1, key: value}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_mapping(raw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("grid, key", [
        (None, "grid"), (GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1), "grid"),
        (5, "grid"), ([{"scenario": "null-i"}], "grid[0]"),
        ((GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1), "null-i"), "grid[1]"),
        ([None], "grid[0]"),
    ], ids=["none", "one-cell", "int", "dict", "string", "none-cell"])
    def test_direct_config_grid_is_typed(self, grid, key):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(kind=ExperimentKind.SIZE, grid=grid, replications=5,
                             alpha=0.05, master_seed=1)
        expected = "a sequence of GridCell" if key == "grid" else "a GridCell"
        assert str(exc.value).startswith(f'"{key}" must be {expected}, got ')

    def test_direct_config_alpha_is_a_float(self):
        cell = GridCell(Scenario.NULL_I, Innovation.GAUSSIAN, 30, 5, 1)
        cfg = ExperimentConfig(ExperimentKind.SIZE, (cell,), 5, np.float32(0.25), 1)
        assert type(cfg.alpha) is float and cfg.alpha == 0.25

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

    # Cells of unequal cost (p = 4 against p = 40, var1 against vma1,
    # m = 1 against 5), 33 replications each.
    SIZE_GRID = {
        "kind": "size", "scenarios": ["null-i", "null-ii", "null-iii"],
        "n": 40, "p": [4, 20, 40], "K": 2, "replications": 33, "master_seed": 70,
    }
    POWER_GRID = {
        "kind": "power", "scenarios": ["var1", "varma1", "vma1"],
        "n": 40, "p": 12, "K": 1, "m": [1, 2, 4], "replications": 33, "master_seed": 71,
    }
    CURVE_GRID = {
        "kind": "power", "scenarios": "var1",
        "n": 40, "p": 12, "K": 1, "m": [1, 2, 3, 4, 5], "replications": 33, "master_seed": 72,
    }

    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch):
        # Where pool workers are forked, every replication logs its cell and
        # process, to show that some cell's replications ran on more than
        # one worker, so that the per-worker tallies really merge.
        forked = multiprocessing.get_start_method() == "fork"
        if forked:
            monkeypatch.setattr(harness, "_replicate", _logged_replicate)
        this = sys.modules[__name__]
        for raw in (self.SIZE_GRID, self.POWER_GRID, self.CURVE_GRID):
            outputs = []
            for workers in (1, 2, 3):
                log = tmp_path / f"{raw['master_seed']}-{workers}.log"
                monkeypatch.setattr(this, "_RAN_LOG", str(log))
                cfg = ExperimentConfig.from_mapping(raw, workers_override=workers)
                results = run_experiment(cfg)
                if forked and workers > 1:
                    processes = {}
                    for line in log.read_text().splitlines():
                        key, pid = line.split()
                        processes.setdefault(key, set()).add(pid)
                    assert len(processes) == len(cfg.grid)
                    assert max(map(len, processes.values())) > 1, (
                        f"no cell ran on more than one of {workers} workers"
                    )
                paths = [tmp_path / f"{workers}.csv", tmp_path / f"{workers}.md"]
                emit_table(results, str(paths[0]))
                emit_table(results, str(paths[1]), format="markdown")
                if raw is self.CURVE_GRID:
                    paths.append(tmp_path / f"{workers}-curve.csv")
                    emit_table(results, str(paths[2]), format="curve")
                outputs.append([path.read_bytes() for path in paths])
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], raw["kind"]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawned_workers_share_the_counter(self, method):
        # Helpers that are not forked get the counter, the task and their
        # pipe pickled, as process arguments.  Python 3.14 starts processes
        # by forkserver on Linux, and spawn is the default elsewhere.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        serial = run_experiment(small_size_config(p=[4, 5], replications=12))
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            pooled = run_experiment(small_size_config(p=[4, 5], replications=12, workers=2))
        finally:
            multiprocessing.set_start_method(previous, force=True)
        assert pooled == serial
        assert multiprocessing.active_children() == []

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


# Pool workers see a patched module attribute only if they are forked
# after the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patches reach pool workers only under the fork start method",
)

# Set by a test before its pool forks: the file each replication appends
# a line to, so the parent can count the replications that ran and see
# where they ran, and the key of the one cell whose replications run
# without sleeping.
_RAN_LOG = None
_FAST_KEY = None
SLOW_SECONDS = 0.3
FAILING_REP = 3
_REAL_REPLICATE = harness._replicate
# The test process: run_experiment claims jobs in it too, so a patched
# replication tells by its pid whether a pool worker runs it.
_PARENT_PID = os.getpid()
# The replications logged when the parent interrupted itself.
_INTERRUPTED_AT = []
# The claim counter, as _recording_claims last saw it in this process.
_COUNTER = None
_REAL_CLAIM_JOBS = harness._claim_jobs


def _in_worker():
    return os.getpid() != _PARENT_PID


def _log_replication(cell_key):
    with open(_RAN_LOG, "a") as fh:
        fh.write(f"{cell_key} {os.getpid()}\n")


def _logged_replicate(cell, cell_key, rep, master_seed, alpha):
    _log_replication(cell_key)
    return _REAL_REPLICATE(cell, cell_key, rep, master_seed, alpha)


def _job_replicate(cell, cell_key, rep, master_seed, alpha):
    with open(_RAN_LOG, "a") as fh:
        fh.write(f"{cell_key} {rep}\n")
    return (True, False, True)


def _failing_replicate(cell, cell_key, rep, master_seed, alpha):
    _log_replication(cell_key)
    if cell_key == _FAST_KEY and rep == FAILING_REP:
        raise DataError(f"replication {rep} fails")
    if cell_key != _FAST_KEY or rep > FAILING_REP:
        time.sleep(SLOW_SECONDS)
    return (False, False, False)


def _late_failing_replicate(cell, cell_key, rep, master_seed, alpha):
    with open(_RAN_LOG, "a") as fh:
        fh.write(f"{rep} {'worker' if _in_worker() else 'parent'}\n")
    if _in_worker():
        time.sleep(2 * SLOW_SECONDS)
    elif rep == 0:
        time.sleep(SLOW_SECONDS)
        return (False, False, False)
    raise DataError(f"replication {rep} fails")


def _interrupted_replicate(cell, cell_key, rep, master_seed, alpha):
    _log_replication(cell_key)
    if _in_worker():
        time.sleep(SLOW_SECONDS)
        return (False, False, False)
    # Wait until both processes of a 2-worker run have started a job.
    deadline = time.monotonic() + 30
    while _ran(Path(_RAN_LOG)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    _INTERRUPTED_AT.append(_ran(Path(_RAN_LOG)))
    raise KeyboardInterrupt


def _dying_replicate(cell, cell_key, rep, master_seed, alpha):
    if _in_worker():
        os._exit(1)
    _log_replication(cell_key)
    time.sleep(SLOW_SECONDS / 10)
    return (False, False, False)


def _recording_claims(counter, task, end, stopped=lambda: False):
    global _COUNTER
    _COUNTER = counter
    return _REAL_CLAIM_JOBS(counter, task, end, stopped)


def _locking_dying_replicate(cell, cell_key, rep, master_seed, alpha):
    if _in_worker():
        _COUNTER.get_lock().acquire()
        _log_replication(cell_key)
        time.sleep(SLOW_SECONDS)
        os._exit(1)
    # Return once the worker holds the lock, so that the next claim waits.
    deadline = time.monotonic() + 30
    while _ran(Path(_RAN_LOG)) < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return (False, False, False)


# How long the surviving helper of test_a_dead_helper_ends_the_survivor
# sleeps in its job: the parent must not wait that long.
SURVIVOR_SECONDS = 20
# Bytes in each result of a helper that outgrows its pipe's 64 KiB.
BIG_RESULT = 100_000


def _one_helper_dies(job):
    died = Path(_RAN_LOG + ".died")
    if not _in_worker():
        # Hold this process's first job until a helper has died, so that
        # both helpers get a job whatever their start-up times.
        deadline = time.monotonic() + 10
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return job
    try:  # the first helper to get here sleeps in its job; the other dies
        open(_RAN_LOG, "x").close()
    except FileExistsError:
        died.touch()
        os._exit(1)
    time.sleep(SURVIVOR_SECONDS)
    return job


def _big_results_then_interrupt(job):
    started = Path(_RAN_LOG + ".parent")
    deadline = time.monotonic() + 10
    if _in_worker():
        # Hold each job until this process has one, so that the helper
        # cannot claim all 4 and send its results before this process
        # claims any, which then returns them with no interrupt.
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        with open(_RAN_LOG, "a") as fh:
            fh.write(f"{job}\n")
        return bytes(BIG_RESULT)
    started.touch()
    # Wait until the helper has run the other 3 of 4 jobs and so is
    # sending its results, then interrupt this process.
    while _ran(Path(_RAN_LOG)) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(SLOW_SECONDS)
    raise KeyboardInterrupt


def _unpicklable_in_helper(job):
    if _in_worker():
        with open(_RAN_LOG, "a") as fh:
            fh.write(f"{job}\n")
        return lambda: job
    # Hold this process's first job until the helper has run one, so that
    # the helper has results to send whatever its start-up time.
    deadline = time.monotonic() + 10
    while _ran(Path(_RAN_LOG)) < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return job


def _ran(path):
    return len(path.read_text().splitlines()) if path.exists() else 0


def _raised_within(seconds, call, why):
    """The exceptions ``call()`` raises in a thread that must end within ``seconds``."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    if thread.is_alive():
        for process in multiprocessing.active_children():
            process.terminate()
        pytest.fail(why)
    return raised


class TestSchedule:
    """Jobs claimed one at a time from a counter: pool size, merging and errors."""

    # 8 cells of 10 replications at 2 workers.
    GRID = {"scenarios": ["null-i", "null-ii"], "p": [4, 5], "K": [1, 2],
            "replications": 10, "workers": 2}

    def test_pool_starts_one_process_per_job_at_most(self, started_processes):
        # The calling process runs jobs too, so it starts one helper process
        # fewer than the workers that run jobs.
        started = []

        def run(**overrides):
            results = run_experiment(small_size_config(**overrides))
            started.append(len(started_processes))
            started_processes.clear()
            return results

        serial = run(replications=3)
        assert started == [0], "one worker starts no process"
        pooled = run(replications=3, workers=8)
        assert started == [0, 2], "3 jobs start 2 helpers beside this process"
        assert pooled == serial
        run(p=[4, 5], replications=2, workers=8)
        assert started == [0, 2, 3], "jobs are counted over the whole grid"
        run(replications=3, workers=2)
        assert started == [0, 2, 3, 1], "2 workers are this process and 1 helper"
        run(replications=1, workers=8)
        assert started == [0, 2, 3, 1, 0], "a single job runs in process"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_job_order(self, workers):
        # run_jobs, which run_experiment and the sliding windows share.
        results = harness.run_jobs(functools.partial(operator.mul, 3), 40, workers)
        assert results == [3 * job for job in range(40)]
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_first_error_is_the_serial_one(self, monkeypatch):
        # With one draw allowed, the n=20 var1 cell of
        # test_survives_nonstationary_draws fails at replication 0, the
        # n=25 cell at its last replication and the n=30 cell at
        # replication 2.  In a pool the n=20 chunk can fail first, but a
        # serial run meets the n=25 failure first.
        monkeypatch.setattr(harness, "MAX_REDRAWS", 1)
        raw = {
            "kind": "power", "scenarios": "var1",
            "n": [25, 20, 30], "p": [2], "K": [1], "m": [2], "replications": 12,
            "master_seed": 11,
        }
        first = GridCell(Scenario("var1"), Innovation.GAUSSIAN, 25, 2, 1, 2).key()
        expected = f"exceeded 1 coefficient redraws for cell key {first}, replication 11"
        for workers in (1, 2, 3):
            cfg = ExperimentConfig.from_mapping(raw, workers_override=workers)
            with pytest.raises(DataError) as exc:
                run_experiment(cfg)
            assert str(exc.value) == expected
            assert multiprocessing.active_children() == []

    @needs_fork
    def test_lowest_failing_job_wins(self, monkeypatch, tmp_path):
        # In this process job 0 passes after SLOW_SECONDS and every other
        # job fails at once; in the pool worker every job fails after
        # 2 * SLOW_SECONDS.  So this process's second job fails first, and
        # the worker's lower job, claimed before it, fails later and wins.
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        monkeypatch.setattr(harness, "_replicate", _late_failing_replicate)
        with pytest.raises(DataError) as exc:
            run_experiment(small_size_config(**self.GRID))
        ran = dict(line.split() for line in log.read_text().splitlines())
        failed = sorted(int(rep) for rep, where in ran.items()
                        if where == "worker" or rep != "0")
        assert len(failed) == 2 and ran[str(failed[0])] == "worker", ran
        assert str(exc.value) == f"replication {failed[0]} fails"
        assert "in _late_failing_replicate" in str(exc.value.__cause__), (
            "the worker's traceback is the cause"
        )
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_failing_replication_stops_the_claims(self, monkeypatch, tmp_path):
        # Replication FAILING_REP of the first cell fails at once; the ones
        # before it run at once and every later one takes SLOW_SECONDS.
        # Jobs are claimed in order, so jobs 0..FAILING_REP ran, and the
        # failure moves the counter to the end while the other worker is
        # inside the one slow job it claimed: at most FAILING_REP + workers
        # replications run, and all 80 if the failure did not stop claims.
        cfg = small_size_config(**self.GRID)
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        monkeypatch.setattr(this, "_FAST_KEY", cfg.grid[0].key())
        monkeypatch.setattr(harness, "_replicate", _failing_replicate)
        with pytest.raises(DataError, match=f"replication {FAILING_REP} fails"):
            run_experiment(cfg)
        ran = _ran(log)
        assert FAILING_REP < ran <= FAILING_REP + cfg.workers, f"{ran} of 80 replications ran"
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_parent_exit_stops_the_claims(self, monkeypatch, tmp_path):
        # The pool worker's replications take SLOW_SECONDS.  The parent is
        # interrupted inside its own first job, once the worker has started
        # one too; its exit moves the counter to the end, so the worker
        # claims at most one more job, where without the stop it would run
        # the other 78.
        cfg = small_size_config(**self.GRID)
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        monkeypatch.setattr(this, "_INTERRUPTED_AT", [])
        monkeypatch.setattr(harness, "_replicate", _interrupted_replicate)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        ran, seen = _ran(log), this._INTERRUPTED_AT
        assert len(seen) == 1, "the parent stops at its first interrupt"
        assert cfg.workers <= seen[0] <= ran <= seen[0] + cfg.workers, (
            f"{ran} of 80 replications ran, {seen[0]} when the parent stopped"
        )
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_every_job_runs_once_under_contention(self, monkeypatch, tmp_path):
        # More workers than cores claim 1200 jobs that each take tens of
        # microseconds, so claims contend for the counter's lock: a lost
        # update would run a job twice or skip one.
        workers = min(os.cpu_count() or 1, 14) + 2
        cfg = small_size_config(p=[4, 5, 6], replications=400, workers=workers)
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        monkeypatch.setattr(harness, "_replicate", _job_replicate)
        results = run_experiment(cfg)
        expected = sorted(f"{cell.key()} {rep}" for cell in cfg.grid for rep in range(400))
        assert sorted(log.read_text().splitlines()) == expected
        assert [(r.rate_max, r.rate_sum, r.rate_fc) for r in results] == [(1.0, 0.0, 1.0)] * 3

    @needs_fork
    def test_dead_worker_breaks_the_pool(self, monkeypatch, tmp_path):
        # A worker that dies holds no result; the parent must raise rather
        # than wait for it, and must not run the rest of the grid alone
        # first: its jobs take SLOW_SECONDS / 10, so all 80 take 2.4 s.
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        monkeypatch.setattr(harness, "_replicate", _dying_replicate)
        with pytest.raises(BrokenProcessPool):
            run_experiment(small_size_config(**self.GRID))
        assert _ran(log) < 40, f"the parent ran {_ran(log)} of 80 jobs past a dead worker"
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_claims_give_up_a_lock_held_by_a_dead_worker(self, monkeypatch, tmp_path):
        # The helper takes the counter's lock in its first job, and dies
        # holding it while the parent waits for it to claim its second.
        # That claim must end once the helper is dead instead of waiting
        # for the lock forever.
        this = sys.modules[__name__]
        monkeypatch.setattr(this, "_RAN_LOG", str(tmp_path / "ran"))
        monkeypatch.setattr(this, "_COUNTER", None)
        monkeypatch.setattr(harness, "_claim_jobs", _recording_claims)
        monkeypatch.setattr(harness, "_replicate", _locking_dying_replicate)
        raised = _raised_within(
            60, lambda: run_experiment(small_size_config(**self.GRID)),
            "the parent waits for a lock no one will release",
        )
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool), raised
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_dead_helper_ends_the_survivor(self, monkeypatch, tmp_path):
        # At 3 workers, the first helper to start a job sleeps in it for
        # SURVIVOR_SECONDS, and the other dies once it has.  The parent must
        # raise at once and end the sleeping helper rather than join it.
        this = sys.modules[__name__]
        monkeypatch.setattr(this, "_RAN_LOG", str(tmp_path / "sleeper"))
        raised = _raised_within(
            SURVIVOR_SECONDS / 2, lambda: harness.run_jobs(_one_helper_dies, 40, 3),
            "the parent waits for the surviving helper's job",
        )
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool), raised
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_unpicklable_results_raise_the_pickling_error(self, monkeypatch, tmp_path):
        # The helper's results are lambdas, which do not pickle.  Its send
        # fails, and the pickling error, not a broken pool, is raised, with
        # the helper's traceback as its cause.
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        with pytest.raises(Exception) as exc:
            harness.run_jobs(_unpicklable_in_helper, 8, 2)
        assert not isinstance(exc.value, BrokenProcessPool)
        assert "pickle" in str(exc.value), exc.value
        assert isinstance(exc.value.__cause__, harness._RemoteTraceback)
        assert "in _helper" in str(exc.value.__cause__)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_an_interrupt_ends_a_helper_blocked_on_its_results(self, monkeypatch, tmp_path):
        # The helper runs 3 of 4 jobs and then sends 300 kB of results
        # into a pipe that holds 64 KiB, while the parent, in its one job,
        # waits for that and is interrupted.  The parent never reads those
        # results, so it must end the helper rather than wait for it.
        this = sys.modules[__name__]
        log = tmp_path / "ran"
        monkeypatch.setattr(this, "_RAN_LOG", str(log))
        raised = _raised_within(
            30, lambda: harness.run_jobs(_big_results_then_interrupt, 4, 2),
            "the parent waits for a helper blocked on a full pipe",
        )
        assert len(raised) == 1 and isinstance(raised[0], KeyboardInterrupt), raised
        assert _ran(log) == 3
        assert multiprocessing.active_children() == []


class TestEmitters:
    def run_small(self):
        return run_experiment(small_size_config(replications=8))

    def test_empty_results_rejected(self, tmp_path):
        for format in harness.FORMATS:
            with pytest.raises(ConfigError, match="refusing to emit an empty result table"):
                emit_table([], str(tmp_path / "out.csv"), format=format)
        assert not (tmp_path / "out.csv").exists()

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

    # Every format's bytes for two fixed result lists: size cells over two
    # scenario blocks and two lag counts, and one curve design written in
    # the block-size order 2, 1, 3.
    GOLDEN_SIZE = [
        CellResult.from_counts(GridCell("null-i", "gaussian", 30, 5, 1), (1, 2, 0), 6),
        CellResult.from_counts(GridCell("null-i", "gaussian", 40, 5, 2), (0, 6, 3), 6),
        CellResult.from_counts(GridCell("null-ii", "shifted-gamma", 30, 5, 2), (5, 1, 2), 6),
    ]
    GOLDEN_CURVE = [
        CellResult.from_counts(GridCell("vma1", "gaussian", 30, 6, 1, m), counts, 7)
        for m, counts in ((2, (3, 4, 4)), (1, (1, 1, 0)), (3, (7, 6, 7)))
    ]
    GOLDEN = {
        ("size", "csv"):
            b"scenario,innovation,n,p,K,m,replications,"
            b"rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc\r\n"
            b"null-i,gaussian,30,5,1,,6,0.16666666666666666,0.3333333333333333,0.0,"
            b"0.15214515486254615,0.19245008972987526,0.0\r\n"
            b"null-i,gaussian,40,5,2,,6,0.0,1.0,0.5,0.0,0.0,0.2041241452319315\r\n"
            b"null-ii,shifted-gamma,30,5,2,,6,0.8333333333333334,0.16666666666666666,"
            b"0.3333333333333333,0.15214515486254612,0.15214515486254615,0.19245008972987526\r\n",
        ("size", "markdown"):
            b"## null-i, gaussian innovations\n\n"
            b"| n | p | K=1 MAX | K=1 SUM | K=1 FC | K=2 MAX | K=2 SUM | K=2 FC |\n"
            b"|---|---|---|---|---|---|---|---|\n"
            b"| 30 | 5 | 0.167 | 0.333 | 0.000 |  |  |  |\n"
            b"| 40 | 5 |  |  |  | 0.000 | 1.000 | 0.500 |\n\n"
            b"## null-ii, shifted-gamma innovations\n\n"
            b"| n | p | K=1 MAX | K=1 SUM | K=1 FC | K=2 MAX | K=2 SUM | K=2 FC |\n"
            b"|---|---|---|---|---|---|---|---|\n"
            b"| 30 | 5 |  |  |  | 0.833 | 0.167 | 0.333 |\n",
        ("curve", "csv"):
            b"scenario,innovation,n,p,K,m,replications,"
            b"rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc\r\n"
            b"vma1,gaussian,30,6,1,2,7,0.42857142857142855,0.5714285714285714,"
            b"0.5714285714285714,0.1870439059165649,0.1870439059165649,0.1870439059165649\r\n"
            b"vma1,gaussian,30,6,1,1,7,0.14285714285714285,0.14285714285714285,0.0,"
            b"0.13226001425322165,0.13226001425322165,0.0\r\n"
            b"vma1,gaussian,30,6,1,3,7,1.0,0.8571428571428571,1.0,0.0,0.13226001425322165,0.0\r\n",
        ("curve", "markdown"):
            b"## vma1, gaussian innovations\n\n"
            b"| n | p | m | K=1 MAX | K=1 SUM | K=1 FC |\n"
            b"|---|---|---|---|---|---|\n"
            b"| 30 | 6 | 1 | 0.143 | 0.143 | 0.000 |\n"
            b"| 30 | 6 | 2 | 0.429 | 0.571 | 0.571 |\n"
            b"| 30 | 6 | 3 | 1.000 | 0.857 | 1.000 |\n",
        ("curve", "curve"):
            b"m,rate_max,rate_sum,rate_fc,se_max,se_sum,se_fc\r\n"
            b"1,0.14285714285714285,0.14285714285714285,0.0,"
            b"0.13226001425322165,0.13226001425322165,0.0\r\n"
            b"2,0.42857142857142855,0.5714285714285714,0.5714285714285714,"
            b"0.1870439059165649,0.1870439059165649,0.1870439059165649\r\n"
            b"3,1.0,0.8571428571428571,1.0,0.0,0.13226001425322165,0.0\r\n",
    }

    @pytest.mark.parametrize("results, format", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, results, format):
        path = tmp_path / "out"
        written = {"size": self.GOLDEN_SIZE, "curve": self.GOLDEN_CURVE}[results]
        assert emit_table(written, str(path), format=format) == str(path)
        assert path.read_bytes() == self.GOLDEN[results, format]

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
        emit_table(results, str(path), format="curve")
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
            emit_table(results, str(tmp_path / "curve.csv"), format="curve")

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
            emit_table(results, str(tmp_path / "curve.csv"), format="curve")


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

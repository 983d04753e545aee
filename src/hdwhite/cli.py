"""Command-line interface.

Subcommands:
  test          run all three white-noise tests on one panel CSV
  size          run a null-hypothesis rejection-rate experiment
  power         run an alternative-hypothesis rejection-rate experiment
  power-theory  closed-form sum-test power for explicit (A0, A1)
  residual-test factor-regression residuals + sliding-window testing

Exit codes: 0 success, 2 bad configuration or usage, 3 bad input data,
4 filesystem failure.
"""

from __future__ import annotations

import argparse
import errno
import multiprocessing
import os
import sys

from . import __version__
from .errors import ConfigError, DataError
from .factor import build_factor_data, ols_residuals, sliding_window_rates
from .harness import ExperimentConfig, ExperimentKind, emit_power_curve, emit_table, run_experiment
from .harness import _check_power_curve
from .panel import read_csv_array, read_panel_csv
from .power import PowerInputs, sum_power
from .statistics import run_all

__all__ = ["main"]


def _cmd_test(args) -> int:
    panel = read_panel_csv(args.input, header=args.header, center=args.center)
    report = run_all(panel, args.lags, args.alpha)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.csv_header())
        print(report.to_csv_row())
    return 0


def _check_out_path(path: str) -> None:
    """Raise, before the grid runs, the OSError that writing ``path``
    would raise after it: for an empty path, a missing, non-directory or
    unwritable parent, and a path that is a directory or an unwritable file.
    """
    parent = os.path.dirname(path) or "."
    if not path:
        code, where = errno.ENOENT, path
    elif not os.path.isdir(parent):
        code, where = (errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT), parent
    elif os.path.isdir(path):
        code, where = errno.EISDIR, path
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code, where = errno.EACCES, path
    else:
        return
    raise OSError(code, os.strerror(code), where)


def _cmd_experiment(args) -> int:
    kind = ExperimentKind(args.command)
    cfg = ExperimentConfig.from_json_file(
        args.config,
        seed_override=args.seed,
        workers_override=args.workers,
        out_override=args.out,
    )
    if cfg.kind is not kind:
        raise ConfigError(
            f'config "kind" is {cfg.kind.value!r} but the {kind.value} subcommand was invoked'
        )
    if cfg.out_path is None:
        raise ConfigError('no output path: set "out" in the config or pass --out')
    _check_out_path(cfg.out_path)
    curve = kind is ExperimentKind.POWER and args.curve
    if curve:
        _check_power_curve(cfg.grid)
    results = run_experiment(cfg)
    if curve:
        emit_power_curve(results, cfg.out_path)
    else:
        emit_table(results, cfg.out_path, format=args.format)
    print(f"wrote {len(results)} cells to {cfg.out_path}")
    return 0


def _cmd_power_theory(args) -> int:
    _, _, a0 = read_csv_array(args.a0)
    _, _, a1 = read_csv_array(args.a1)
    inputs = PowerInputs(a0=a0, a1=a1, n=args.n, nu4=args.nu4, alpha=args.alpha)
    print(sum_power(inputs).to_json())
    return 0


def _cmd_residual_test(args) -> int:
    data = build_factor_data(
        args.returns,
        args.factors,
        already_excess=args.already_excess,
        check_dates=args.check_dates,
    )
    residuals = ols_residuals(data)
    workers = _default_workers() if args.workers is None else args.workers
    summary = sliding_window_rates(residuals, args.window, args.lags, args.alpha, workers)
    print(summary.to_json())
    return 0


def _default_workers() -> int:
    """The CPUs this process may run on where helper processes are forked,
    and 1 elsewhere (spawn, and forkserver, Python 3.14's default on
    Linux): such a helper process imports hdwhite afresh.  Measured on a
    2-CPU Linux host, residual-test's windows on a 1000 x 100 panel at
    window 120, K=2 (880 windows) took 0.19 s in one process and 0.33 s
    with one spawned or forkserver helper, and the helper broke even only
    near 2900 windows; forked, it cut 0.22 s to 0.17 s."""
    if multiprocessing.get_start_method() != "fork":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdwhite",
        description="High-dimensional white-noise tests, power theory, and Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test one panel CSV for white noise")
    p_test.add_argument("--input", required=True, help="panel CSV, rows = time points")
    p_test.add_argument("--K", dest="lags", type=int, required=True,
                        help="number of lags to test (1..n-2)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--header", action="store_true",
                        help="first non-blank CSV line is a header")
    p_test.add_argument("--center", action="store_true",
                        help="subtract column means before testing; this biases SUM and "
                             "FC upward once p nears n (README, Input conventions)")
    p_test.add_argument("--format", choices=("json", "csv"), default="json")
    p_test.set_defaults(func=_cmd_test)

    for name, helptext in (
        ("size", "null-hypothesis rejection rates over a config grid"),
        ("power", "alternative-hypothesis rejection rates over a config grid"),
    ):
        p_run = sub.add_parser(name, help=helptext)
        p_run.add_argument("--config", required=True, help="JSON experiment config")
        p_run.add_argument("--seed", type=int, default=None,
                           help="override the config master_seed")
        p_run.add_argument("--workers", type=int, default=None,
                           help="override the config worker count: the processes that "
                                "run replications, this one included")
        p_run.add_argument("--out", default=None, help="override the config output path")
        p_run.add_argument("--format", choices=("csv", "markdown"), default="csv")
        if name == "power":
            p_run.add_argument("--curve", action="store_true",
                               help="emit a per-m power-curve CSV instead of the flat table")
        p_run.set_defaults(func=_cmd_experiment)

    p_pt = sub.add_parser("power-theory", help="closed-form sum-test power under a one-lag MA")
    p_pt.add_argument("--a0", required=True, help="CSV of the lag-0 coefficient matrix")
    p_pt.add_argument("--a1", required=True, help="CSV of the lag-1 coefficient matrix")
    p_pt.add_argument("--n", type=int, required=True, help="sample size")
    p_pt.add_argument("--nu4", type=float, default=3.0, help="innovation fourth moment")
    p_pt.add_argument("--alpha", type=float, default=0.05)
    p_pt.set_defaults(func=_cmd_power_theory)

    p_rt = sub.add_parser("residual-test", help="factor-model residual white-noise testing")
    p_rt.add_argument("--returns", required=True, help="CSV: date column then asset columns")
    p_rt.add_argument("--factors", required=True,
                      help="CSV: date, market excess, SMB, HML, risk-free")
    p_rt.add_argument("--window", type=int, required=True, help="sliding window length")
    p_rt.add_argument("--K", dest="lags", type=int, required=True)
    p_rt.add_argument("--alpha", type=float, default=0.05)
    p_rt.add_argument("--already-excess", action="store_true",
                      help="returns are already in excess of the risk-free rate")
    p_rt.add_argument("--check-dates", action="store_true",
                      help="require date strings to match row by row")
    p_rt.add_argument("--workers", type=int, default=None,
                      help="the processes that test blocks of 64 windows, this one "
                           "included (default: the CPUs this process may run on where "
                           "helper processes are forked, else 1); the output is the same "
                           "for any count")
    p_rt.set_defaults(func=_cmd_residual_test)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""hdwhite benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mc-size --seed 1 --seconds 15 --trace 0

Inputs are built from ``--seed`` into a scratch directory under the
checkout, outside any timed region.  A separate workload process
(``child.py``) then runs the workload's operation in a closed loop for
``--seconds``; every output is checked against ``reference.py`` or, for
the Monte Carlo tables, against their expected shape and wide plausibility
bands.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around each module's public functions.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run metadata and the workload's own metric names.
README.md says why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process started below.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-size", "mc-power", "residual-windows", "panel-tall", "panel-wide")
SETUP_REPEATS = 6
MIN_OPS = 4
WINDOW_SAMPLE = 40
CHILD_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20

RESULT_COLUMNS = [
    "scenario", "innovation", "n", "p", "K", "m", "replications",
    "rate_max", "rate_sum", "rate_fc", "se_max", "se_sum", "se_fc",
]
# Plausibility bands for Monte Carlo rejection rates: wide enough that
# any correct generator and test pass at the configured R, narrow enough
# that a test which never or always rejects fails.
SIZE_RATE_MAX = 0.25
POWER_MEAN_BAND = (0.2, 0.97)   # mean over the grid of each test's power


class Workload:
    """One workload: its operation, the work it does, and its output check."""

    def __init__(self, name: str, seed: int, work: Path, trace: bool):
        self.name = name
        self.inp = inputs.write_inputs(name, seed, work)
        self.files: list[str] = []
        self.windows = None
        self.window_refs: list[dict] = []
        self.workers = 1 if trace else min(2, len(os.sched_getaffinity(0)))
        if name.startswith("panel-"):
            sh = self.inp["shape"]
            self.op = [["test", "--input", str(self.inp["panel"]), "--K", str(sh["K"])]]
            self.units = 1
            self.unit = "test"
            self.expected = reference.report(self.inp["values"], sh["K"], inputs.ALPHA)
        elif name == "residual-windows":
            sh = self.inp["shape"]
            self.op = [[
                "residual-test", "--returns", str(self.inp["returns"]),
                "--factors", str(self.inp["factors"]),
                "--window", str(sh["window"]), "--K", str(sh["K"]),
            ]]
            self.units = sh["T"] - sh["window"]
            self.unit = "window"
            resid = reference.ols_residuals(
                self.inp["returns_values"], self.inp["factors_values"], self.inp["risk_free"]
            )
            reports = [reference.report(resid[s : s + sh["window"]], sh["K"], inputs.ALPHA)
                       for s in range(self.units)]
            self.expected = {
                f"rate_{t}": sum(r[f"rej_{t}"] for r in reports) / self.units
                for t in ("max", "sum", "fc")
            }
            starts = np.random.default_rng(seed).choice(self.units, WINDOW_SAMPLE, replace=False)
            self.windows = {
                "returns": str(self.inp["returns"]), "factors": str(self.inp["factors"]),
                "window": sh["window"], "K": sh["K"], "alpha": inputs.ALPHA,
                "starts": sorted(int(s) for s in starts),
            }
            self.window_refs = [reports[s] for s in self.windows["starts"]]
        else:
            kind = "size" if name == "mc-size" else "power"
            self.op, self.cells = [], []
            for i, cfg in enumerate(self.inp["configs"]):
                out = work / f"out{i}.csv"
                self.op.append([kind, "--config", str(cfg), "--out", str(out),
                                "--workers", str(self.workers)])
                self.files.append(str(out))
                self.cells.append(_grid(json.loads(cfg.read_text(encoding="utf-8"))))
            self.units = sum(len(c) for c in self.cells) * self.inp["shape"]["R"]
            self.unit = "replication"

    def check(self, rec: dict) -> list[str]:
        """Reasons the operation's outputs are wrong; empty when correct."""
        if rec["error"] or any(code != 0 for code in rec["codes"]):
            return [f"raised or exited nonzero: {rec['error'] or rec['codes']}"]
        try:
            if self.name.startswith("panel-"):
                got = json.loads(rec["stdout"])
                sh = self.inp["shape"]
                bad = reference.mismatches(got, self.expected)
                bad += [k for k in ("n", "p", "K") if got[k] != sh[k]]
                return [f"fields differ from reference: {bad}"] if bad else []
            if self.name == "residual-windows":
                got = json.loads(rec["stdout"])
                bad = [k for k, v in self.expected.items() if got[k] != v]
                if got["num_windows"] != self.units:
                    bad.append("num_windows")
                return [f"fields differ from reference: {bad}"] if bad else []
            return [r for text, cells in zip(rec["files"], self.cells)
                    for r in self._check_table(text, cells)]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_table(self, text: str, cells: list[tuple]) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != RESULT_COLUMNS:
            return [f"header {rows[0]}"]
        if [tuple(r[:6]) for r in rows[1:]] != cells:
            return [f"cells {[r[:6] for r in rows[1:]]} != {cells}"]
        reps = self.inp["shape"]["R"]
        problems = []
        power = []
        for row in rows[1:]:
            if int(row[6]) != reps:
                problems.append(f"replications {row[6]}")
            rates = [float(v) for v in row[7:10]]
            for rate, se in zip(rates, (float(v) for v in row[10:13])):
                if abs(rate * reps - round(rate * reps)) > 1e-9 or not 0.0 <= rate <= 1.0:
                    problems.append(f"rate {rate} is not a count over {reps}")
                elif abs(se - math.sqrt(rate * (1.0 - rate) / reps)) > 1e-12:
                    problems.append(f"se {se} for rate {rate}")
            if self.name == "mc-size" and max(rates) > SIZE_RATE_MAX:
                problems.append(f"size rates {rates} above {SIZE_RATE_MAX}")
            power.append(rates)
        if self.name == "mc-power":
            low, high = POWER_MEAN_BAND
            for test, col in zip(("MAX", "SUM", "FC"), zip(*power)):
                if not low <= statistics.fmean(col) <= high:
                    problems.append(f"mean {test} power {statistics.fmean(col)} outside {low}-{high}")
        return problems


def _grid(cfg: dict) -> list[tuple]:
    """Expected leading columns of each table row, in grid order."""
    def listed(key, default=None):
        value = cfg.get(key, default)
        return value if isinstance(value, list) else [value]

    return [
        (s, i, str(n), str(p), str(k), "" if m is None else str(m))
        for s in listed("scenarios") for i in listed("innovations", "gaussian")
        for n in listed("n") for p in listed("p") for k in listed("K")
        for m in listed("m")
    ]


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _run_child(plan: dict, work: Path, timeout: float) -> tuple[float, str]:
    """Run child.py on a plan; return (wall seconds, stdout).

    The child gets its own process group so that on a timeout it and any
    pool workers it started are killed together and reaped.
    """
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "child.py"), str(plan_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or this process being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"workload process timed out after {timeout} s") from None
        raise
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return wall, out


def measure_setup(wl: Workload, work: Path, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that import hdwhite and parse
    the operation's arguments and configs, stopping before any work."""
    plan = {"mode": "setup", "src": str(SRC), "op": wl.op}
    return [_run_child(plan, work, SETUP_TIMEOUT_S)[0] for _ in range(repeats)]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


# Layers every workload reaches report seconds per operation.  Layers only
# some workloads reach report their share of the time spent inside
# cli.main instead: a time that reads 0 on every run of a workload that
# never calls the layer would look like a value not measured.
LAYER_SECONDS = ("panel.sample_autocovariance", "panel.TimeSeriesPanel", "statistics.max_test",
                 "statistics.sum_test", "statistics.fisher_combine")
LAYER_SELF_SECONDS = ("statistics.run_all", "cli.main")
LAYER_CALLS = ("panel.sample_autocovariance", "panel.TimeSeriesPanel", "statistics.max_test",
               "linalg.sym_sqrt")
LAYER_SHARES = ("panel.read_panel_csv", "dgp.gen_alternative_panel", "dgp.gen_null_panel",
                "dgp.draw_innovations", "harness.derive_seed", "harness.emit_table",
                "factor.build_factor_data", "factor.ols_residuals")
LAYER_SELF_SHARES = ("harness.run_experiment", "factor.sliding_window_rates")


def layer_metrics(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics, each the median over the traced operations of
    the value in one operation, and the seconds behind them."""
    layers = res["layers"]

    def med(name, key, per=None):
        values = (op.get(name, {}).get(key, 0) / (op["cli.main"]["s"] if per else 1)
                  for op in layers)
        return statistics.median(values)

    spec = {f"{n}.s": (med(n, "s"), "s") for n in LAYER_SECONDS}
    spec.update({f"{n}.self_s": (med(n, "self_s"), "s") for n in LAYER_SELF_SECONDS})
    spec.update({f"{n}.calls": (med(n, "calls"), "count") for n in LAYER_CALLS})
    spec.update({f"{n}.frac": (med(n, "s", per=True), "frac") for n in LAYER_SHARES})
    spec.update({f"{n}.self_frac": (med(n, "self_s", per=True), "frac")
                 for n in LAYER_SELF_SHARES})

    gens = ("dgp.gen_null_panel", "dgp.gen_alternative_panel")
    attempts = sum(op.get(g, {}).get("calls", 0) for op in layers for g in gens)
    redraws = sum(op.get(g, {}).get("raised", 0) for op in layers for g in gens)
    spec["dgp.attempts"] = (attempts / len(layers), "count")
    spec["dgp.redraw_ratio"] = (redraws / attempts if attempts else 0.0, "frac")

    traced = [op["ms"] for op in res["ops"] if op["traced"]]
    plain = [op["ms"] for op in res["ops"] if not op["traced"]]
    spec["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "frac")

    names = sorted({name for op in layers for name in op})
    seconds = {f"{n}.{k}": med(n, k) for n in names for k in ("s", "self_s")}
    windows = res["window_ms"]
    if windows:
        seconds["factor.window_ms_p50"] = percentile(windows, 50)
        seconds["factor.window_ms_p90"] = percentile(windows, 90)
    samples = {"traced_ops": len(traced), "untraced_ops": len(plain), "windows": len(windows)}
    return spec, {"samples": samples, "layer_seconds": seconds}


def end_to_end_metrics(setup: list[float], res: dict) -> dict:
    """Set-up time, peak memory of the workload process, and the median
    cost of one operation in units of the reference kernel timed just
    before and after it.

    The operation's cost is gated as a ratio, not in milliseconds: the
    CPU speed of a shared host swings by up to 1.6x for seconds to
    minutes at a time, and the ratio cancels that swing while staying
    proportional to the program's own work (README.md, "Noise").
    """
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "op_cost_p50": (statistics.median(op["ms"] / op["ref_ms"] for op in res["ops"]), "x_ref"),
    }


def named_metrics(wl: Workload, timed: list[float], e2e: dict, failed_frac: float) -> dict:
    """The workload's figures under the names README.md gives them."""
    named = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
             "failed_frac": (failed_frac, "frac")}
    rate = wl.units * len(timed) / (sum(timed) / 1e3)
    if wl.name.startswith("mc-"):
        named["reps_per_s"] = (rate, "1/s")
    elif wl.name == "residual-windows":
        named["windows_per_s"] = (rate, "1/s")
    else:
        shape = wl.name.split("-")[1]
        named[f"test_{shape}_ms_p50"] = (percentile(timed, 50), "ms")
        named[f"test_{shape}_ms_p90"] = (percentile(timed, 90), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def check_outputs(wl: Workload, res: dict) -> tuple[list[list[str]], str]:
    """Failure reasons per checked operation, and the first output's digest.

    Every operation's output is checked, and must also be byte-identical
    to the first one's, since the inputs are the same.  Sampled residual
    windows count as operations of their own.
    """
    records = [res["warmup"]] + res["ops"]
    failures = [wl.check(rec) for rec in records]
    digests = [
        hashlib.sha256("".join([r["stdout"]] + [f or "" for f in r["files"]]).encode()).hexdigest()
        for r in records
    ]
    for i, digest in enumerate(digests):
        if digest != digests[0] and not failures[i]:
            failures[i] = ["output differs from the first operation's"]
    for got, ref in zip(res["windows"], wl.window_refs):
        bad = reference.mismatches(got, ref)
        failures.append([f"sampled window differs from reference: {bad}"] if bad else [])
    return failures, digests[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hdwhite" / "__init__.py").is_file():
        print(f"error: no hdwhite sources under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the workload process and the
    # scratch directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    # Set-up is timed half before and half after the loop, so that one
    # slow spell of the host does not decide every sample.
    setup_repeats = 0 if args.trace else SETUP_REPEATS
    try:
        wl = Workload(args.workload, args.seed, work, bool(args.trace))
        setup = measure_setup(wl, work, setup_repeats // 2)
        plan = {
            "mode": "run", "src": str(SRC), "op": wl.op, "files": wl.files,
            "seconds": args.seconds, "trace": bool(args.trace),
            "min_ops": 2 * MIN_OPS if args.trace else MIN_OPS, "windows": wl.windows,
        }
        _, out = _run_child(plan, work, CHILD_TIMEOUT_S + args.seconds)
        res = json.loads(out.strip().splitlines()[-1])
        setup += measure_setup(wl, work, setup_repeats - setup_repeats // 2)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failures, digest = check_outputs(wl, res)
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for reasons in failures:
        for reason in reasons:
            print(f"check failed: {reason}", file=sys.stderr)

    timed = [op["ms"] for op in res["ops"]]
    run_meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "shape": wl.inp["shape"], "workers": wl.workers, "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV, **res["env"],
        "work_per_op": wl.units, "work_unit": wl.unit, "output_sha256": digest,
        "op_ms": timed, "setup_samples_s": setup,
    }
    if args.trace:
        spec, extra = layer_metrics(res)
        run_meta.update(extra)
    else:
        spec = end_to_end_metrics(setup, res)
        run_meta["samples"] = {"setup_s": len(setup), "op_cost_p50": len(timed)}
        run_meta["ref_kernel_ms"] = [op["ref_ms"] for op in res["ops"]]
        run_meta["named"] = named_metrics(wl, timed, spec, failed / attempted)
    print(json.dumps({"run": run_meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

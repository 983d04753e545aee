"""The workload process: imports hdwhite and runs benchmark operations.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Usage: ``python3 bench/child.py PLAN.json``.  In ``setup`` mode
it only imports the CLI and parses each command's arguments and config,
which is what a user pays before the first unit of work.  In ``run``
mode it calls ``hdwhite.cli.main`` in process, one operation after
another, until the time budget is spent, and prints one JSON line.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import resource
import sys
import time
from pathlib import Path


def _check_source(src: str) -> None:
    import hdwhite

    where = Path(hdwhite.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"hdwhite imported from {where}, not from {src}")


def setup(plan: dict) -> None:
    import hdwhite.cli
    from hdwhite.harness import ExperimentConfig

    _check_source(plan["src"])
    parser = hdwhite.cli.build_parser()
    for argv in plan["op"]:
        args = parser.parse_args(argv)
        if args.command in ("size", "power"):
            ExperimentConfig.from_json_file(args.config, workers_override=args.workers)


def blas_info() -> dict:
    """BLAS library name and the thread count it actually runs with."""
    import numpy as np

    info: dict = {"name": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f'{blas.get("name")} {blas.get("version", "")}'.strip()
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def reference_kernel_ms(x) -> float:
    """Wall milliseconds of a fixed mix of BLAS, numpy and interpreter work.

    It shares no code with hdwhite, so a change to the program cannot move
    it; run next to an operation, it measures how fast the CPU is running
    at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(30):
        acc += float(abs(x.T @ x).max())
        acc += sum(float(s) for s in [repr(v * 0.5) for v in range(150)])
    return (time.perf_counter() - start) * 1e3


def run_op(cli, op: list, files: list, kernel_input) -> dict:
    """Run one operation, its commands back to back with stdout captured,
    between two runs of the reference kernel."""
    before = reference_kernel_ms(kernel_input)
    out = io.StringIO()
    error = None
    codes = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            for argv in op:
                codes.append(cli.main(argv))
    except Exception as exc:  # an operation that raises is counted as failed
        error = repr(exc)
    ms = (time.perf_counter() - start) * 1e3
    ref_ms = (before + reference_kernel_ms(kernel_input)) / 2.0
    texts = []
    for path in files:
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            error = error or repr(exc)
            texts.append(None)
    return {"ms": ms, "ref_ms": ref_ms, "codes": codes, "error": error,
            "stdout": out.getvalue(), "files": texts}


def run(plan: dict) -> dict:
    import numpy
    import scipy

    import hdwhite
    import hdwhite.cli as cli

    from spans import Tracer, fold, window_ms

    _check_source(plan["src"])

    op, files, seconds = plan["op"], plan["files"], plan["seconds"]
    kernel_input = (numpy.arange(12000.0).reshape(120, 100) % 97) / 97
    tracer = Tracer() if plan["trace"] else None
    result = {"warmup": run_op(cli, op, files, kernel_input), "ops": [], "layers": [],
              "window_ms": []}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < plan["min_ops"]:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            try:
                rec = run_op(cli, op, files, kernel_input)
            finally:
                tracer.restore()
            spans = tracer.take()
            result["layers"].append(fold(spans))
            result["window_ms"].extend(window_ms(spans))
        else:
            rec = run_op(cli, op, files, kernel_input)
        rec["traced"] = traced
        result["ops"].append(rec)
        i += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["windows"] = sample_windows(plan["windows"]) if plan.get("windows") else []
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hdwhite": hdwhite.__version__,
        "blas": blas_info(),
    }
    return result


def sample_windows(spec: dict) -> list[dict]:
    """hdwhite's reports on a sample of residual windows, for checking."""
    from hdwhite.factor import build_factor_data, ols_residuals
    from hdwhite.panel import TimeSeriesPanel
    from hdwhite.statistics import run_all

    resid = ols_residuals(build_factor_data(spec["returns"], spec["factors"])).values
    w = spec["window"]
    return [
        run_all(TimeSeriesPanel(resid[s : s + w]), spec["K"], spec["alpha"]).to_flat_dict()
        for s in spec["starts"]
    ]


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if plan["mode"] == "setup":
        setup(plan)
        return
    result = run(plan)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

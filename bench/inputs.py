"""Deterministic benchmark inputs, built from the workload seed alone.

Nothing here imports hdwhite: the program under test only ever sees the
files written below (panel CSVs, returns/factors CSVs, JSON configs).
Floats are written with ``repr`` so the program parses exactly the
doubles the reference formulas in ``reference.py`` use.
"""

from __future__ import annotations

import csv
import json
import zlib
from pathlib import Path

import numpy as np

# Shapes are fixed per workload; README.md records why each was chosen.
TALL = (2000, 50, 5)             # (n, p, K)
WIDE = (200, 1000, 3)
RESIDUAL = (1000, 100, 120, 2)   # (T, p, window, K)
SIZE_CELLS = (                   # acceptance criteria 1-3
    ("null-i", "gaussian", 100, 30, 1),
    ("null-ii", "shifted-gamma", 200, 60, 2),
    ("null-i", "gaussian", 100, 120, 3),
)
SIZE_REPLICATIONS = 150
POWER_SCENARIOS = ("var1", "varma1", "vma1")
POWER_M = (1, 5, 10)
POWER_SHAPE = (200, 60, 1)       # (n, p, K)
POWER_REPLICATIONS = 20
ALPHA = 0.05


def white_panel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Serially independent rows with neighbouring columns correlated."""
    z = rng.standard_normal((n, p))
    return z + 0.5 * np.roll(z, 1, axis=1)


def write_matrix_csv(path: Path, values: np.ndarray, header=None, first_column=None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for i, row in enumerate(values):
            cells = [repr(float(v)) for v in row]
            writer.writerow(cells if first_column is None else [first_column[i]] + cells)


def factor_inputs(rng: np.random.Generator, t: int, p: int):
    """Returns and factor series of a three-factor model.

    Returns (dates, returns T x p, factors T x 3, risk-free T).  A few
    assets get AR(1) idiosyncratic noise, so that some windows reject and
    some do not and the rate check can tell the two apart.
    """
    dates = [str(np.datetime64("2000-01-03") + i) for i in range(t)]
    factors = rng.standard_normal((t, 3)) * (0.04, 0.02, 0.02) + (0.005, 0.001, 0.002)
    risk_free = 0.001 + 0.0002 * rng.random(t)
    beta = rng.uniform(0.5, 1.5, size=(3, p))
    noise = 0.05 * rng.standard_normal((t, p))
    for j in range(0, p, 20):
        for s in range(1, t):
            noise[s, j] += 0.3 * noise[s - 1, j]
    returns = risk_free[:, None] + 0.001 + factors @ beta + noise
    return dates, returns, factors, risk_free


def experiment_config(kind: str, seed: int, **grid) -> dict:
    return {"kind": kind, "alpha": ALPHA, "master_seed": seed, **grid}


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the inputs of one workload and return what the run needs.

    The result maps names to file paths and to the raw arrays the
    reference check uses; the same seed always gives the same files.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode("ascii"))])
    out_dir = Path(out_dir)
    if workload in ("panel-tall", "panel-wide"):
        n, p, lags = TALL if workload == "panel-tall" else WIDE
        values = white_panel(rng, n, p)
        path = out_dir / "panel.csv"
        write_matrix_csv(path, values)
        return {"panel": path, "values": values, "shape": {"n": n, "p": p, "K": lags}}
    if workload == "residual-windows":
        t, p, window, lags = RESIDUAL
        dates, returns, factors, risk_free = factor_inputs(rng, t, p)
        r_path, f_path = out_dir / "returns.csv", out_dir / "factors.csv"
        write_matrix_csv(r_path, returns, ["date"] + [f"a{j + 1}" for j in range(p)], dates)
        write_matrix_csv(
            f_path, np.column_stack([factors, risk_free]),
            ["date", "mkt_excess", "smb", "hml", "rf"], dates,
        )
        return {
            "returns": r_path, "factors": f_path,
            "returns_values": returns, "factors_values": factors, "risk_free": risk_free,
            "shape": {"T": t, "p": p, "window": window, "K": lags},
        }
    if workload == "mc-size":
        configs = []
        for i, (scenario, innovation, n, p, lags) in enumerate(SIZE_CELLS):
            cfg = experiment_config(
                "size", seed, scenarios=scenario, innovations=innovation,
                n=n, p=p, K=lags, replications=SIZE_REPLICATIONS,
            )
            configs.append(_write_json(out_dir / f"size{i + 1}.json", cfg))
        return {"configs": configs, "shape": {"cells": [list(c) for c in SIZE_CELLS],
                                              "R": SIZE_REPLICATIONS}}
    if workload == "mc-power":
        n, p, lags = POWER_SHAPE
        cfg = experiment_config(
            "power", seed, scenarios=list(POWER_SCENARIOS), n=n, p=p, K=lags,
            m=list(POWER_M), replications=POWER_REPLICATIONS,
        )
        return {"configs": [_write_json(out_dir / "power.json", cfg)],
                "shape": {"scenarios": list(POWER_SCENARIOS), "m": list(POWER_M),
                          "n": n, "p": p, "K": lags, "R": POWER_REPLICATIONS}}
    raise ValueError(f"unknown workload {workload!r}")


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path

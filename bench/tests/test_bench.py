"""Tests of the benchmark itself: references, tracing and metric names.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hdwhite import TimeSeriesPanel, run_all  # noqa: E402
from hdwhite.factor import FactorData, ols_residuals  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n,p,lags", [(12, 3, 3), (40, 6, 2), (30, 80, 1), (200, 20, 5)])
def test_reference_matches_hdwhite_statistics(n, p, lags):
    rng = np.random.default_rng(n * p + lags)
    for _ in range(5):
        x = rng.standard_normal((n, p)) + 0.3 * rng.standard_normal((n, 1))
        got = run_all(TimeSeriesPanel(x), lags, 0.05).to_flat_dict()
        assert reference.mismatches(got, reference.report(x, lags, 0.05)) == []


def test_reference_detects_a_wrong_statistic():
    x = np.random.default_rng(0).standard_normal((50, 8))
    got = run_all(TimeSeriesPanel(x), 2, 0.05).to_flat_dict()
    got["t_sum"] *= 1 + 1e-8
    assert reference.mismatches(got, reference.report(x, 2, 0.05)) == ["t_sum"]


def test_reference_residuals_match_hdwhite():
    _, returns, factors, risk_free = inputs.factor_inputs(np.random.default_rng(3), 200, 12)
    got = ols_residuals(FactorData(returns - risk_free[:, None], factors)).values
    np.testing.assert_allclose(
        got, reference.ols_residuals(returns, factors, risk_free), rtol=0, atol=1e-12
    )


def test_tracer_restores_every_wrapped_attribute():
    owners = [spans._owner(module, path) for _, module, path in spans.TARGETS]
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(owners, before))
    finally:
        tracer.restore()
    assert all(getattr(o, a) is b for (o, a), b in zip(owners, before))


def test_traced_call_records_nested_spans():
    import hdwhite.factor

    tracer = spans.Tracer()
    tracer.install()
    try:
        panel = TimeSeriesPanel(np.random.default_rng(1).standard_normal((60, 5)))
        hdwhite.factor.sliding_window_rates(panel, 20, 2)
    finally:
        tracer.restore()
    recorded = tracer.take()
    totals = spans.fold(recorded)
    assert totals["statistics.run_all"]["calls"] == 40
    assert totals["statistics.max_test"]["calls"] == 40
    assert totals["panel.sample_autocovariance"]["calls"] == 40 * 4
    for row in totals.values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-9
    assert len(spans.window_ms(recorded)) == 0  # called directly, not under the CLI
    assert tracer.spans == []


def test_window_ms_counts_windows_under_sliding_window_rates():
    tracer = spans.Tracer()
    sliding = tracer.wrap("factor.sliding_window_rates", lambda f: [f() for _ in range(3)])
    sliding(tracer.wrap("statistics.run_all", lambda: None))
    assert len(spans.window_ms(tracer.take())) == 3


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in run.WORKLOADS:
        digests = []
        for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
            out = tmp_path / workload / sub
            out.mkdir(parents=True)
            inputs.write_inputs(workload, seed, out)
            digests.append(sorted(f.read_bytes() for f in out.iterdir()))
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_reported_metrics_are_the_declared_ones():
    res = {
        "layers": [{"statistics.run_all": {"s": 1.0, "self_s": 0.1, "calls": 2, "raised": 0},
                    "cli.main": {"s": 1.5, "self_s": 0.5, "calls": 1, "raised": 0}}],
        "window_ms": [], "peak_rss_mb": 80.0,
        "ops": [{"ms": 10.0, "ref_ms": 2.0, "traced": False},
                {"ms": 11.0, "ref_ms": 2.0, "traced": True}],
    }
    layer, _ = run.layer_metrics(res)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    e2e = run.end_to_end_metrics([0.5, 0.6], res)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert set(SPEC["paths"]) == {"bench"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)

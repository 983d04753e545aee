"""Spans around the calls into each hdwhite module, installed from outside.

The program is not edited: ``install`` replaces public module attributes
(for example ``hdwhite.harness.gen_null_panel``) with timing wrappers and
``restore`` puts the originals back.  A name bound by ``from x import y``
lives in the importing module, so each call site is wrapped where the
caller looks it up.  Spans are kept in memory and folded into per-layer
totals once per benchmark operation.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module whose attribute is replaced, attribute path).
TARGETS = (
    ("cli.main", "hdwhite.cli", "main"),
    ("panel.read_panel_csv", "hdwhite.cli", "read_panel_csv"),
    ("panel.sample_autocovariance", "hdwhite.panel", "sample_autocovariance"),
    ("panel.TimeSeriesPanel", "hdwhite.panel", "TimeSeriesPanel.__post_init__"),
    ("statistics.run_all", "hdwhite.cli", "run_all"),
    ("statistics.run_all", "hdwhite.harness", "run_all"),
    ("statistics.run_all", "hdwhite.factor", "run_all"),
    ("statistics.max_test", "hdwhite.statistics", "max_test"),
    ("statistics.sum_test", "hdwhite.statistics", "sum_test"),
    ("statistics.fisher_combine", "hdwhite.statistics", "fisher_combine"),
    ("dgp.gen_null_panel", "hdwhite.harness", "gen_null_panel"),
    ("dgp.gen_alternative_panel", "hdwhite.harness", "gen_alternative_panel"),
    ("dgp.draw_innovations", "hdwhite.dgp", "draw_innovations"),
    ("linalg.sym_sqrt", "hdwhite.dgp", "sym_sqrt"),
    ("harness.derive_seed", "hdwhite.harness", "derive_seed"),
    ("harness.run_experiment", "hdwhite.cli", "run_experiment"),
    ("harness.emit_table", "hdwhite.cli", "emit_table"),
    ("factor.build_factor_data", "hdwhite.cli", "build_factor_data"),
    ("factor.ols_residuals", "hdwhite.cli", "ols_residuals"),
    ("factor.sliding_window_rates", "hdwhite.cli", "sliding_window_rates"),
)


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name) for a dotted path."""
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Records spans as [name, start, end, parent index, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, targets=TARGETS) -> None:
        for name, module, path in targets:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Return the finished spans and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def fold(spans: list[list]) -> dict:
    """Per-name totals of one operation's spans.

    Returns {name: {"s", "self_s", "calls", "raised"}}, where self time is
    the span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "raised": 0})
    for i, (name, start, end, _, raised) in enumerate(spans):
        row = out[name]
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        row["calls"] += 1
        row["raised"] += int(raised)
    return dict(out)


def window_ms(spans: list[list]) -> list[float]:
    """Time per sliding window: the gap between successive ends of the
    run_all spans directly under one sliding_window_rates span."""
    out = []
    last: dict[int, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == "factor.sliding_window_rates":
            last[i] = start
        elif name == "statistics.run_all" and parent in last:
            out.append((end - last[parent]) * 1e3)
            last[parent] = end
    return out

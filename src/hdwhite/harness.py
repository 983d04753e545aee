"""Seeded Monte Carlo experiment runner for size and power studies.

An experiment is a grid of cells (scenario, innovation, n, p, K, and a
block size m for alternatives).  Every cell runs R replications; each
replication owns an RNG stream derived purely from (master seed, cell,
replication index).  The whole grid's replications are numbered in grid
order and run by ``run_jobs``, which claims numbered jobs one at a time
from a counter, by the calling process and the helper processes it starts
beside it, and returns their results in job order; the per-cell counts
are summed from them, so results are byte-identical for any worker
count.  ``run_jobs`` is the package's one scheduler: the sliding-window
tests of ``factor`` run on it too.
Outputs are a flat CSV, a grouped markdown table, and per-m power-curve
CSVs.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import traceback
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import product
from multiprocessing.connection import wait
from operator import itemgetter

import numpy as np

from .dgp import DgpSpec, Innovation, Scenario, gen_alternative_panel, gen_null_panel
from .errors import (
    Choice, ConfigError, DataError, NonstationaryDrawError, check_integer, check_level,
    check_number, check_probability,
)
from .panel import check_lag_budget
from .statistics import run_all

__all__ = [
    "ExperimentKind",
    "GridCell",
    "ExperimentConfig",
    "CellResult",
    "run_experiment",
    "emit_table",
    "emit_power_curve",
]

DEFAULT_SIZE_REPLICATIONS = 1000
DEFAULT_POWER_REPLICATIONS = 500
MAX_REDRAWS = 1000


class ExperimentKind(Choice):
    SIZE = "size"
    POWER = "power"


@dataclass(frozen=True)
class GridCell:
    """One point of the experimental grid."""

    scenario: Scenario
    innovation: Innovation
    n: int
    p: int
    lags: int
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "innovation", Innovation(self.innovation))
        # Reuse the generator-spec validation so grid cells can never
        # describe a panel the generator would refuse.
        DgpSpec(
            scenario=self.scenario,
            innovation=self.innovation,
            n=self.n,
            p=self.p,
            seed=0,
            m=self.m,
        )
        check_lag_budget(self.n, self.lags)

    def key(self) -> int:
        """Stable 32-bit id of the cell, used to derive RNG streams."""
        desc = (
            f"{self.scenario.value}|{self.innovation.value}|n={self.n}|p={self.p}"
            f"|K={self.lags}|m={'' if self.m is None else self.m}"
        )
        return zlib.crc32(desc.encode("ascii"))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    grid: tuple[GridCell, ...]
    replications: int
    alpha: float
    master_seed: int
    workers: int = 1
    out_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ExperimentKind(self.kind))
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ConfigError('"grid": at least one cell is required')
        for i, cell in enumerate(self.grid):
            null_cell = cell.scenario.is_null
            if self.kind is ExperimentKind.SIZE and not null_cell:
                raise ConfigError(
                    f'"grid[{i}].scenario": {cell.scenario.value} is not a null scenario'
                )
            if self.kind is ExperimentKind.POWER and null_cell:
                raise ConfigError(
                    f'"grid[{i}].scenario": {cell.scenario.value} is not an alternative scenario'
                )
        check_integer('"replications"', self.replications, 1)
        object.__setattr__(self, "alpha", check_level('"alpha"', self.alpha))
        if check_integer('"master_seed"', self.master_seed, 0) >= 2**64:
            raise ConfigError(f'"master_seed" must be below 2**64, got {self.master_seed}')
        check_integer('"workers"', self.workers, 1)
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ConfigError(f'"out" must be a string path, got {self.out_path!r}')

    # -- config-file loading ------------------------------------------------

    _LIST_KEYS = ("scenarios", "innovations", "n", "p", "K", "m")
    _KNOWN_KEYS = _LIST_KEYS + (
        "kind", "replications", "alpha", "master_seed", "workers", "out",
    )

    @classmethod
    def from_mapping(
        cls,
        raw: dict,
        seed_override: int | None = None,
        workers_override: int | None = None,
        out_override: str | None = None,
    ) -> "ExperimentConfig":
        """Build a config from a parsed JSON object.

        List-valued scenarios/innovations/n/p/K/m are expanded into the
        cartesian grid, in the order the lists are written.  A value that
        repeats within one list would repeat a cell, and is refused.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        for key in raw:
            if key not in cls._KNOWN_KEYS:
                raise ConfigError(f'"{key}": unknown config key')

        if "kind" not in raw:
            raise ConfigError('"kind": required ("size" or "power")')
        kind = ExperimentKind(raw["kind"])

        def as_list(key, value):
            if isinstance(value, (list, tuple)):
                if not value:
                    raise ConfigError(f'"{key}": list must not be empty')
                return list(value)
            return [value]

        def check_not_repeated(key, i, values, written):
            if values[i] in values[:i]:
                raise ConfigError(f'"{key}[{i}]": repeated value {written!r}')

        def int_list(key):
            values = as_list(key, raw[key])
            for i, v in enumerate(values):
                check_integer(f'"{key}[{i}]"', v)
                check_not_repeated(key, i, values, v)
            return values

        def choice_list(key, choice, default=None):
            values = as_list(key, raw.get(key, default))
            for i, v in enumerate(values):
                try:
                    values[i] = choice(v)
                except ConfigError as exc:
                    raise ConfigError(f'"{key}[{i}]": {exc}') from None
                check_not_repeated(key, i, values, v)
            return values

        for key in ("scenarios", "n", "p", "K"):
            if key not in raw:
                raise ConfigError(f'"{key}": required')

        scenarios = choice_list("scenarios", Scenario)
        innovations = choice_list("innovations", Innovation, "gaussian")
        ns, ps, ks = int_list("n"), int_list("p"), int_list("K")
        if kind is ExperimentKind.POWER:
            if "m" not in raw:
                raise ConfigError('"m": required for power experiments')
            ms: list[int | None] = int_list("m")
        elif "m" in raw:
            raise ConfigError('"m": only valid for power experiments')
        else:
            ms = [None]

        grid = []
        for idx, (sc, innov, n, p, k, m) in enumerate(
            product(scenarios, innovations, ns, ps, ks, ms)
        ):
            try:
                grid.append(GridCell(sc, innov, n, p, k, m))
            except ConfigError as exc:
                raise ConfigError(f'"grid[{idx}]" (expanded): {exc}') from None

        replications = raw.get(
            "replications",
            DEFAULT_SIZE_REPLICATIONS
            if kind is ExperimentKind.SIZE
            else DEFAULT_POWER_REPLICATIONS,
        )

        master_seed = seed_override if seed_override is not None else raw.get("master_seed")
        if master_seed is None:
            raise ConfigError('"master_seed": required (or pass --seed)')

        workers = workers_override if workers_override is not None else raw.get("workers", 1)

        out_path = out_override if out_override is not None else raw.get("out")

        return cls(
            kind=kind,
            grid=tuple(grid),
            replications=replications,
            alpha=raw.get("alpha", 0.05),
            master_seed=master_seed,
            workers=workers,
            out_path=out_path,
        )

    @classmethod
    def from_json_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_mapping(raw, **overrides)


@dataclass(frozen=True)
class CellResult:
    """Rejection-rate summary of one grid cell."""

    cell: GridCell
    rate_max: float
    rate_sum: float
    rate_fc: float
    replications_used: int
    se_max: float
    se_sum: float
    se_fc: float

    def __post_init__(self):
        for name in ("rate_max", "rate_sum", "rate_fc"):
            check_probability(name, getattr(self, name))
        check_integer("replications_used", self.replications_used, 1)
        for name in ("se_max", "se_sum", "se_fc"):
            check_number(name, getattr(self, name))

    @classmethod
    def from_counts(cls, cell: GridCell, counts: tuple[int, int, int], reps: int) -> "CellResult":
        def se(k):
            r = k / reps
            return float(np.sqrt(r * (1.0 - r) / reps))

        return cls(
            cell=cell,
            rate_max=counts[0] / reps,
            rate_sum=counts[1] / reps,
            rate_fc=counts[2] / reps,
            replications_used=reps,
            se_max=se(counts[0]),
            se_sum=se(counts[1]),
            se_fc=se(counts[2]),
        )


def derive_seed(master_seed: int, cell_key: int, rep: int, attempt: int = 0) -> int:
    """Deterministic 128-bit seed for one replication attempt."""
    seq = np.random.SeedSequence([master_seed, cell_key, rep, attempt])
    return int.from_bytes(seq.generate_state(4, np.uint32).tobytes(), "little")


def _replicate(
    cell: GridCell, cell_key: int, rep: int, master_seed: int, alpha: float
) -> tuple[bool, bool, bool]:
    """Run one replication."""
    # Resolved per call, so a replaced module attribute takes effect.
    generate = gen_null_panel if cell.scenario.is_null else gen_alternative_panel
    for attempt in range(MAX_REDRAWS):
        seed = derive_seed(master_seed, cell_key, rep, attempt)
        spec = DgpSpec(
            scenario=cell.scenario, innovation=cell.innovation,
            n=cell.n, p=cell.p, seed=seed, m=cell.m,
        )
        try:
            panel = generate(spec)
            break
        except NonstationaryDrawError:
            continue
    else:
        raise DataError(
            f"exceeded {MAX_REDRAWS} coefficient redraws for cell key {cell_key}, "
            f"replication {rep}"
        )
    report = run_all(panel, cell.lags, alpha)
    return (report.reject_max, report.reject_sum, report.reject_fc)


# How long one wait for the claim counter's lock lasts before the claimer
# asks again whether it should stop.
_CLAIM_WAIT_S = 0.1


def _claim_jobs(counter, task, end, stopped=lambda: False):
    """Run ``task(job)`` on the jobs claimed one at a time from ``counter``
    until none below ``end`` is left.

    Returns the (job, result) pairs of the jobs run, in the order run, and
    the first failure as (job, exception), or None.  A failure moves the
    counter to the end, so that no one claims another job.  When
    ``stopped()`` turns true, the claims end early: before each claim, and
    while the counter's lock is waited for.
    """
    done = []
    lock = counter.get_lock()
    while True:
        while True:
            if stopped():
                return done, None
            if lock.acquire(timeout=_CLAIM_WAIT_S):
                break
        try:
            job = counter.value
            counter.value = job + 1
        finally:
            lock.release()
        if job >= end:
            return done, None
        try:
            done.append((job, task(job)))
        except Exception as exc:
            _stop_claims(counter, end)
            return done, (job, exc)


class _RemoteTraceback(Exception):
    """A helper process's formatted traceback, chained as the cause of its error."""


def _helper(counter, task, end, writer) -> None:
    """A helper process: send ``_claim_jobs``' (done, failure) through ``writer``,
    a failure with its formatted traceback, which a pickled exception loses."""
    done, failure = _claim_jobs(counter, task, end)
    if failure is not None:
        exc = failure[1]
        failure += ("".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),)
    writer.send((done, failure))


def _stop_claims(counter, end: int) -> None:
    """Move the counter to the end, so that no one claims another job.

    A helper killed while it holds the counter's lock never releases it;
    no one claims after that, so the lock is given up on after a second.
    """
    lock = counter.get_lock()
    if lock.acquire(timeout=1.0):
        try:
            counter.value = end
        finally:
            lock.release()


def run_jobs(task, jobs: int, workers: int) -> list:
    """Run ``task(job)`` for job = 0..jobs-1 on ``workers`` processes, this
    one included; return the results in job order.

    This process and the ``min(workers, jobs) - 1`` helper processes it
    starts claim the jobs one at a time from a shared counter, so none
    waits for another between jobs.  One worker, or one job, starts no
    helper: the jobs run in order in this process.  A helper gets the
    counter, ``task`` and the write end of a pipe as its arguments, so
    ``task`` must pickle where helpers are spawned, and sends its results
    through the pipe once it is done.  A result depends only on its job,
    so the list is that of a serial run for any worker count.

    A failing job moves the counter to the end, so every process stops
    after its current job; the failure with the lowest job index, the one
    a serial run meets first, is raised, with a helper's traceback as its
    cause.  Once any helper has sent its results or exited, this process
    claims no more jobs; a helper that exits without sending them raises
    ``BrokenProcessPool``.  On that, and on an exception or interrupt
    here, the counter is moved to the end and the helpers still running
    are ended.  Every helper is joined before this returns or raises.
    """
    check_integer('"workers"', workers, 1)
    helpers = min(workers, jobs) - 1  # no more than one process per job
    if helpers <= 0:
        return [task(job) for job in range(jobs)]
    counter = multiprocessing.Value("q", 0)
    processes, unread = [], {}  # every helper; those whose results are unread, by pipe
    try:
        for _ in range(helpers):
            reader, writer = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(target=_helper, args=(counter, task, jobs, writer))
            # The helper holds the only write end: the read end turns ready as it exits.
            with writer:
                process.start()
            processes.append(process)
            unread[reader] = process
        # Nothing is left to claim once a helper has sent its results or died.
        claims = [_claim_jobs(counter, task, jobs, stopped=lambda: bool(wait(list(unread), 0)))]
        while unread:
            for reader in wait(list(unread)):
                try:
                    claims.append(reader.recv())
                except EOFError:
                    from concurrent.futures.process import BrokenProcessPool
                    raise BrokenProcessPool("a helper exited without its results") from None
                del unread[reader]
    finally:
        _stop_claims(counter, jobs)
        for process in unread.values():  # it may block on a full pipe
            process.terminate()
        for process in processes:
            process.join()
    results = [None] * jobs
    failures = []
    for done, failure in claims:
        for job, result in done:
            results[job] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        # This process's failure is (job, exc); a helper's adds its traceback.
        _, exc, *remote = min(failures, key=itemgetter(0))
        if remote:
            exc.__cause__ = _RemoteTraceback(*remote)
        raise exc
    return results


def _replication(grid, keys, reps, master_seed, alpha, job):
    """Job ``job`` of an experiment: replication ``job % reps`` of cell ``job // reps``."""
    index, rep = divmod(job, reps)
    return _replicate(grid[index], keys[index], rep, master_seed, alpha)


def run_experiment(cfg: ExperimentConfig) -> list[CellResult]:
    """Run every grid cell for the configured replication count.

    The (cell, replication) jobs of the whole grid are numbered cell after
    cell, in grid order, and run by ``run_jobs`` on ``cfg.workers``
    processes, this one included, so no cell waits for the previous one
    to drain.  Each job derives its RNG stream from (master_seed, cell id,
    index) and returns its three reject decisions, which are summed per
    cell in job order, so the output is that of a serial run for any
    worker count.  A failing job raises the error a serial run meets
    first, as ``run_jobs`` describes.
    """
    grid, reps = cfg.grid, cfg.replications
    keys = tuple(cell.key() for cell in grid)
    task = partial(_replication, grid, keys, reps, cfg.master_seed, cfg.alpha)
    rejects = run_jobs(task, len(grid) * reps, cfg.workers)
    return [
        CellResult.from_counts(
            cell, tuple(map(sum, zip(*rejects[i * reps : (i + 1) * reps]))), reps
        )
        for i, cell in enumerate(grid)
    ]


# -- emission ----------------------------------------------------------------

RATE_COLUMNS = ("rate_max", "rate_sum", "rate_fc", "se_max", "se_sum", "se_fc")
RESULT_COLUMNS = ("scenario", "innovation", "n", "p", "K", "m", "replications") + RATE_COLUMNS


def _rate_cells(res: CellResult) -> list[str]:
    return [repr(getattr(res, name)) for name in RATE_COLUMNS]


def _result_row(res: CellResult) -> list:
    c = res.cell
    return [
        c.scenario.value, c.innovation.value, c.n, c.p, c.lags,
        "" if c.m is None else c.m, res.replications_used,
    ] + _rate_cells(res)


def emit_table(results: list[CellResult], out_path: str, format: str = "csv") -> str:
    """Write results as a flat CSV or a grouped markdown table.

    The markdown layout mirrors the size-table shape: one block per
    (scenario, innovation), rows ordered by (n, p), and per tested lag
    count a MAX/SUM/FC rate column triple.  No timings are emitted, so
    output files are reproducible byte for byte.
    """
    if not results:
        raise ConfigError("refusing to emit an empty result table")
    if format == "csv":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for res in results:
                writer.writerow(_result_row(res))
        return out_path
    if format != "markdown":
        raise ConfigError(f'format must be "csv" or "markdown", got {format!r}')

    blocks: dict[tuple, dict] = {}
    for res in results:
        c = res.cell
        block = blocks.setdefault((c.scenario.value, c.innovation.value), {})
        block[(c.n, c.p, c.lags, c.m)] = res
    lag_values = sorted({res.cell.lags for res in results})
    m_values = sorted({res.cell.m for res in results if res.cell.m is not None})

    lines = []
    for (scenario, innovation), block in blocks.items():
        lines.append(f"## {scenario}, {innovation} innovations")
        lines.append("")
        row_keys = sorted({(n, p, m) for (n, p, _, m) in block})
        header = ["n", "p"] + (["m"] if m_values else [])
        for k in lag_values:
            header += [f"K={k} MAX", f"K={k} SUM", f"K={k} FC"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for (n, p, m) in row_keys:
            row = [str(n), str(p)] + ([str(m)] if m_values else [])
            for k in lag_values:
                res = block.get((n, p, k, m))
                if res is None:
                    row += ["", "", ""]
                else:
                    row += [
                        f"{res.rate_max:.3f}",
                        f"{res.rate_sum:.3f}",
                        f"{res.rate_fc:.3f}",
                    ]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return out_path


def _check_power_curve(cells) -> None:
    """Require grid cells that make one power curve: all share (scenario,
    innovation, n, p, K) and together cover every block size m = 1..max(m).
    """
    designs = {(c.scenario, c.innovation, c.n, c.p, c.lags) for c in cells}
    if len(designs) > 1:
        pretty = sorted(
            f"({s.value}, {i.value}, n={n}, p={p}, K={k})" for (s, i, n, p, k) in designs
        )
        raise ConfigError(
            "power-curve cells must share (scenario, innovation, n, p, K); got "
            + ", ".join(pretty)
        )
    if any(c.m is None for c in cells):
        raise ConfigError("power-curve cells must all carry a block size m")
    m_values = {c.m for c in cells}
    missing = sorted(set(range(1, max(m_values) + 1)) - m_values)
    if missing:
        raise ConfigError(
            f"power curve is missing block sizes {missing}; need every m in 1..{max(m_values)}"
        )


def emit_power_curve(results: list[CellResult], out_path: str) -> str:
    """Write a per-m rejection-rate CSV for one power-curve design.

    All cells must share (scenario, innovation, n, p, K) and together
    cover every block size m = 1..max(m).
    """
    if not results:
        raise ConfigError("refusing to emit an empty power curve")
    _check_power_curve([r.cell for r in results])
    by_m = {r.cell.m: r for r in sorted(results, key=lambda r: r.cell.m)}
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("m",) + RATE_COLUMNS)
        for m, res in by_m.items():
            writer.writerow([m] + _rate_cells(res))
    return out_path

"""Experiment definitions for every table and figure of the paper.

Each function returns a plain-data result object; the ``*_tables``
function beside it declares how that result renders (text and CSV, see
:mod:`repro.bench.table`).  Two matrix sizes exist:

* ``quick`` — reduced process counts and problem sizes that run in
  minutes on a laptop while preserving every studied regime (multi-node
  placement, I/O-dominance on crill, communication share on Ibex, the
  many-small-extents character of Tile-256);
* ``full`` — the paper's process-count ladders and problem sizes
  (hours of host time; the artifact shapes are the same).

Every case keeps the paper's methodology: 3+ repetitions per series with
fresh noise seeds, min-of-series point estimates, winner counts and
positive-average improvements (see :mod:`repro.analysis.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter, itemgetter

from repro.analysis.stats import (
    average_positive_improvement,
    best_algorithm,
    relative_improvement,
)
from repro.bench.runner import (
    Case,
    MatrixResult,
    measure,
    measure_all,
    run_matrix,
    specs_for,
)
from repro.bench.table import Column, Table, csv_columns, pivot
from repro.collio.api import RunSpec
from repro.collio.config import CollectiveConfig
from repro.collio.overlap import ASYNC_WRITE_ALGORITHMS
from repro.collio.read import run_collective_read
from repro.config import DEFAULT_SCALE, scaled
from repro.fs.presets import lustre_like
from repro.units import GB, MB, MiB, fmt_time
from repro.workloads import make_workload

__all__ = [
    "ALGORITHM_ORDER",
    "SHUFFLE_ORDER",
    "BENCHMARK_ORDER",
    "STAGING_POLICY_ORDER",
    "ALGO_LABEL",
    "table1_cases",
    "fig4_cases",
    "table1",
    "fig1",
    "improvements",
    "fig4",
    "breakdown",
    "lustre_note",
    "read_study",
    "overlap_study",
    "twolayer_study",
    "staging_study",
]

ALGORITHM_ORDER = ["no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"]
SHUFFLE_ORDER = ["two_sided", "one_sided_fence", "one_sided_lock"]
BENCHMARK_ORDER = ["ior", "tile_256", "tile_1m", "flash"]
CLUSTERS = ["crill", "ibex"]

ALGO_LABEL = {
    "no_overlap": "No Overlap",
    "comm_overlap": "Comm Overlap",
    "write_overlap": "Write Overlap",
    "write_comm": "Write-Comm",
    "write_comm2": "Write-Comm 2",
}
BENCH_LABEL = {
    "ior": "IOR",
    "tile_256": "Tile I/O 256",
    "tile_1m": "Tile I/O 1M",
    "flash": "Flash I/O",
}
SHUFFLE_LABEL = {
    "two_sided": "Two-sided",
    "one_sided_fence": "1-sided fence",
    "one_sided_lock": "1-sided lock",
}

# --------------------------------------------------------------------------
# Matrices
# --------------------------------------------------------------------------

#: Quick-mode problem-size overrides (post-scale byte values) chosen so a
#: case runs in seconds while keeping its regime; full mode uses the
#: paper's sizes (workload defaults).
_QUICK_SIZE: dict[str, tuple] = {
    "ior": (("block_size", 4 * MiB),),
    "tile_1m": (("element_size", 4096),),
    "tile_256": (("rows", 256), ("row_elements", 16)),
    "flash": (),
}

#: Process-count ladders.  All counts span >= 2 nodes on both clusters
#: (crill has 48 cores/node, Ibex 40): single-node runs are not a regime
#: the paper evaluates.
_LADDERS = {
    "quick": {
        "ior": [96, 144],
        "tile_256": [64, 100],
        "tile_1m": [100, 144],
        "flash": [96, 144],
    },
    "full": {
        "ior": [64, 128, 192, 256, 320, 384, 448, 512, 576, 704],
        "tile_256": [64, 100, 144, 196, 256, 400, 576, 704],
        "tile_1m": [64, 100, 144, 196, 256, 400, 576, 704],
        "flash": [64, 128, 192, 256, 320, 384, 448, 512, 576, 704],
    },
}

#: Extra problem-size variants (full mode only), mirroring the paper's
#: "problem sizes" dimension of Table I.
_FULL_SIZE_VARIANTS: dict[str, list[tuple]] = {
    "ior": [(), (("block_size", 8 * MiB),), (("block_size", 32 * MiB),)],
    "tile_256": [()],
    "tile_1m": [()],
    "flash": [(), (("blocks_per_proc", 20),)],
}


def _sizes(benchmark: str, mode: str) -> list[tuple]:
    if mode == "quick":
        return [_QUICK_SIZE[benchmark]]
    return _FULL_SIZE_VARIANTS[benchmark]


def _cases(benchmarks, mode: str, extra_counts: dict[str, set] | None = None) -> list[Case]:
    ladder = _LADDERS[mode]
    cases = []
    for benchmark in benchmarks:
        for cluster in CLUSTERS:
            counts = ladder[benchmark]
            if extra_counts and benchmark in extra_counts:
                counts = sorted(set(counts) | extra_counts[benchmark])
            for nprocs in counts:
                for size in _sizes(benchmark, mode):
                    cases.append(Case(benchmark, cluster, nprocs, size))
    return cases


def table1_cases(mode: str = "quick") -> list[Case]:
    """The (benchmark, platform, process count, size) matrix of Table I."""
    return _cases(BENCHMARK_ORDER, mode)


_FIG4_BENCHMARKS = ("ior", "tile_256", "tile_1m")


def fig4_cases(mode: str = "quick") -> list[Case]:
    """Fig. 4's matrix: IOR and both Tile I/O configurations."""
    # Sec. IV-B's scale trend needs full-mode crill points on both sides
    # of the 256-process threshold.
    extra = {"tile_256": {100, 256, 400}} if mode == "full" else None
    return _cases(_FIG4_BENCHMARKS, mode, extra)


def _seconds(header: str, name: str, get=None) -> Column:
    """A time column: SI-suffixed in text, plain seconds in CSV."""
    return Column(header, name, get, fmt_time, "{:.9f}")


# --------------------------------------------------------------------------
# Table I and Figure 4 — winner counts
# --------------------------------------------------------------------------

@dataclass
class WinnerCounts:
    """How many of a benchmark's cases each contender won."""

    #: benchmark -> {contender: cases won}
    rows: dict[str, dict[str, int]] = field(default_factory=dict)
    matrix: MatrixResult | None = None

    @property
    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows.values():
            for key, n in row.items():
                out[key] = out.get(key, 0) + n
        return out

    def count(self, benchmarks, contenders, winner) -> None:
        """Fill ``rows`` from ``matrix``: ``winner(case_result)`` names
        the contender that won a case."""
        for benchmark in benchmarks:
            row = dict.fromkeys(contenders, 0)
            for case_result in self.matrix.cases(benchmark=benchmark):
                row[winner(case_result)] += 1
            self.rows[benchmark] = row


class Table1Result(WinnerCounts):
    """Winner counts per overlap algorithm (the paper's Table I)."""

    @property
    def total_cases(self) -> int:
        return sum(self.totals.values())

    def async_write_share(self) -> float:
        """Fraction of cases won by an asynchronous-write algorithm."""
        totals = self.totals
        won = sum(n for a, n in totals.items() if a in ASYNC_WRITE_ALGORITHMS)
        return won / max(1, self.total_cases)


def table1(
    mode: str = "quick", matrix: MatrixResult | None = None, **matrix_options
) -> Table1Result:
    """Reproduce Table I: count, per benchmark, the winning algorithm.

    Measures the matrix unless one is passed in; ``matrix_options`` are
    :func:`~repro.bench.runner.run_matrix`'s (reps, scale, progress, jobs).
    """
    if matrix is None:
        matrix = run_matrix(table1_cases(mode), ALGORITHM_ORDER, **matrix_options)
    result = Table1Result(matrix=matrix)
    result.count(BENCHMARK_ORDER, ALGORITHM_ORDER,
                 lambda case_result: best_algorithm(case_result.by_algorithm()))
    return result


def _wins_table(title, result, benchmarks, keys, labels, key_name, footer) -> Table:
    """Winner counts: benchmarks down, ``keys`` across, a totals row."""
    wide = [(BENCH_LABEL[b], result.rows.get(b, {})) for b in benchmarks]
    wide.append(("Total:", result.totals))
    return Table(
        title,
        [Column("Benchmark", get=itemgetter(0)),
         *pivot(keys, labels.get, lambda wins: wins or 0)],
        wide, footer,
        long=Table("", csv_columns("benchmark", key_name, "wins"), [
            (benchmark, key, wins)
            for benchmark, row in result.rows.items() for key, wins in row.items()
        ]),
    )


def table1_tables(result: Table1Result) -> list[Table]:
    return [_wins_table(
        "TABLE I — number of cases an overlap algorithm was best", result,
        BENCHMARK_ORDER, ALGORITHM_ORDER, ALGO_LABEL, "algorithm",
        f"cases: {result.total_cases}; won by an async-write algorithm: "
        f"{result.async_write_share():.0%}",
    )]


@dataclass
class Fig4Result(WinnerCounts):
    """Winner counts per shuffle primitive (on Write-Comm-2)."""

    #: (benchmark, cluster, nprocs) -> winning shuffle, for the scale trend.
    winners: dict[tuple[str, str, int], str] = field(default_factory=dict)

    def two_sided_share(self) -> float:
        totals = self.totals
        return totals.get("two_sided", 0) / max(1, sum(totals.values()))

    def crill_onesided_wins(self, min_procs: int = 0, max_procs: int = 10**9) -> int:
        return sum(
            1
            for (b, cl, n), win in self.winners.items()
            if cl == "crill" and min_procs <= n <= max_procs and win != "two_sided"
        )


def fig4(
    mode: str = "quick", matrix: MatrixResult | None = None, **matrix_options
) -> Fig4Result:
    """Reproduce Fig. 4: two-sided vs one-sided shuffles on Write-Comm-2
    (arguments as for :func:`table1`)."""
    if matrix is None:
        matrix = run_matrix(fig4_cases(mode), ["write_comm2"],
                            shuffles=tuple(SHUFFLE_ORDER), **matrix_options)
    result = Fig4Result(matrix=matrix)

    def winner(case_result) -> str:
        series = case_result.by_shuffle("write_comm2")
        name = min(series.items(), key=lambda kv: (kv[1].point, kv[0]))[0]
        c = case_result.case
        result.winners[(c.benchmark, c.cluster, c.nprocs)] = name
        return name

    result.count(_FIG4_BENCHMARKS, SHUFFLE_ORDER, winner)
    return result


def fig4_tables(result: Fig4Result) -> list[Table]:
    return [_wins_table(
        "FIG. 4 — cases each shuffle primitive was best (Write-Comm-2)", result,
        _FIG4_BENCHMARKS, SHUFFLE_ORDER, SHUFFLE_LABEL, "shuffle",
        f"two-sided share: {result.two_sided_share():.0%}",
    )]


# --------------------------------------------------------------------------
# Figure 1 — Tile-1M execution times
# --------------------------------------------------------------------------

@dataclass
class Fig1Result:
    """Execution time per (cluster, nprocs, algorithm), min-of-series."""

    points: dict[tuple[str, int, str], float] = field(default_factory=dict)
    nprocs_list: list[int] = field(default_factory=list)

    def improvement(self, cluster: str, nprocs: int) -> float:
        """Best overlap algorithm's gain over the baseline."""
        base = self.points[(cluster, nprocs, "no_overlap")]
        best = min(
            self.points[(cluster, nprocs, a)] for a in ALGORITHM_ORDER if a != "no_overlap"
        )
        return relative_improvement(base, best)


def fig1(mode: str = "quick", **matrix_options) -> Fig1Result:
    """Reproduce Fig. 1: Tile-1M at two process counts on both clusters
    (``matrix_options`` as for :func:`table1`)."""
    counts = [256, 576] if mode == "full" else [100, 196]
    size = _sizes("tile_1m", mode)[0]
    result = Fig1Result(nprocs_list=counts)
    cases = [Case("tile_1m", cluster, nprocs, size)
             for cluster in CLUSTERS for nprocs in counts]
    matrix = run_matrix(cases, ALGORITHM_ORDER, **matrix_options)
    for case, case_result in zip(cases, matrix.results):
        for algorithm, series in case_result.by_algorithm().items():
            result.points[(case.cluster, case.nprocs, algorithm)] = series.point
    return result


def fig1_tables(result: Fig1Result) -> list[Table]:
    wide = [
        (cluster, nprocs,
         {a: result.points[(cluster, nprocs, a)] for a in ALGORITHM_ORDER})
        for cluster in CLUSTERS for nprocs in result.nprocs_list
    ]
    return [Table(
        "FIG. 1 — Tile I/O 1M execution time (min of series)",
        [Column("Cluster", get=itemgetter(0)), Column("Procs", get=itemgetter(1)),
         *pivot(ALGORITHM_ORDER, ALGO_LABEL.get, fmt_time),
         Column("best gain", get=lambda w: result.improvement(w[0], w[1]),
                text="{:+.1%}")],
        wide,
        long=Table("", csv_columns("cluster", "nprocs", "algorithm", "seconds"), [
            (*key, f"{t:.9f}") for key, t in sorted(result.points.items())
        ]),
    )]


# --------------------------------------------------------------------------
# Figures 2 and 3 — average positive improvement
# --------------------------------------------------------------------------

@dataclass
class ImprovementResult:
    """Average positive improvement per (algorithm, benchmark) on a cluster."""

    cluster: str
    #: (algorithm, benchmark) -> mean positive improvement, or None.
    values: dict[tuple[str, str], float | None] = field(default_factory=dict)

    def range_over_all(self) -> tuple[float, float]:
        present = [v for v in self.values.values() if v is not None]
        if not present:
            return (0.0, 0.0)
        return (min(present), max(present))


def improvements(
    cluster: str, matrix: MatrixResult | None = None, **table1_options
) -> ImprovementResult:
    """Reproduce Fig. 2 (``cluster="crill"``) or Fig. 3 (``"ibex"``): the
    average positive improvement over Table I's matrix, measured with
    :func:`table1`'s options when not passed in."""
    if matrix is None:
        matrix = table1(**table1_options).matrix
    result = ImprovementResult(cluster)
    for benchmark in BENCHMARK_ORDER:
        cases = [r.by_algorithm() for r in matrix.cases(benchmark=benchmark, cluster=cluster)]
        for algorithm in ALGORITHM_ORDER:
            if algorithm == "no_overlap":
                continue
            # A benchmark can be absent from a partial matrix; that is
            # "no data" (None), distinct from the ValueError the stats
            # layer raises when handed an empty tally by mistake.
            result.values[(algorithm, benchmark)] = (
                average_positive_improvement(cases, algorithm) if cases else None
            )
    return result


def improvement_tables(result: ImprovementResult) -> list[Table]:
    figure = {"crill": "FIG. 2", "ibex": "FIG. 3"}[result.cluster]
    lo, hi = result.range_over_all()
    wide = [
        (a, {b: result.values.get((a, b)) for b in BENCHMARK_ORDER})
        for a in ALGORITHM_ORDER if a != "no_overlap"
    ]
    return [Table(
        f"{figure} — average positive improvement over No Overlap ({result.cluster})",
        [Column("Algorithm", get=itemgetter(0), text=ALGO_LABEL.get),
         *pivot(BENCHMARK_ORDER, BENCH_LABEL.get,
                lambda v: "—" if v is None else f"{v:.1%}")],
        wide, f"range: {lo:.1%} .. {hi:.1%}",
        long=Table(
            "",
            csv_columns("cluster", "algorithm", "benchmark", "avg_positive_improvement"),
            [(result.cluster, a, b, "" if v is None else f"{v:.6f}")
             for (a, b), v in sorted(result.values.items())],
        ),
    )]


# --------------------------------------------------------------------------
# Sec. IV-A breakdown, Sec. V Lustre note and the IOR-pattern extensions
# --------------------------------------------------------------------------

def _ior_scenario(mode: str, scale: int) -> tuple[int, dict, CollectiveConfig]:
    """(nprocs, views, config) of the IOR pattern the single-scenario
    studies (Lustre note, reads, overlap efficiency) share."""
    nprocs = 96 if mode == "quick" else 256
    size = dict(_QUICK_SIZE["ior"]) if mode == "quick" else {}
    workload = make_workload("ior", nprocs, scale=scale, **size)
    return nprocs, workload.views(), CollectiveConfig.for_scale(scale)


def breakdown(
    mode: str = "quick", scale: int = DEFAULT_SCALE, jobs: int = 1
) -> dict[tuple[str, int], tuple[float, float]]:
    """Reproduce Sec. IV-A's communication/IO split (no-overlap, Tile-1M):
    ``(cluster, nprocs) -> (comm_fraction, io_fraction)`` of an aggregator.

    Always uses the paper's Tile-1M problem size — the quoted 93%/7%
    (crill) vs 77%/23% (Ibex) splits are size-dependent; quick mode only
    reduces the process counts.
    """
    counts = [256, 576] if mode == "full" else [144, 256]
    specs = {}
    for cluster in CLUSTERS:
        cluster_spec, fs_spec = specs_for(cluster, scale)
        for nprocs in counts:
            workload = make_workload("tile_1m", nprocs, scale=scale)
            config = CollectiveConfig.for_scale(
                scale, extent_cost_factor=workload.extent_cost_factor
            )
            specs[(cluster, nprocs)] = RunSpec(
                cluster=cluster_spec, fs=fs_spec, nprocs=nprocs,
                views=workload.views(), algorithm="no_overlap",
                config=config, carry_data=False,
            )
    shares = {}
    for key, (_, run) in zip(specs, measure_all(specs.values(), 1, jobs=jobs)):
        agg = run.per_rank_stats[0]  # rank 0 is always an aggregator
        comm = agg.time_in("shuffle") + agg.time_in("shuffle_init")
        io = agg.time_in("write")
        total = comm + io
        shares[key] = (comm / total, io / total)
    return shares


def breakdown_tables(shares: dict) -> list[Table]:
    return [Table(
        "SEC. IV-A — no-overlap phase breakdown (aggregator, Tile-1M)",
        [Column("Cluster", "cluster"), Column("Procs", "nprocs"),
         Column("Communication", "comm_fraction", text="{:.0%}", csv="{:.6f}"),
         Column("File I/O", "io_fraction", text="{:.0%}", csv="{:.6f}")],
        [(*key, *split) for key, split in sorted(shares.items())],
    )]


@dataclass
class LustreResult:
    """Write-Overlap's gain over the baseline per file system."""

    #: fs name -> (baseline time, write_overlap time, improvement)
    entries: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def gain(self, fs: str) -> float:
        return self.entries[fs][2]


def lustre_note(
    mode: str = "quick", reps: int = 3, scale: int = DEFAULT_SCALE, jobs: int = 1
) -> LustreResult:
    """Reproduce the Sec. V observation: poor aio support (Lustre-like)
    erases the advantage of asynchronous-write overlap."""
    nprocs, views, config = _ior_scenario(mode, scale)
    cluster_spec, beegfs = specs_for("ibex", scale)
    file_systems = {"beegfs": beegfs, "lustre": lustre_like(scale=scale)}
    runs = measure_all(
        [RunSpec(cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, views=views,
                 algorithm=algorithm, config=config, carry_data=False)
         for fs_spec in file_systems.values()
         for algorithm in ("no_overlap", "write_overlap")],
        reps, jobs=jobs,
    )
    result = LustreResult()
    for fs_name in file_systems:
        base, overlapped = next(runs)[0].point, next(runs)[0].point
        result.entries[fs_name] = (
            base, overlapped, relative_improvement(base, overlapped))
    return result


def lustre_tables(result: LustreResult) -> list[Table]:
    return [Table(
        "SEC. V — Write Overlap gain by file system (IOR)",
        [Column("File system", "file_system"),
         _seconds("No Overlap", "seconds_no_overlap"),
         _seconds("Write Overlap", "seconds_write_overlap"),
         Column("gain", "gain", text="{:+.1%}", csv="{:.6f}")],
        [(fs, *entry) for fs, entry in result.entries.items()],
    )]


@dataclass
class ReadStudyResult:
    """Collective-read extension study: algorithm x scatter times."""

    #: (cluster, algorithm, scatter) -> point time
    points: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def gain(self, cluster: str, algorithm: str, scatter: str = "two_sided") -> float:
        base = self.points[(cluster, "no_overlap", scatter)]
        return relative_improvement(base, self.points[(cluster, algorithm, scatter)])


def _run_read(spec: RunSpec):
    """A :class:`RunSpec` run in the read direction (``shuffle`` names
    the scatter primitive), so reads share the repetition primitive."""
    return run_collective_read(
        spec.cluster, spec.fs, spec.nprocs, spec.views,
        algorithm=spec.algorithm, scatter=spec.shuffle, config=spec.config,
        seed=spec.seed, carry_data=spec.carry_data,
    )


def read_study(
    mode: str = "quick", reps: int = 3, scale: int = DEFAULT_SCALE, jobs: int = 1
) -> ReadStudyResult:
    """Extension experiment: the paper's overlap question for collective
    *reads* (read-ahead vs scatter overlap vs no overlap, two-sided vs
    one-sided Get)."""
    nprocs, views, config = _ior_scenario(mode, scale)
    specs = {}
    for cluster in CLUSTERS:
        cluster_spec, fs_spec = specs_for(cluster, scale)
        for algorithm in ("no_overlap", "read_ahead", "scatter_overlap"):
            for scatter in ("two_sided", "one_sided_get"):
                specs[(cluster, algorithm, scatter)] = RunSpec(
                    cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, views=views,
                    algorithm=algorithm, shuffle=scatter, config=config,
                    carry_data=False,
                )
    runs = measure_all(specs.values(), reps, jobs=jobs, run=_run_read)
    return ReadStudyResult({key: series.point for key, (series, _) in zip(specs, runs)})


def read_tables(result: ReadStudyResult) -> list[Table]:
    return [Table(
        "EXTENSION — two-phase collective READ (IOR pattern)",
        [Column("cluster", "cluster", width=8, align="<"),
         Column("algorithm", "algorithm", width=17, align="<"),
         Column("scatter", "scatter", width=15, align="<"),
         Column("time", "seconds", text=lambda t: f"{t * 1e3:.2f} ms",
                csv="{:.9f}", width=12),
         # The header is one wider than its cells (sic, kept byte-stable).
         Column(" vs no_overlap", "gain_vs_no_overlap", text="{:+.1%}",
                csv="{:.6f}", width=13)],
        [(*key, t, result.gain(*key)) for key, t in sorted(result.points.items())],
        sep=" ",
    )]


@dataclass
class OverlapStudyResult:
    """Span-derived overlap efficiency per algorithm (EXPERIMENTS.md X7).

    Efficiency is the fraction of file-write time hidden under same-rank
    shuffle communication, computed from the exported spans of a traced
    run (see :func:`repro.obs.overlap.overlap_report`).
    """

    cluster: str = "crill"
    nprocs: int = 0
    num_cycles: int = 0
    #: algorithm -> (elapsed, io_time, hidden_time, efficiency)
    rows: dict[str, tuple[float, float, float, float]] = field(default_factory=dict)
    #: Spans of the last (most-overlapped) algorithm, for ``--trace-out``.
    spans: list = field(default_factory=list)


def overlap_study(
    mode: str = "quick", scale: int = DEFAULT_SCALE, cluster: str = "crill",
    jobs: int = 1,
) -> OverlapStudyResult:
    """Extension experiment X7: how much write time does each algorithm
    actually hide under the shuffle?

    Runs the four overlap algorithms (plus the baseline) on the crill
    preset with span tracing enabled and derives the overlap efficiency
    from the recorded ``io``/``comm`` spans.  The baseline must come out
    at ~0 (its writes are strictly ordered after the shuffle) and every
    overlap algorithm above it.  The algorithms that keep a shuffle
    posted across the blocking write (Comm-Overlap, Write-Comm) cover
    most of the write interval; the asynchronous-write algorithms are
    bounded by the platform's communication share.
    """
    nprocs, views, config = _ior_scenario(mode, scale)
    cluster_spec, fs_spec = specs_for(cluster, scale)
    result = OverlapStudyResult(cluster=cluster, nprocs=nprocs)
    runs = measure_all(
        [RunSpec(cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, views=views,
                 algorithm=algorithm, config=config, carry_data=False, trace=True)
         for algorithm in ALGORITHM_ORDER],
        1, jobs=jobs,
    )
    for algorithm, (_, run) in zip(ALGORITHM_ORDER, runs):
        report = run.overlap_report()
        result.rows[algorithm] = (
            run.elapsed, report.io_time, report.hidden_time, report.efficiency
        )
        result.num_cycles = max(result.num_cycles, run.num_cycles)
        result.spans = run.spans
    return result


def overlap_tables(result: OverlapStudyResult) -> list[Table]:
    return [Table(
        "X7 — overlap efficiency from spans "
        f"(IOR@{result.cluster} P={result.nprocs}, {result.num_cycles} cycles)",
        [Column("Algorithm", "algorithm", text=ALGO_LABEL.get),
         _seconds("Time", "seconds"),
         _seconds("Write time", "io_seconds"),
         _seconds("Hidden", "hidden_seconds"),
         Column("Overlap eff.", "overlap_efficiency", text="{:.1%}", csv="{:.6f}")],
        [(a, *result.rows[a]) for a in ALGORITHM_ORDER if a in result.rows],
        "overlap eff. = fraction of file-write time hidden under the shuffle",
    )]


# --------------------------------------------------------------------------
# Two-layer aggregation study
# --------------------------------------------------------------------------

@dataclass
class TwoLayerRow:
    """One (placement, algorithm, shuffle) point of the two-layer sweep."""

    nodes: int
    ranks_per_node: int
    nprocs: int
    algorithm: str
    shuffle: str
    #: Inter-node message counts (single-layer vs two-layer).
    inter_base: int
    inter_two: int
    #: Intra-node gather messages of the two-layer run.
    gather: int
    #: Min-of-series elapsed times, seconds.
    t_base: float
    t_two: float

    @property
    def reduction(self) -> float:
        """Inter-node message-count reduction factor (base / two-layer)."""
        return self.inter_base / self.inter_two if self.inter_two else float("inf")

    @property
    def speedup(self) -> float:
        return self.t_base / self.t_two if self.t_two else float("inf")


@dataclass
class TwoLayerStudyResult:
    """The node-count x algorithm sweep of two-layer aggregation."""

    cluster: str
    benchmark: str
    rows: list[TwoLayerRow] = field(default_factory=list)

    def min_reduction(self, min_ranks_per_node: int = 4) -> float:
        """Smallest message-reduction factor over placements with at
        least ``min_ranks_per_node`` ranks per node (the acceptance bar:
        it must be >= the ranks-per-node factor)."""
        eligible = [r for r in self.rows if r.ranks_per_node >= min_ranks_per_node]
        return min(r.reduction for r in eligible) if eligible else 0.0

    def best_speedup(self) -> float:
        return max((r.speedup for r in self.rows), default=0.0)


def twolayer_study(
    mode: str = "quick",
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    progress=None,
    jobs: int = 1,
) -> TwoLayerStudyResult:
    """Sweep node counts x algorithms, single- vs two-layer aggregation.

    Uses the comm-heavy regime: Ibex's fast BeeGFS keeps the
    communication share high, and a segmented IOR layout (every segment
    holds all ranks' blocks in rank order) interleaves each rank's data
    across every aggregator's file domain, so nearly all shuffle traffic
    crosses nodes.  Reports, per placement and algorithm, the inter-node
    message counts of both layerings and their min-of-series times.
    Message counts are deterministic (placement-derived), times use the
    usual repetition methodology.
    """
    benchmark = "ior"
    cluster = "ibex"
    base_cluster, fs_spec = specs_for(cluster, scale)
    if mode == "quick":
        placements = [(2, 4), (4, 4), (4, 8), (16, 8)]
        shuffles = ["two_sided", "one_sided_fence"]
        size = {"block_size": 4096, "segment_count": 16}
    else:
        placements = [(2, 8), (4, 8), (8, 8), (16, 8), (16, 16)]
        shuffles = list(SHUFFLE_ORDER)
        size = {"block_size": 4096, "segment_count": 32}
    points, specs = [], []
    for nodes, rpn in placements:
        nprocs = nodes * rpn
        workload = make_workload(benchmark, nprocs, scale=scale, **size)
        placed = RunSpec(
            cluster=replace(base_cluster, cores_per_node=rpn), fs=fs_spec,
            nprocs=nprocs, views=workload.views(), carry_data=False,
            config=CollectiveConfig.for_scale(
                scale, extent_cost_factor=workload.extent_cost_factor),
            two_layer=False,
        )
        for algorithm in ALGORITHM_ORDER:
            for shuffle in shuffles:
                points.append((nodes, rpn, algorithm, shuffle))
                single = placed.replace(algorithm=algorithm, shuffle=shuffle)
                specs += [single, single.replace(two_layer=True)]
    runs = measure_all(specs, reps, jobs=jobs)
    result = TwoLayerStudyResult(cluster=cluster, benchmark=benchmark)
    for nodes, rpn, algorithm, shuffle in points:
        (base, base_run), (two, two_run) = next(runs), next(runs)
        base_counters = base_run.metrics.get("counters", {})
        two_counters = two_run.metrics.get("counters", {})
        row = TwoLayerRow(
            nodes=nodes, ranks_per_node=rpn, nprocs=nodes * rpn,
            algorithm=algorithm, shuffle=shuffle,
            inter_base=base_counters.get("comm.messages_inter_node", 0),
            inter_two=two_counters.get("comm.messages_inter_node", 0),
            gather=two_counters.get("intranode.gather_messages", 0),
            t_base=base.point, t_two=two.point,
        )
        result.rows.append(row)
        if progress is not None:
            progress(f"twolayer {nodes}x{rpn} {algorithm}/{shuffle}: inter "
                     f"{row.inter_base}->{row.inter_two} ({row.reduction:.1f}x), "
                     f"{row.speedup:.2f}x speedup")
    return result


def twolayer_tables(result: TwoLayerStudyResult) -> list[Table]:
    a = attrgetter
    return [Table(
        "X9 — two-layer intra-node aggregation "
        f"({result.benchmark}@{result.cluster}, size-only runs)",
        [Column("Nodes", "nodes", a("nodes")),
         Column("R/node", "ranks_per_node", a("ranks_per_node")),
         Column(None, "nprocs", a("nprocs")),
         Column("Algorithm", "algorithm", a("algorithm"), ALGO_LABEL.get),
         Column("Shuffle", "shuffle", a("shuffle"), SHUFFLE_LABEL.get),
         Column("Inter msgs", "inter_messages_single", a("inter_base")),
         Column("2-layer", "inter_messages_twolayer", a("inter_two")),
         Column("Reduction", "reduction", a("reduction"), "{:.1f}x", "{:.3f}"),
         Column("Gather", "gather_messages", a("gather")),
         _seconds("Time", "seconds_single", a("t_base")),
         _seconds("2-layer time", "seconds_twolayer", a("t_two")),
         Column("Speedup", "speedup", a("speedup"), "{:.2f}x", "{:.4f}")],
        result.rows,
        "reduction = inter-node messages single-layer / two-layer; "
        f"min reduction at >=4 ranks/node: {result.min_reduction(4):.1f}x; "
        f"best speedup: {result.best_speedup():.2f}x",
    )]


# --------------------------------------------------------------------------
# X10 — burst-buffer staging: drain policies vs direct writes
# --------------------------------------------------------------------------

#: Order the staging study reports policies in (off first, then the
#: paper-style escalation from fully deferred to fully overlapped).
STAGING_POLICY_ORDER = ["end_of_job", "watermark", "immediate"]
_POLICY_LABEL = {
    "end_of_job": "End-of-job", "watermark": "Watermark", "immediate": "Immediate",
}


@dataclass
class StagingRow:
    """One (algorithm, regime) cell of the staging study."""

    algorithm: str
    regime: str
    t_direct: float
    #: Min-of-series elapsed per drain policy.
    times: dict = field(default_factory=dict)
    #: Back-pressure stall count per policy (last rep's counters).
    stalls: dict = field(default_factory=dict)
    #: Drained bytes per policy (conservation witness).
    drained: dict = field(default_factory=dict)

    def speedup(self, policy: str) -> float:
        """end_of_job time over this policy's time (>1 = overlap won)."""
        t = self.times.get(policy, 0.0)
        return self.times.get("end_of_job", 0.0) / t if t else float("inf")

    @property
    def async_wins(self) -> bool:
        """True when the best overlapping policy strictly beats end_of_job."""
        overlapped = min(self.times["immediate"], self.times["watermark"])
        return overlapped < self.times["end_of_job"]


@dataclass
class StagingStudyResult:
    """The algorithm x regime sweep of the burst-buffer staging tier."""

    cluster: str
    benchmark: str
    nprocs: int
    rows: list[StagingRow] = field(default_factory=list)
    #: Per-algorithm file hashes: {algorithm: {label: sha256}} where the
    #: labels are "direct" and the three drain policies.  Identical
    #: hashes across labels prove staging never changes file contents.
    shas: dict = field(default_factory=dict)
    #: Spans of one traced drain-bound immediate run (for --trace-out).
    spans: list = field(default_factory=list, repr=False)

    def sha_identical(self) -> bool:
        return all(len(set(by_label.values())) == 1 for by_label in self.shas.values())

    def async_wins_everywhere(self) -> bool:
        """The acceptance bar: on the drain-bound regime, overlapped
        draining strictly beats end_of_job for every algorithm."""
        drain_bound = [r for r in self.rows if r.regime == "drain_bound"]
        return bool(drain_bound) and all(r.async_wins for r in drain_bound)

    def gate(self) -> list[str]:
        """Failures of the ``--check`` acceptance bar (empty = pass)."""
        failures = []
        if not self.async_wins_everywhere():
            failures.append("end_of_job was not beaten by an overlapped drain "
                            "policy for every algorithm on the drain-bound tier")
        if not self.sha_identical():
            failures.append("file bytes differ between staging-on and "
                            "staging-off runs")
        return failures


def _staging_regimes(scale: int, capacity: int) -> dict[str, "object"]:
    """The two staging regimes of the study, as scaled StagingSpecs.

    * ``drain_bound`` — a fast NVMe absorbs at 8 GB/s but the shared
      node-to-PFS drain link runs at 300 MB/s: the slow link bounds how
      much of the drain any schedule can hide, so the policies separate
      by how early they start it.
    * ``absorb_bound`` — the mirror image (slow absorb, fast drain link):
      the PFS becomes the drain bottleneck and an overlapped drain hides
      nearly all of it behind the slow absorbs — the largest wins.

    ``capacity`` (scaled bytes) is sized by the caller just above the
    per-node job bytes: ``end_of_job`` defers everything (the un-overlapped
    baseline), while the lowered high watermark makes the ``watermark``
    policy start draining mid-job — three visibly distinct schedules.
    """
    # Imported here so that importing the bench package does not load
    # the staging tier.
    from repro.staging import StagingSpec

    marks = {"high_watermark": 0.3, "low_watermark": 0.1}
    return {
        "drain_bound": StagingSpec.for_scale(
            scale, capacity=capacity,
            absorb_bandwidth=8 * GB, drain_bandwidth=300 * MB, **marks,
        ),
        "absorb_bound": StagingSpec.for_scale(
            scale, capacity=capacity,
            absorb_bandwidth=300 * MB, drain_bandwidth=8 * GB, **marks,
        ),
    }


def staging_study(
    mode: str = "quick",
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    progress=None,
    jobs: int = 1,
) -> StagingStudyResult:
    """Sweep algorithms x drain policies on drain- and absorb-bound tiers.

    Timing rows use size-only runs with the usual repetition methodology
    (min-of-series, fresh noise seeds).  A separate verified pass runs
    every (algorithm, policy) with real data and records the sha256 of
    the file bytes read back from the PFS: staging must never change
    what lands in the file, only when it lands.
    """
    benchmark = "ior"
    cluster = "crill"
    base_cluster, fs_spec = specs_for(cluster, scale)
    if mode == "quick":
        rpn, nodes = 8, 2
        size = {"block_size": 256 * 1024, "segment_count": 8}
    else:
        rpn, nodes = 8, 4
        size = {"block_size": 512 * 1024, "segment_count": 16}
    nprocs = rpn * nodes
    workload = make_workload(benchmark, nprocs, scale=scale, **size)
    views = workload.views()
    # A small collective buffer gives the job many internal cycles (the
    # units the drain scheduler overlaps); the tier capacity sits just
    # above a node's job bytes so end_of_job fully defers while the
    # lowered watermark starts draining mid-job.
    timed = RunSpec(
        cluster=replace(base_cluster, cores_per_node=rpn), fs=fs_spec,
        nprocs=nprocs, views=views, carry_data=False,
        config=CollectiveConfig.for_scale(
            scale, extent_cost_factor=workload.extent_cost_factor,
            cb_buffer_size=scaled(2 * MiB, scale),
        ),
    )
    total_bytes = sum(v.total_bytes for v in views.values())
    capacity = max(scaled(2 * MiB, scale) * 2, total_bytes // nodes * 5 // 4)
    regimes = _staging_regimes(scale, capacity)
    result = StagingStudyResult(cluster=cluster, benchmark=benchmark, nprocs=nprocs)

    def tiers(regime):
        """(label, staging) of the direct run and every drain policy."""
        return [("direct", None)] + [
            (p, regimes[regime].with_(policy=p)) for p in STAGING_POLICY_ORDER]

    cells = [(regime, algorithm) for regime in regimes for algorithm in ALGORITHM_ORDER]
    runs = measure_all(
        [timed.replace(algorithm=algorithm, staging=staging)
         for regime, algorithm in cells for _, staging in tiers(regime)],
        reps, jobs=jobs,
    )
    for regime, algorithm in cells:
        row = StagingRow(algorithm=algorithm, regime=regime,
                         t_direct=next(runs)[0].point)
        for policy in STAGING_POLICY_ORDER:
            series, last = next(runs)
            counters = last.metrics.get("counters", {})
            row.times[policy] = series.point
            row.stalls[policy] = counters.get("staging.stalls", 0)
            row.drained[policy] = counters.get("staging.drained_bytes", 0)
        result.rows.append(row)
        if progress is not None:
            progress(f"staging {regime:13s} {algorithm}: eoj "
                     f"{row.times['end_of_job']:.4f}s -> imm "
                     f"{row.times['immediate']:.4f}s "
                     f"({row.speedup('immediate'):.2f}x)")

    # Identity pass: real data, verify=True, hash of the actual file.
    small = make_workload(benchmark, nprocs, scale=scale,
                          block_size=16 * 1024, segment_count=4)
    verified = timed.replace(views=small.views(), carry_data=True, verify=True)
    labels = [label for label, _ in tiers("drain_bound")]
    runs = measure_all(
        [verified.replace(algorithm=algorithm, staging=staging)
         for algorithm in ALGORITHM_ORDER for _, staging in tiers("drain_bound")],
        1, jobs=jobs,
    )
    for algorithm in ALGORITHM_ORDER:
        result.shas[algorithm] = {label: next(runs)[1].file_sha256 for label in labels}

    # One traced drain-bound immediate run for the --trace-out artifact.
    result.spans = measure(verified.replace(
        algorithm="write_overlap", staging=regimes["drain_bound"], trace=True,
    ), 1)[1].spans
    return result


def staging_tables(result: StagingStudyResult) -> list[Table]:
    a = attrgetter
    long_rows = []
    for r in result.rows:
        long_rows.append((r.regime, r.algorithm, "direct", f"{r.t_direct:.9f}", "", "", ""))
        long_rows += [
            (r.regime, r.algorithm, p, f"{r.times[p]:.9f}", f"{r.speedup(p):.4f}",
             r.stalls[p], r.drained[p])
            for p in STAGING_POLICY_ORDER
        ]
    sha = "identical" if result.sha_identical() else "DIFFERENT"
    wins = "yes" if result.async_wins_everywhere() else "NO"
    return [Table(
        f"X10 — burst-buffer staging ({result.benchmark}@{result.cluster}, "
        f"P={result.nprocs}, size-only timing runs)",
        [Column("Regime", get=a("regime")),
         Column("Algorithm", get=a("algorithm"), text=ALGO_LABEL.get),
         Column("Direct", get=a("t_direct"), text=fmt_time),
         *pivot(STAGING_POLICY_ORDER, _POLICY_LABEL.get, fmt_time, of=a("times")),
         Column("Speedup", get=lambda r: r.speedup("immediate"), text="{:.2f}x"),
         Column("Stalls", get=lambda r: max(r.stalls.values()))],
        result.rows,
        "speedup = end_of_job / immediate (the time the overlapped "
        "drain hides); file bytes across direct and all policies: "
        f"{sha}; async drain beats end_of_job for every algorithm on "
        f"drain_bound: {wins}",
        long=Table("", csv_columns(
            "regime", "algorithm", "policy", "seconds",
            "speedup_vs_end_of_job", "stalls", "drained_bytes"), long_rows),
    )]


# --------------------------------------------------------------------------
# Auto-tuning search (the ``tune`` campaign renders a repro.tune result)
# --------------------------------------------------------------------------

def tuning_tables(result) -> list[Table]:
    """Ranked recommendation table of one auto-tuning search (a
    :class:`~repro.tune.search.TuningResult`); pruned candidates follow
    the ranking without a rank."""
    def candidate(field):
        return lambda row: getattr(row[1].candidate, field)

    rows = list(enumerate(result.ranked, start=1)) + [(None, r) for r in result.pruned]
    best = result.best
    hits, sims = result.cache_stats()
    footer = [
        f"recommendation: {best.candidate.label}  "
        f"({fmt_time(best.point)}, {best.write_bandwidth / 1e6:.1f} MB/s)"
    ]
    if result.pruned:
        footer.append(f"pruned after screening: {len(result.pruned)} of "
                      f"{result.total_candidates} candidates")
    footer.append(
        f"cache: {hits} hits, {sims} simulations run"
        + (f" ({hits / (hits + sims):.0%} cache hits)" if hits + sims else "")
    )
    return [Table(
        f"TUNE — {result.scenario.label} "
        f"(search={result.search}, {result.total_candidates} candidates, "
        f"reps={result.reps}"
        + (f", screen_reps={result.screen_reps}" if result.screen_reps else "")
        + f", seed={result.base_seed})",
        [Column("Rank", "rank", itemgetter(0), lambda i: i or "—", lambda i: i or ""),
         Column("Algorithm", "algorithm", candidate("algorithm")),
         Column("Shuffle", "shuffle", candidate("shuffle")),
         Column("cb_buffer", "cb_buffer_bytes", candidate("cb_buffer_size"),
                lambda cb: "default" if cb is None else f"{cb // MiB}MiB",
                lambda cb: "" if cb is None else cb),
         Column("Aggr", "num_aggregators", candidate("num_aggregators"),
                lambda n: "auto" if n is None else n,
                lambda n: "" if n is None else n),
         _seconds("Time", "seconds", lambda row: row[1].point),
         Column("Bandwidth", "write_bandwidth", lambda row: row[1].write_bandwidth,
                lambda bw: f"{bw / 1e6:.1f} MB/s", "{:.3f}"),
         Column("Reps", "reps", lambda row: row[1].reps),
         Column("Stage", "stage", lambda row: row[1].stage)],
        rows, "\n".join(footer),
    )]

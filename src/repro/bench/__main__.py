"""Command-line entry point: ``python -m repro.bench <experiment>``.

Examples::

    python -m repro.bench table1               # quick matrix (minutes)
    python -m repro.bench fig4 --reps 5
    python -m repro.bench all --mode quick
    python -m repro.bench table1 --mode full   # the paper's ladders (hours)
    python -m repro.bench tune --benchmark ior --cluster crill \
        --cache-dir /tmp/tune-cache            # auto-tune one scenario

Every experiment is one :class:`Campaign` entry of :data:`CAMPAIGNS`;
:func:`main` parses and validates the options, then runs each selected
entry through the same loop: run -> print tables -> collect
``<name>.csv`` -> evaluate the gate (``--check``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from repro.bench import ablations, chaos, integrity, perf
from repro.bench import experiments as ex
from repro.bench.runner import MatrixResult, run_matrix
from repro.bench.table import Table
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.faults import FAULT_PRESETS
from repro.obs import write_chrome_trace
from repro.tune import autotune, default_space, full_space
from repro.workloads import WORKLOADS


def _say(line: str) -> None:
    """A progress line: timestamped, on stderr."""
    print(f"  [{time.strftime('%H:%M:%S')}] {line}", file=sys.stderr)


def _say_series(case, algorithm, shuffle, series) -> None:
    label = algorithm if shuffle == "two_sided" else f"{algorithm}/{shuffle}"
    _say(f"{case.label:40s} {label:28s} {series.point:.4f}s")


class Invocation(argparse.Namespace):
    """The parsed options plus what the campaigns of one invocation share."""

    @property
    def progress(self) -> Callable[[str], None] | None:
        """Where campaigns send their pre-formatted progress lines."""
        return None if self.quiet else _say

    @property
    def matrix_options(self) -> dict:
        """The options every ``run_matrix`` campaign takes."""
        return dict(reps=self.reps, scale=self.scale, jobs=self.jobs,
                    progress=None if self.quiet else _say_series)

    @functools.cached_property
    def table1_matrix(self) -> MatrixResult:
        """Table I's matrix, measured once: ``fig2`` and ``fig3`` are
        views of the same runs."""
        return run_matrix(ex.table1_cases(self.mode), ex.ALGORITHM_ORDER,
                          **self.matrix_options)


@dataclass(frozen=True)
class Campaign:
    """One ``repro.bench`` subcommand: options -> result -> tables, and
    optionally result -> failure messages of the ``--check`` gate."""

    name: str
    run: Callable[[Invocation], Any]
    #: Their CSVs are concatenated into ``<name>.csv`` under one header,
    #: so the tables of one campaign share their CSV columns.
    tables: Callable[[Any], list[Table]]
    gate: Callable[[Any], list[str]] | None = None
    in_all: bool = False


def _run_tune(args: Invocation):
    n_workers = args.n_workers or (
        args.jobs if args.jobs > 1 else max(1, min(8, os.cpu_count() or 1))
    )
    if args.progress:
        args.progress(f"tuning {args.benchmark}@{args.cluster} P={args.nprocs} "
                      f"(search={args.search}, space={args.space}, "
                      f"workers={n_workers}) ...")
    return autotune(
        benchmark=args.benchmark, cluster=args.cluster, nprocs=args.nprocs,
        scale=args.scale, fs=args.fs,
        space=full_space() if args.space == "full" else default_space(),
        search=args.search, reps=args.reps, screen_reps=args.screen_reps,
        n_workers=n_workers, cache_dir=args.cache_dir, base_seed=args.seed,
    )


def _run_perf(args: Invocation) -> tuple[perf.PerfReport, list[str]]:
    """The self-benchmark and its own gates: (report, failures)."""
    def progress(case):
        args.progress(f"perf {case.scale:7s} {case.algorithm:15s} "
                      f"staging={'on' if case.staging else 'off':3s} "
                      f"{case.wall_s:.4f}s {case.events_per_s:,.0f} ev/s")

    report = perf.run_perf(reps=args.reps, seed=args.seed,
                           progress=progress if args.progress else None)
    report.write(args.perf_out)
    print(f"[wrote {args.perf_out}]", file=sys.stderr)
    failures = []
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = perf.check_against(
            report, baseline, min_speedup=args.min_speedup,
            max_regression=args.max_regression,
        )
        if not failures and (args.min_speedup or args.max_regression):
            speedup = baseline["normalized_medium"] / report.normalized_medium
            print(f"perf check ok: medium {speedup:.2f}x vs {args.baseline}",
                  file=sys.stderr)
    if args.max_integrity_overhead is not None:
        over = perf.integrity_overhead_failures(report, args.max_integrity_overhead)
        failures += over
        if not over:
            print(f"perf check ok: integrity detect overhead "
                  f"{report.max_integrity_overhead:+.1%} <= "
                  f"{args.max_integrity_overhead:.0%}", file=sys.stderr)
    return report, failures


#: Every subcommand, in the order ``all`` runs its ``in_all`` entries.
CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in (
    Campaign("table1", lambda a: ex.table1(matrix=a.table1_matrix),
             ex.table1_tables, in_all=True),
    Campaign("fig2", lambda a: ex.improvements("crill", a.table1_matrix),
             ex.improvement_tables, in_all=True),
    Campaign("fig3", lambda a: ex.improvements("ibex", a.table1_matrix),
             ex.improvement_tables, in_all=True),
    Campaign("fig1", lambda a: ex.fig1(a.mode, **a.matrix_options),
             ex.fig1_tables, in_all=True),
    Campaign("fig4", lambda a: ex.fig4(a.mode, **a.matrix_options),
             ex.fig4_tables, in_all=True),
    Campaign("breakdown", lambda a: ex.breakdown(a.mode, a.scale, jobs=a.jobs),
             ex.breakdown_tables, in_all=True),
    Campaign("lustre",
             lambda a: ex.lustre_note(a.mode, a.reps, a.scale, jobs=a.jobs),
             ex.lustre_tables, in_all=True),
    Campaign("read", lambda a: ex.read_study(a.mode, a.reps, a.scale, jobs=a.jobs),
             ex.read_tables),
    Campaign("overlap", lambda a: ex.overlap_study(a.mode, a.scale, jobs=a.jobs),
             ex.overlap_tables, in_all=True),
    Campaign("twolayer",
             lambda a: ex.twolayer_study(a.mode, a.reps, a.scale,
                                         progress=a.progress, jobs=a.jobs),
             ex.twolayer_tables, in_all=True),
    Campaign("staging",
             lambda a: ex.staging_study(a.mode, a.reps, a.scale,
                                        progress=a.progress, jobs=a.jobs),
             ex.staging_tables, gate=ex.StagingStudyResult.gate, in_all=True),
    Campaign("ablations",
             lambda a: ablations.run_ablations(a.reps, a.scale,
                                               progress=a.progress, jobs=a.jobs),
             lambda results: [r.table() for r in results]),
    Campaign("tune", _run_tune, ex.tuning_tables),
    Campaign("chaos",
             lambda a: chaos.chaos_campaign(
                 nprocs=a.nprocs, reps=a.reps, scale=a.scale, seed=a.seed,
                 faults=a.faults, progress=a.progress, jobs=a.jobs),
             chaos.chaos_tables, gate=chaos.ChaosCampaignResult.gate, in_all=True),
    Campaign("integrity",
             lambda a: integrity.integrity_campaign(
                 nprocs=a.nprocs, reps=a.reps, scale=a.scale, seed=a.seed,
                 progress=a.progress, jobs=a.jobs),
             integrity.integrity_tables,
             gate=integrity.IntegrityCampaignResult.gate, in_all=True),
    Campaign("perf", _run_perf, lambda r: [Table(r[0].render())],
             gate=itemgetter(1)),
)}

EXPERIMENTS = (*CAMPAIGNS, "all")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures on the simulator.",
        epilog="Every campaign that simulates independent runs fans them "
               "out over --jobs N worker processes (perf times the host and "
               "stays serial; tune's evaluator takes --n-workers, with --jobs "
               "as its fallback). Results are byte-identical to a serial run "
               "for any N: per-run seeds are derived from the run's content, "
               "never from scheduling, and results fold back in serial order.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--mode", choices=("quick", "full"), default="quick",
                        help="matrix size: quick (minutes) or full (paper ladders, hours)")
    parser.add_argument("--reps", type=int, default=3,
                        help="measurements per series (paper: 3-9)")
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE,
                        help="data-size scale divisor (see repro.config)")
    parser.add_argument("--nprocs", type=int, default=8,
                        help="process count of the tune, chaos and integrity "
                             "scenarios (default: 8)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed of tune, chaos, integrity and perf "
                             f"(default: {DEFAULT_SEED})")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for campaign fan-out (default: "
                             "1 = serial; any N yields byte-identical output)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    parser.add_argument("--csv-dir", default=None,
                        help="also write each campaign's <name>.csv into this directory")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every selected campaign's "
                             "gate passes: chaos runs all complete and verify; "
                             "integrity reaches 100%% detection and repair with "
                             "zero false positives; staging's async drain beats "
                             "end_of_job with identical file bytes (the CI "
                             "smoke assertions)")
    parser.add_argument("--trace-out", default=None, metavar="TRACE.JSON",
                        help="write a Chrome trace_event file of the overlap "
                             "experiment's most-overlapped run, or of staging's "
                             "traced drain (open in chrome://tracing or Perfetto)")
    tune_group = parser.add_argument_group("tune", "options for the 'tune' experiment")
    tune_group.add_argument("--benchmark", default="ior", choices=sorted(WORKLOADS),
                            help="workload registry name (tune; default: ior)")
    tune_group.add_argument("--cluster", default="crill", choices=("crill", "ibex"),
                            help="cluster preset (tune; default: crill)")
    tune_group.add_argument("--fs", default=None,
                            help="fs preset name (tune; default: the cluster's BeeGFS)")
    tune_group.add_argument("--search", choices=("halving", "grid"), default="halving",
                            help="search strategy: successive halving or exhaustive grid")
    tune_group.add_argument("--space", choices=("quick", "full"), default="quick",
                            help="candidate space: quick (~15 points) or full (~240)")
    tune_group.add_argument("--screen-reps", type=int, default=1,
                            help="screening repetitions before promotion (halving)")
    tune_group.add_argument("--n-workers", type=int, default=None,
                            help="simulation worker processes (default: min(8, cpus))")
    tune_group.add_argument("--cache-dir", default=None,
                            help="persistent trial-result cache directory")
    chaos_group = parser.add_argument_group("chaos", "options for the 'chaos' experiment")
    chaos_group.add_argument("--faults", default=None, metavar="PRESET",
                             choices=sorted(FAULT_PRESETS),
                             help="run one named fault preset (e.g. flaky_aggregator, "
                                  "ost_outage, degraded_cluster) instead of the "
                                  "built-in crash/outage intensity sweep")
    perf_group = parser.add_argument_group("perf", "options for the 'perf' experiment")
    perf_group.add_argument("--perf-out", default="BENCH_perf.json",
                            metavar="BENCH_perf.json",
                            help="where to write the perf trajectory point "
                                 "(default: BENCH_perf.json)")
    perf_group.add_argument("--baseline", default=None, metavar="PATH",
                            help="recorded BENCH_perf baseline to gate against")
    perf_group.add_argument("--min-speedup", type=float, default=None,
                            metavar="X",
                            help="fail unless the calibrated medium-scenario "
                                 "speedup vs --baseline is >= X (e.g. 2.0)")
    perf_group.add_argument("--max-regression", type=float, default=None,
                            metavar="FRAC",
                            help="fail if the calibrated medium scenario is "
                                 "more than FRAC slower than --baseline "
                                 "(e.g. 0.10 for 10%%)")
    perf_group.add_argument("--max-integrity-overhead", type=float, default=None,
                            metavar="FRAC",
                            help="fail if integrity mode=detect slows any "
                                 "medium-scale case by more than FRAC in "
                                 "simulated time (e.g. 0.25 for 25%%; "
                                 "absolute gate, needs no --baseline)")
    return parser


def _validate(parser: argparse.ArgumentParser, args: Invocation,
              selected: list[Campaign]) -> None:
    """Reject every bad option combination before anything simulates."""
    names = {c.name for c in selected}
    if args.reps < 1:
        parser.error(f"--reps must be >= 1 (got {args.reps}): at least one "
                     "measurement per series is needed")
    if args.scale < 1:
        parser.error(f"--scale must be >= 1 (got {args.scale}): the scale is a "
                     "divisor applied to all data sizes")
    if args.nprocs < 1:
        parser.error(f"--nprocs must be >= 1 (got {args.nprocs})")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs}): 1 runs serially, "
                     "N > 1 fans runs out over N worker processes")
    if args.n_workers is not None and args.n_workers < 1:
        parser.error(f"--n-workers must be >= 1 (got {args.n_workers})")
    if args.screen_reps < 1:
        parser.error(f"--screen-reps must be >= 1 (got {args.screen_reps})")
    if args.screen_reps > args.reps:
        parser.error(f"--screen-reps ({args.screen_reps}) cannot exceed "
                     f"--reps ({args.reps})")
    if args.trace_out and not names & {"overlap", "staging"}:
        parser.error("--trace-out is only meaningful with the 'overlap' or "
                     "'staging' experiments (or 'all')")
    if args.faults is not None and "chaos" not in names:
        parser.error("--faults is only meaningful with the 'chaos' "
                     "experiment (or 'all')")
    perf_gated = bool(args.baseline or args.max_integrity_overhead is not None)
    if (perf_gated or args.min_speedup or args.max_regression) \
            and "perf" not in names:
        parser.error("--baseline/--min-speedup/--max-regression/"
                     "--max-integrity-overhead are only meaningful with "
                     "the 'perf' experiment")
    if (args.min_speedup or args.max_regression) and not args.baseline:
        parser.error("--min-speedup/--max-regression need --baseline")
    # perf's thresholds are its gate: giving one asks for the check.
    args.check = args.check or perf_gated
    if args.check and not any(c.gate for c in selected):
        gated = sorted(c.name for c in CAMPAIGNS.values() if c.gate)
        parser.error(f"--check needs a campaign with a gate "
                     f"({', '.join(gated)}, or 'all')")


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv, namespace=Invocation())
    wanted = args.experiment
    selected = [c for c in CAMPAIGNS.values()
                if wanted == c.name or (wanted == "all" and c.in_all)]
    _validate(parser, args, selected)

    started = time.time()
    outputs: list[str] = []
    csv_files: dict[str, str] = {}
    failed = False
    trace_out = args.trace_out
    for campaign in selected:
        result = campaign.run(args)
        if trace_out and hasattr(result, "spans"):
            # The first selected campaign that traced a run owns the file.
            write_chrome_trace(trace_out, result.spans)
            print(f"[wrote {trace_out}]", file=sys.stderr)
            trace_out = None
        tables = campaign.tables(result)
        outputs += [table.text() for table in tables]
        csv_files[f"{campaign.name}.csv"] = "".join(
            table.csv(header=i == 0) for i, table in enumerate(tables))
        if args.check and campaign.gate:
            for failure in campaign.gate(result):
                print(f"{campaign.name} check FAILED: {failure}", file=sys.stderr)
                failed = True

    print("\n\n".join(outputs))
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, content in csv_files.items():
            if content:
                path = os.path.join(args.csv_dir, name)
                with open(path, "w") as fh:
                    fh.write(content)
                print(f"[wrote {path}]", file=sys.stderr)
    print(f"\n[elapsed {time.time() - started:.0f}s, mode={args.mode}, "
          f"reps={args.reps}, scale={args.scale}]", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

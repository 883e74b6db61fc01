"""Extension experiment X8: the chaos campaign.

Sweeps crash-class fault intensity (rank crashes + OST outages) across
all five overlap algorithms and reports, per cell:

* **completion rate** — fraction of runs that finished *and* verified
  byte-exactly against the fault-free expectation;
* **recovery latency** — simulated time spent in detection/failover gaps;
* **slowdown** — elapsed vs the fault-free run of the same seed.

Every chaos run goes through the restart-from-journal recovery manager
(:mod:`repro.recovery`), so a completion-rate below 1.0 would mean the
failover protocol itself lost data — the campaign doubles as the
acceptance test of the recovery subsystem (the CI smoke job asserts 100%
under the ``flaky_aggregator`` preset).

The fault window is rescaled per algorithm to ~80% of the measured
fault-free duration, so faults land *inside* the collective whatever the
scenario size; preset fault specs (``--faults flaky_aggregator``) get
the same rescale applied to their ``crash_window``.

The platform is :func:`repro.bench.runner.small_scenario` (4 nodes, 4
storage targets): a small target count makes degraded striping (stripes
of a dead OST remapped onto survivors) a visible fraction of the load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.bench.experiments import ALGO_LABEL, ALGORITHM_ORDER
from repro.bench.parallel import parallel_map
from repro.bench.runner import small_scenario
from repro.bench.table import Column, Table
from repro.collio.api import RunSpec, run_collective_write
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.errors import ReproError, VerificationError
from repro.faults.presets import fault_preset
from repro.faults.spec import FaultSpec
from repro.units import fmt_time

__all__ = ["ChaosCell", "ChaosCampaignResult", "chaos_campaign", "chaos_tables",
           "CHAOS_LEVELS"]

#: The intensity sweep: (label, rank_crash_rate, ost_outage_rate).
CHAOS_LEVELS: tuple[tuple[str, float, float], ...] = (
    ("low", 0.20, 0.10),
    ("mid", 0.50, 0.30),
    ("high", 0.80, 0.60),
)


@dataclass
class ChaosCell:
    """One (algorithm, fault level) cell of the campaign."""

    algorithm: str
    level: str
    runs: int = 0
    completions: int = 0
    #: Mean recovery attempts of the completed runs (1.0 = never failed over).
    attempts: float = 0.0
    #: Mean elapsed / fault-free elapsed of the completed runs.
    slowdown: float = 0.0
    #: Mean simulated seconds spent in detection + failover gaps.
    recovery_latency: float = 0.0
    rank_crashes: int = 0
    ost_outages: int = 0
    replayed_bytes: int = 0

    @property
    def completion_rate(self) -> float:
        return self.completions / self.runs if self.runs else 0.0


@dataclass
class ChaosCampaignResult:
    """The whole campaign: one :class:`ChaosCell` per (algorithm, level)."""

    nprocs: int
    reps: int
    #: Preset name when the campaign ran one named fault preset, else None
    #: (the built-in intensity sweep).
    preset: str | None = None
    cells: list[ChaosCell] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        """Campaign-wide completion rate."""
        runs = sum(c.runs for c in self.cells)
        return sum(c.completions for c in self.cells) / runs if runs else 0.0

    def gate(self) -> list[str]:
        """Failures of the ``--check`` acceptance bar: every run must
        complete and verify (empty = pass)."""
        if self.completion_rate < 1.0:
            return [f"completion rate {self.completion_rate:.0%} < 100%"]
        return []


def _baseline(spec: RunSpec) -> float:
    """Fault-free elapsed of one run (module-level for pool workers)."""
    return run_collective_write(spec).elapsed


def _chaos_run(spec: RunSpec) -> dict:
    """One chaos run, folded to plain scalars (module-level for pool workers)."""
    try:
        run = run_collective_write(spec)
    except VerificationError:
        raise  # wrong bytes are a simulator bug, not a non-completion
    except ReproError:
        # Recovery exhausted (or an unrecoverable fault mix): counted
        # as a non-completion, not a crash of the bench.
        return {"completed": False}
    report = run.recovery
    return {
        "completed": True,
        "elapsed": run.elapsed,
        "attempts": report.attempts,
        "failover_time": report.failover_time,
        "rank_crashes": len(report.crashed_ranks),
        "ost_outages": len(report.down_targets),
        "replayed_bytes": report.replayed_bytes,
    }


def chaos_campaign(
    nprocs: int = 8,
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    faults: str | None = None,
    progress=None,
    jobs: int = 1,
) -> ChaosCampaignResult:
    """Run the chaos sweep; ``faults`` names a preset to use instead.

    ``scale`` divides the per-rank payload like the other experiments.
    ``progress`` gets one line per chaos run.

    ``jobs`` parallelizes both phases — the fault-free baselines, then
    (their windows known) every chaos run — via
    :func:`repro.bench.parallel.parallel_map`.  Seeds live in the task
    specs (``seed + rep``) and results fold in serial-loop order, so the
    campaign's tables and CSVs are byte-identical for any ``jobs``; the
    progress lines come during the fold, after the simulations.
    """
    base = small_scenario("chaos", nprocs, scale)
    # The fault specs to sweep; their windows are rescaled per algorithm.
    levels = [(faults, fault_preset(faults))] if faults is not None else [
        (label, FaultSpec(rank_crash_rate=crash, ost_outage_rate=outage,
                          crash_window=1.0))
        for label, crash, outage in CHAOS_LEVELS
    ]
    seeds = [seed + i for i in range(reps)]
    result = ChaosCampaignResult(nprocs=nprocs, reps=reps, preset=faults)

    # Phase 1: fault-free baselines (they size every fault window).
    base_elapsed = iter(parallel_map(
        _baseline,
        [base.replace(algorithm=a, seed=s) for a in ALGORITHM_ORDER for s in seeds],
        jobs=jobs,
    ))
    baselines = {a: {s: next(base_elapsed) for s in seeds} for a in ALGORITHM_ORDER}

    # Phase 2: the chaos runs, windows armed at ~80% of the base-seed baseline.
    outcomes = iter(parallel_map(
        _chaos_run,
        [base.replace(
            algorithm=a, seed=s,
            faults=fault_spec.with_(crash_window=0.8 * baselines[a][seed]))
         for a in ALGORITHM_ORDER for _, fault_spec in levels for s in seeds],
        jobs=jobs,
    ))

    for algorithm in ALGORITHM_ORDER:
        for level, _ in levels:
            cell = ChaosCell(algorithm=algorithm, level=level)
            result.cells.append(cell)
            for i, rep_seed in enumerate(seeds):
                o = next(outcomes)
                cell.runs += 1
                if progress is not None:
                    progress(f"chaos {algorithm:14s} {level:18s} rep {i}: "
                             f"{'ok' if o['completed'] else 'FAILED'}")
                if not o["completed"]:
                    continue
                cell.completions += 1
                cell.attempts += o["attempts"]
                cell.slowdown += o["elapsed"] / baselines[algorithm][rep_seed]
                cell.recovery_latency += o["failover_time"]
                cell.rank_crashes += o["rank_crashes"]
                cell.ost_outages += o["ost_outages"]
                cell.replayed_bytes += o["replayed_bytes"]
            if cell.completions:
                cell.attempts /= cell.completions
                cell.slowdown /= cell.completions
                cell.recovery_latency /= cell.completions
    return result


def chaos_tables(result: ChaosCampaignResult) -> list[Table]:
    """X8: completion / slowdown / recovery latency per (algorithm, level)."""
    a = attrgetter

    def mean(header, name, field, text, csv):
        """A mean over completed runs: "-" in text when none completed."""
        return Column(
            header, name, lambda c: c,
            lambda c: text(getattr(c, field)) if c.completions else "-",
            lambda c: csv.format(getattr(c, field)),
        )

    source = (f"preset={result.preset}" if result.preset
              else "crash/outage intensity sweep")
    return [Table(
        f"X8 — chaos campaign ({source}, P={result.nprocs}, reps={result.reps})",
        [Column("Algorithm", "algorithm", a("algorithm"), ALGO_LABEL.get),
         Column("Level", "level", a("level")),
         Column(None, "runs", a("runs")),
         Column("Complete", get=lambda c: f"{c.completions}/{c.runs}"),
         Column(None, "completions", a("completions")),
         Column(None, "completion_rate", a("completion_rate"), csv="{:.6f}"),
         mean("Attempts", "attempts_mean", "attempts", "{:.1f}".format, "{:.6f}"),
         mean("Slowdown", "slowdown_mean", "slowdown", "{:.2f}x".format, "{:.6f}"),
         mean("Recovery", "recovery_latency_seconds", "recovery_latency",
              fmt_time, "{:.9f}"),
         Column("Crashes", "rank_crashes", a("rank_crashes")),
         Column("Outages", "ost_outages", a("ost_outages")),
         Column(None, "replayed_bytes", a("replayed_bytes"))],
        result.cells,
        f"overall completion rate: {result.completion_rate:.0%}; "
        "slowdown/recovery are means over completed runs vs the same-seed "
        "fault-free baseline",
    )]

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

The platform is deliberately small (4 nodes, 4 storage targets): chaos
reruns the whole collective once per failover, and a small target count
makes degraded striping (stripes of a dead OST remapped onto survivors)
a visible fraction of the load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.parallel import parallel_map
from repro.collio.api import RunSpec, run_collective_write
from repro.collio.view import FileView
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.errors import ReproError, VerificationError
from repro.faults.presets import fault_preset
from repro.faults.spec import FaultSpec
from repro.fs.presets import FsSpec
from repro.hardware.cluster import ClusterSpec
from repro.units import KiB, MB

__all__ = ["ChaosCell", "ChaosCampaignResult", "chaos_campaign", "CHAOS_LEVELS"]

#: The intensity sweep: (label, rank_crash_rate, ost_outage_rate).
CHAOS_LEVELS: tuple[tuple[str, float, float], ...] = (
    ("low", 0.20, 0.10),
    ("mid", 0.50, 0.30),
    ("high", 0.80, 0.60),
)

#: Every overlap algorithm must survive the campaign.
CHAOS_ALGORITHMS = (
    "no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2",
)


def _chaos_cluster() -> ClusterSpec:
    return ClusterSpec(
        name="chaos",
        num_nodes=4,
        cores_per_node=4,
        network_bandwidth=1000 * MB,
        network_latency=1e-6,
        eager_threshold=1024,
    )


def _chaos_fs() -> FsSpec:
    return FsSpec(
        name="chaosfs",
        num_targets=4,
        target_bandwidth=300 * MB,
        target_latency=5e-5,
        stripe_size=4096,
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
    #: algorithm -> fault-free elapsed at the base seed, seconds.
    baselines: dict[str, float] = field(default_factory=dict)

    @property
    def levels(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.level not in seen:
                seen.append(cell.level)
        return seen

    def cell(self, algorithm: str, level: str) -> ChaosCell:
        for c in self.cells:
            if c.algorithm == algorithm and c.level == level:
                return c
        raise KeyError((algorithm, level))

    @property
    def completion_rate(self) -> float:
        """Campaign-wide completion rate."""
        runs = sum(c.runs for c in self.cells)
        return sum(c.completions for c in self.cells) / runs if runs else 0.0


def _fault_levels(preset: str | None) -> list[tuple[str, FaultSpec]]:
    """The fault specs to sweep (window rescaled later per algorithm)."""
    if preset is not None:
        return [(preset, fault_preset(preset))]
    return [
        (label, FaultSpec(rank_crash_rate=crash, ost_outage_rate=outage,
                          crash_window=1.0))
        for label, crash, outage in CHAOS_LEVELS
    ]


def _chaos_views(nprocs: int, per_rank: int) -> dict[int, FileView]:
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


def _chaos_baseline(task: tuple) -> float:
    """Fault-free elapsed of one (algorithm, seed) run (pool-importable)."""
    algorithm, rep_seed, nprocs, per_rank = task
    return run_collective_write(RunSpec(
        cluster=_chaos_cluster(), fs=_chaos_fs(), nprocs=nprocs,
        views=_chaos_views(nprocs, per_rank), algorithm=algorithm,
        verify=True, seed=rep_seed,
    )).elapsed


def _chaos_run(task: tuple) -> dict:
    """One chaos run under a rebuilt, window-armed fault spec.

    Module-level for pool workers; the fault spec is reconstructed from
    the plain descriptor (preset name, or the sweep's rate pair) so the
    task carries no live objects.  Returns plain scalars for the fold.
    """
    (algorithm, preset, crash, outage, window,
     rep_seed, nprocs, per_rank) = task
    if preset is not None:
        fault_spec = fault_preset(preset)
    else:
        fault_spec = FaultSpec(rank_crash_rate=crash, ost_outage_rate=outage,
                               crash_window=1.0)
    try:
        run = run_collective_write(RunSpec(
            cluster=_chaos_cluster(), fs=_chaos_fs(), nprocs=nprocs,
            views=_chaos_views(nprocs, per_rank), algorithm=algorithm,
            verify=True, seed=rep_seed,
            faults=fault_spec.with_(crash_window=window),
        ))
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

    ``scale`` divides the per-rank payload (64 KiB at scale 1) like the
    other experiments.  ``progress(algorithm, level, rep, completed)`` is
    called after every chaos run.

    ``jobs`` parallelizes both phases — the fault-free baselines, then
    (their windows known) every chaos run — via
    :func:`repro.bench.parallel.parallel_map`.  Seeds live in the task
    descriptors (``seed + rep``, unchanged from the serial derivation)
    and results fold in serial-loop order, so the campaign's tables and
    CSVs are byte-identical for any ``jobs``; with ``jobs > 1`` the
    progress callback fires during the fold, after the simulations.
    """
    per_rank = max(4096, int(64 * KiB) // scale)
    levels = _fault_levels(faults)
    result = ChaosCampaignResult(nprocs=nprocs, reps=reps, preset=faults)

    # Phase 1: fault-free baselines (they size every fault window).
    base_tasks = [
        (algorithm, seed + i, nprocs, per_rank)
        for algorithm in CHAOS_ALGORITHMS for i in range(reps)
    ]
    base_elapsed = iter(parallel_map(_chaos_baseline, base_tasks, jobs=jobs))
    baselines = {
        algorithm: {seed + i: next(base_elapsed) for i in range(reps)}
        for algorithm in CHAOS_ALGORITHMS
    }

    # Phase 2: the chaos runs, windows armed from the base-seed baseline.
    chaos_tasks = []
    for algorithm in CHAOS_ALGORITHMS:
        window = 0.8 * baselines[algorithm][seed]
        for level, _fault_spec in levels:
            for i in range(reps):
                chaos_tasks.append((
                    algorithm, faults,
                    _fault_spec.rank_crash_rate, _fault_spec.ost_outage_rate,
                    window, seed + i, nprocs, per_rank,
                ))
    outcomes = iter(parallel_map(_chaos_run, chaos_tasks, jobs=jobs))

    for algorithm in CHAOS_ALGORITHMS:
        result.baselines[algorithm] = baselines[algorithm][seed]
        for level, _fault_spec in levels:
            cell = ChaosCell(algorithm=algorithm, level=level)
            result.cells.append(cell)
            for i in range(reps):
                o = next(outcomes)
                cell.runs += 1
                if not o["completed"]:
                    if progress is not None:
                        progress(algorithm, level, i, False)
                    continue
                cell.completions += 1
                cell.attempts += o["attempts"]
                cell.slowdown += o["elapsed"] / baselines[algorithm][seed + i]
                cell.recovery_latency += o["failover_time"]
                cell.rank_crashes += o["rank_crashes"]
                cell.ost_outages += o["ost_outages"]
                cell.replayed_bytes += o["replayed_bytes"]
                if progress is not None:
                    progress(algorithm, level, i, True)
            if cell.completions:
                cell.attempts /= cell.completions
                cell.slowdown /= cell.completions
                cell.recovery_latency /= cell.completions
    return result

"""Ablation studies of the design choices the paper (and DESIGN.md) call out.

Each ablation flips one knob of the model or the implementation and
measures the consequence, turning the paper's *explanations* into
testable predictions:

``progress_thread``
    Paper III-A1: Comm-Overlap's effectiveness hinges on the MPI library
    progressing communication in the background.  With a progress
    thread, Comm-Overlap should close most of its gap to Write-Overlap.
``eager_threshold``
    Paper III-B1: rendezvous couples senders to busy aggregators.
    Raising the threshold (more eager traffic) should *help* the
    blocking-write algorithms by decoupling senders.
``buffer_size``
    The collective buffer trades cycle-management overhead (small
    buffers) against pipelining granularity and memory (large buffers).
``aggregators``
    More aggregators buy parallel file-system injection until the
    targets saturate; the automatic selection should sit near the knee.
``storage_noise``
    DESIGN.md 6.0(3): per-request storage variance is what double-
    buffered asynchronous writes hide on crill; with a noiseless file
    system the Write-Overlap gain should shrink toward the pure
    shuffle-hiding bound.
``fault_injection``
    Transient storage faults + bounded retries: how much of each
    algorithm's advantage survives a flaky file system?  Retried cycles
    serialize behind their backoff, so overlap algorithms degrade more
    gracefully than the blocking baseline only while the retry traffic
    still fits in the shuffle window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable

from repro.analysis.stats import relative_improvement
from repro.bench.runner import measure_all, specs_for
from repro.bench.table import Column, Table, csv_columns, pivot
from repro.collio.api import RunSpec
from repro.collio.config import CollectiveConfig
from repro.config import DEFAULT_SCALE
from repro.faults import FaultSpec, RetryPolicy
from repro.units import MiB
from repro.workloads import make_workload

__all__ = ["Ablation", "AblationResult", "ABLATIONS", "run_ablation", "run_ablations"]


@dataclass(frozen=True)
class Ablation:
    """One knob flipped on a platform's default IOR scenario."""

    title: str
    parameter: str
    platform: str
    algorithms: tuple[str, ...]
    #: (cluster_spec, fs_spec, scale) -> {row label: the RunSpec fields
    #: that setting overrides}
    settings: Callable[..., dict[str, dict]]
    notes: str = ""


_BLOCKING_VS_ASYNC = ("no_overlap", "comm_overlap", "write_overlap")
_RETRY = RetryPolicy(max_retries=25)

ABLATIONS = {
    # Does a progress thread rescue Comm-Overlap?  (paper III-A1)
    "progress_thread": Ablation(
        "MPI progress thread", "progress", "ibex", _BLOCKING_VS_ASYNC,
        lambda cluster, fs, scale: {
            label: {"cluster": cluster.with_(progress_thread=flag)}
            for label, flag in (("off", False), ("on", True))},
        notes="Comm-Overlap relies on background progress of rendezvous traffic.",
    ),
    # How does the rendezvous switch-over shape the algorithms?
    "eager_threshold": Ablation(
        "eager/rendezvous threshold", "threshold", "ibex", _BLOCKING_VS_ASYNC,
        lambda cluster, fs, scale: {
            f"{threshold} B": {"cluster": cluster.with_(eager_threshold=threshold)}
            for threshold in (512, 8 * 1024, 1 * MiB)},
        notes="Rendezvous couples senders to busy aggregators (paper III-B1).",
    ),
    # Collective buffer size sweep (ompio default: 32 MB unscaled).
    "buffer_size": Ablation(
        "collective buffer size", "cb_buffer", "crill", ("no_overlap", "write_overlap"),
        lambda cluster, fs, scale: {
            f"{cb >> 10} KiB": {"config": CollectiveConfig.for_scale(scale, cb_buffer_size=cb)}
            for cb in (64 * 1024, 256 * 1024, 512 * 1024, 2 * MiB)},
    ),
    # Aggregator count sweep vs. the automatic selection.
    "aggregators": Ablation(
        "aggregator count", "aggregators", "ibex", ("write_overlap",),
        lambda cluster, fs, scale: {
            "auto" if count is None else str(count):
            {"config": CollectiveConfig.for_scale(scale, num_aggregators=count)}
            for count in (1, 2, 3, None)},
    ),
    # Per-request storage variance: what pipelined writes actually hide.
    "storage_noise": Ablation(
        "crill storage noise (sigma)", "sigma", "crill", _BLOCKING_VS_ASYNC,
        lambda cluster, fs, scale: {
            f"{sigma:.2f}": {"fs": fs.with_(noise_sigma=sigma)}
            for sigma in (0.0, 0.15, 0.35, 0.6)},
        notes="HDD service variance is what double-buffered writes hide on crill.",
    ),
    # Transient write failures + retries: graceful degradation check.
    # The 0% row must be bit-identical to a run without the fault
    # subsystem (a disabled FaultSpec never builds an injector).
    "fault_injection": Ablation(
        "transient write faults + retries", "fail_rate", "ibex",
        ("no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"),
        lambda cluster, fs, scale: {
            f"{rate:.0%}": {
                "retry": _RETRY,
                "faults": FaultSpec(write_fail_rate=rate) if rate else None}
            for rate in (0.0, 0.05, 0.10)},
        notes="Per-storage-request failure probability; bounded-backoff retries.",
    ),
}


@dataclass
class AblationResult:
    """One ablation: rows of (setting label -> {algorithm: point time})."""

    name: str
    parameter: str
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: str = ""

    def gain(self, setting: str, algorithm: str, baseline: str = "no_overlap") -> float:
        row = self.rows[setting]
        return relative_improvement(row[baseline], row[algorithm])

    def table(self) -> Table:
        """Settings down, algorithms across; the CSV is one row per cell."""
        algorithms = list(next(iter(self.rows.values())))
        columns = [Column(self.parameter, get=itemgetter(0)),
                   *pivot(algorithms, str, lambda t: f"{t * 1e3:.2f} ms")]
        return Table(
            f"ABLATION — {self.name}" + (f"\n{self.notes}" if self.notes else ""),
            [replace(c, width=max(len(c.header), 12)) for c in columns],
            list(self.rows.items()),
            long=Table("", csv_columns("parameter", "setting", "algorithm", "seconds"), [
                (self.parameter, setting, algorithm, f"{t:.9f}")
                for setting, row in self.rows.items() for algorithm, t in row.items()
            ]),
        )


def run_ablation(
    name: str, nprocs: int = 96, reps: int = 2, scale: int = DEFAULT_SCALE,
    jobs: int = 1,
) -> AblationResult:
    """Measure every (setting, algorithm) series of ``ABLATIONS[name]``."""
    ablation = ABLATIONS[name]
    cluster_spec, fs_spec = specs_for(ablation.platform, scale)
    settings = ablation.settings(cluster_spec, fs_spec, scale)
    base = RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, carry_data=False,
        views=make_workload("ior", nprocs, scale=scale, block_size=4 * MiB).views(),
        config=CollectiveConfig.for_scale(scale),
    )
    runs = measure_all(
        [base.replace(algorithm=algorithm, **overrides)
         for overrides in settings.values() for algorithm in ablation.algorithms],
        reps, jobs=jobs,
    )
    result = AblationResult(ablation.title, ablation.parameter, notes=ablation.notes)
    for label in settings:
        result.rows[label] = {a: next(runs)[0].point for a in ablation.algorithms}
    return result


def run_ablations(
    reps: int = 2, scale: int = DEFAULT_SCALE, progress=None, jobs: int = 1
) -> list[AblationResult]:
    """Every ablation in turn (the ``ablations`` campaign)."""
    results = []
    for name in ABLATIONS:
        if progress is not None:
            progress(f"running ablation {name} ...")
        results.append(run_ablation(name, reps=reps, scale=scale, jobs=jobs))
    return results

"""Self-benchmark suite: how fast is the simulator itself?

``python -m repro.bench perf`` times the *host-side* cost of simulated
collective writes — 5 algorithms x 3 problem scales x staging on/off —
and emits ``BENCH_perf.json``, one point of the repository's perf
trajectory.  Each case reports

* ``wall_s``      — best-of-reps host wall-clock of one full run
                    (plan construction included: that is what tuning
                    sweeps pay per trial);
* ``events``      — discrete events processed by the engine;
* ``wakeups``     — events plus timeout requests that joined an already
                    scheduled cohort (``sim.timeouts_coalesced``): the
                    count that stays comparable across reports recorded
                    before and after cohort dispatch, where ``events``
                    and ``events_per_s`` drop while wall improves;
* ``events_per_s``— events / wall, the engine's throughput;
* ``peak_rss_kb`` — process high-water RSS after the case.

Cross-hardware comparability
----------------------------
Absolute wall-clock depends on the machine, so every report embeds a
**calibration score**: the runtime of a fixed pure-Python arithmetic
loop that none of the simulator's optimizations can touch.  Comparisons
between two reports divide each medium-scenario wall by its own
calibration time, cancelling machine speed:

    speedup = (baseline.medium / baseline.cal) / (current.medium / current.cal)

``check_against`` implements the two CI gates on that normalized ratio:
the one-time ``>= min_speedup`` gate against the pre-overhaul seed
baseline, and the ``<= max_regression`` drift gate against the most
recent committed report.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass, field

from repro._version import __version__
from repro.collio.api import RunSpec, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.overlap import ALGORITHMS
from repro.config import DEFAULT_SEED
from repro.fs.presets import beegfs_crill
from repro.hardware.presets import crill
from repro.integrity.spec import IntegritySpec
from repro.staging import StagingSpec
from repro.workloads import make_workload

__all__ = [
    "PERF_SCALES", "CalibrationResult", "PerfCase", "IntegrityPerfCase",
    "PerfReport", "calibrate", "run_perf", "check_against",
    "integrity_overhead_failures",
]

#: The three self-benchmark problem sizes: the paper's IOR workload at
#: increasing process counts and data-size divisors (see
#: :mod:`repro.config`).  ``medium`` is the gated scenario; small
#: bounds fixed overheads, large bounds scaling behaviour.
PERF_SCALES: dict[str, dict] = {
    "small": {"nprocs": 4, "scale": 256},
    "medium": {"nprocs": 8, "scale": 64},
    "large": {"nprocs": 16, "scale": 64},
}

_CAL_ITERS = 2_000_000


def _cal_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 97
    return acc


@dataclass(frozen=True)
class CalibrationResult:
    """Machine-speed reference: seconds for the fixed arithmetic loop."""

    loop_s: float
    iters: int = _CAL_ITERS


def calibrate(reps: int = 3) -> CalibrationResult:
    """Time the fixed calibration loop (best of ``reps``)."""
    best = min(_timed(_cal_loop, _CAL_ITERS) for _ in range(reps))
    return CalibrationResult(loop_s=best)


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


@dataclass
class PerfCase:
    """One (scale, algorithm, staging) measurement."""

    scale: str
    algorithm: str
    staging: bool
    wall_s: float
    sim_elapsed: float
    events: int
    wakeups: int
    events_per_s: float
    peak_rss_kb: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class IntegrityPerfCase:
    """Simulated-time cost of ``mode="detect"`` on one medium-scale case.

    The gated quantity is *simulated* elapsed, not host wall: the
    checksum-carrying datapath removes the modeled per-extent checksum
    compute, the read-back re-read and the scrub re-read from the
    simulated timeline, and this case proves it.  The reuse counters
    come along so the report also shows *why* (carried CRCs replacing
    fresh byte passes).
    """

    algorithm: str
    sim_elapsed_off: float
    sim_elapsed_detect: float
    checksum_computed: int
    checksum_reused: int

    @property
    def overhead(self) -> float:
        """Fractional detect-mode slowdown (0.0 = free) in sim time."""
        if not self.sim_elapsed_off:
            return 0.0
        return self.sim_elapsed_detect / self.sim_elapsed_off - 1.0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["overhead"] = round(self.overhead, 6)
        return d


@dataclass
class PerfReport:
    """Everything ``BENCH_perf.json`` holds."""

    calibration: CalibrationResult
    cases: list[PerfCase] = field(default_factory=list)
    integrity_cases: list[IntegrityPerfCase] = field(default_factory=list)
    plan_cache: dict = field(default_factory=dict)

    def scale_wall(self, scale: str) -> float:
        return sum(c.wall_s for c in self.cases if c.scale == scale)

    @property
    def max_integrity_overhead(self) -> float:
        """Worst detect-mode sim-time overhead across the integrity cases."""
        return max((c.overhead for c in self.integrity_cases), default=0.0)

    @property
    def medium_wall_s(self) -> float:
        return self.scale_wall("medium")

    @property
    def normalized_medium(self) -> float:
        """Medium wall in calibration-loop units (machine-independent)."""
        return self.medium_wall_s / self.calibration.loop_s

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "calibration": {
                "loop_s": self.calibration.loop_s,
                "iters": self.calibration.iters,
            },
            "scales": PERF_SCALES,
            "cases": [c.to_dict() for c in self.cases],
            "totals": {
                name: round(self.scale_wall(name), 6) for name in PERF_SCALES
            },
            "medium_wall_s": round(self.medium_wall_s, 6),
            "normalized_medium": round(self.normalized_medium, 6),
            "integrity": {
                "cases": [c.to_dict() for c in self.integrity_cases],
                "max_overhead": round(self.max_integrity_overhead, 6),
            },
            "plan_cache": self.plan_cache,
            "peak_rss_kb": max((c.peak_rss_kb for c in self.cases), default=0),
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        lines = [
            "PERF — simulator self-benchmark "
            f"(calibration loop {self.calibration.loop_s * 1e3:.1f} ms)",
            f"{'scale':8s} {'algorithm':15s} {'staging':8s} "
            f"{'wall (s)':>9s} {'events':>8s} {'wake-ups':>8s} {'ev/s':>10s} "
            f"{'rss (MB)':>9s}",
        ]
        for c in self.cases:
            lines.append(
                f"{c.scale:8s} {c.algorithm:15s} "
                f"{'on' if c.staging else 'off':8s} {c.wall_s:9.4f} "
                f"{c.events:8d} {c.wakeups:8d} {c.events_per_s:10.0f} "
                f"{c.peak_rss_kb / 1024:9.1f}"
            )
        for name in PERF_SCALES:
            lines.append(f"total {name:8s} {self.scale_wall(name):9.4f} s")
        lines.append(
            f"medium normalized: {self.normalized_medium:.2f} cal-units"
        )
        if self.integrity_cases:
            lines.append(
                f"{'integrity':8s} {'algorithm':15s} {'off (sim s)':>12s} "
                f"{'detect':>9s} {'overhead':>9s} {'crc comp':>9s} "
                f"{'reused':>7s}"
            )
            for c in self.integrity_cases:
                lines.append(
                    f"{'medium':8s} {c.algorithm:15s} {c.sim_elapsed_off:12.6f} "
                    f"{c.sim_elapsed_detect:9.6f} {c.overhead:+9.1%} "
                    f"{c.checksum_computed:9d} {c.checksum_reused:7d}"
                )
            lines.append(
                f"max integrity detect overhead: {self.max_integrity_overhead:+.1%}"
            )
        return "\n".join(lines)


def _case_spec(scale: str, algorithm: str, staging: bool, seed: int) -> RunSpec:
    params = PERF_SCALES[scale]
    nprocs, divisor = params["nprocs"], params["scale"]
    workload = make_workload("ior", nprocs, scale=divisor)
    return RunSpec(
        cluster=crill(scale=divisor), fs=beegfs_crill(scale=divisor),
        nprocs=nprocs, views=workload.views(), algorithm=algorithm, seed=seed,
        staging=StagingSpec.for_scale(divisor, policy="immediate")
        if staging else None,
    )


def run_perf(
    reps: int = 2, seed: int = DEFAULT_SEED, progress=None
) -> PerfReport:
    """Run the full 5 x 3 x 2 self-benchmark matrix."""
    try:
        from repro.collio.plan import plan_cache_stats, reset_plan_cache
    except ImportError:  # pre-cache tree: recording the seed baseline
        def plan_cache_stats():
            return {}

        def reset_plan_cache():
            return None

    reset_plan_cache()
    report = PerfReport(calibration=calibrate())
    for scale in PERF_SCALES:
        for algorithm in sorted(ALGORITHMS):
            for staging in (False, True):
                best_wall, events, wakeups, sim_elapsed = None, 0, 0, 0.0
                for rep in range(max(1, reps)):
                    spec = _case_spec(scale, algorithm, staging, seed)
                    t0 = time.perf_counter()
                    result = run_collective_write(spec)
                    wall = time.perf_counter() - t0
                    if best_wall is None or wall < best_wall:
                        best_wall = wall
                        counters = result.metrics["counters"]
                        events = counters.get("sim.events_processed", 0)
                        wakeups = events + counters.get("sim.timeouts_coalesced", 0)
                        sim_elapsed = result.elapsed
                case = PerfCase(
                    scale=scale, algorithm=algorithm, staging=staging,
                    wall_s=round(best_wall, 6), sim_elapsed=sim_elapsed,
                    events=int(events), wakeups=int(wakeups),
                    events_per_s=round(events / best_wall if best_wall else 0.0, 1),
                    peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                )
                report.cases.append(case)
                if progress is not None:
                    progress(case)

    # Integrity-on cases: gate the checksum-carrying datapath.  The
    # compared quantity is *simulated* elapsed, which is deterministic
    # per seed, so one off/detect pair per algorithm suffices (no
    # best-of-reps needed).
    for algorithm in sorted(ALGORITHMS):
        off_spec = _case_spec("medium", algorithm, False, seed)
        off = run_collective_write(off_spec)
        det = run_collective_write(off_spec.replace(
            config=CollectiveConfig(integrity=IntegritySpec(mode="detect")),
        ))
        counters = det.integrity["counters"] if det.integrity else {}
        report.integrity_cases.append(IntegrityPerfCase(
            algorithm=algorithm,
            sim_elapsed_off=off.elapsed,
            sim_elapsed_detect=det.elapsed,
            checksum_computed=int(counters.get("integrity.checksum_computed", 0)),
            checksum_reused=int(counters.get("integrity.checksum_reused", 0)),
        ))
    report.plan_cache = plan_cache_stats()
    return report


def check_against(
    report: PerfReport | dict,
    baseline: dict,
    min_speedup: float | None = None,
    max_regression: float | None = None,
) -> list[str]:
    """Gate ``report`` against a recorded ``baseline`` dict.

    Returns a list of human-readable failures (empty = pass).  Both
    medium walls are normalized by their own calibration loop before
    comparison, so baselines recorded on different hardware stay
    meaningful.
    """
    current = report.to_dict() if isinstance(report, PerfReport) else report
    failures: list[str] = []
    base_norm = baseline.get("normalized_medium")
    cur_norm = current.get("normalized_medium")
    if not base_norm or not cur_norm:
        return ["baseline or current report lacks 'normalized_medium'"]
    speedup = base_norm / cur_norm
    if min_speedup is not None and speedup < min_speedup:
        failures.append(
            f"medium scenario speedup {speedup:.2f}x < required "
            f"{min_speedup:.2f}x (baseline {base_norm:.2f} cal-units, "
            f"current {cur_norm:.2f})"
        )
    if max_regression is not None and cur_norm > base_norm * (1.0 + max_regression):
        failures.append(
            f"medium scenario regressed {cur_norm / base_norm - 1.0:.1%} "
            f"> allowed {max_regression:.0%} (baseline {base_norm:.2f} "
            f"cal-units, current {cur_norm:.2f})"
        )
    return failures


def integrity_overhead_failures(
    report: PerfReport | dict, limit: float
) -> list[str]:
    """Gate the integrity cases: detect-mode sim overhead must be ``<= limit``.

    Unlike :func:`check_against` this is an absolute gate on the current
    report (simulated time is machine-independent, so no baseline or
    calibration is involved).  Returns human-readable failures (empty =
    pass); a report without integrity cases fails, because a missing
    measurement must not read as a passing one.
    """
    current = report.to_dict() if isinstance(report, PerfReport) else report
    cases = current.get("integrity", {}).get("cases", [])
    if not cases:
        return ["report has no integrity cases to gate"]
    failures = []
    for c in cases:
        if c["overhead"] > limit:
            failures.append(
                f"integrity detect overhead {c['overhead']:+.1%} on "
                f"{c['algorithm']}/medium exceeds the {limit:.0%} limit"
            )
    return failures

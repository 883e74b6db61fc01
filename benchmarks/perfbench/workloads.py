"""The six workloads: what set-up builds, what one pass runs, what must hold.

Every workload is a fixed list of simulated runs driven through the
repo's public functions only.  ``--seed`` reaches the program as
``RunSpec.seed`` / ``base_seed`` (noise streams) and as the payload bytes
produced by the ``data_factory``.  The two faulty runs of ``chaos_repair``
are the exception for ``RunSpec.seed``: the fault schedule is a function of
that seed, and the number of recovery attempts swings host wall by 2x
between seeds (4 attempts at 2020, 7 at 2021), so they keep
``RunSpec.seed`` at :data:`CHAOS_FAULT_SEED` and take ``--seed`` through
the payload only.

A *run* is one simulated collective operation; it fails when it raises,
returns ``verified is not True`` on a verifying workload, does not
complete recovery, or breaks the workload's sha-equality check.
"""

from __future__ import annotations

import json
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.analysis.stats import best_algorithm
from repro.api import (
    CollectiveConfig,
    IntegritySpec,
    RetryPolicy,
    RunSpec,
    StagingSpec,
    TuningSpace,
    autotune,
    beegfs_crill,
    beegfs_ibex,
    crill,
    ibex,
    make_workload,
    run_collective_write,
)
from repro.bench.runner import Case, run_matrix
from repro.collio.overlap import ALGORITHMS, ASYNC_WRITE_ALGORITHMS
from repro.collio.plan import reset_plan_cache
from repro.collio.read import run_collective_read
from repro.collio.shuffle import SHUFFLE_PRIMITIVES
from repro.faults.presets import fault_preset
from repro.obs.export import chrome_trace_json, validate_chrome_trace
from repro.obs.overlap import overlap_report
from repro.units import KiB, MiB

__all__ = ["WORKLOADS", "SIZES", "CHAOS_FAULT_SEED", "Outcome", "Spans", "make"]

#: ``RunSpec.seed`` of chaos_repair's two faulty runs (see module docstring).
CHAOS_FAULT_SEED = 2020

#: Where tuner caches go: inside the checkout, removed after each use.
_WORK_DIR = Path(__file__).resolve().parent / ".work"

_PLATFORM = {"crill": (crill, beegfs_crill), "ibex": (ibex, beegfs_ibex)}

#: Problem-size overrides of the campaign's micro cases, copied from
#: ``benchmarks/conftest.MICRO_SIZE`` (the benchmark imports nothing
#: outside its own directory and ``src/``).
MICRO_SIZE = {
    "ior": (("block_size", 2 * MiB),),
    "tile_1m": (("element_size", 4096),),
    "tile_256": (("rows", 256), ("row_elements", 8)),
    "flash": (("blocks_per_proc", 5),),
}

#: Final sizes.  ``full`` is what ``BENCHMARK.json`` measures (a pass of
#: 1.2-2 s here, so a run of three set-ups plus the timed passes fits the
#: driver's budget); ``smoke`` is the test sizing.  Only ``nprocs`` and
#: block sizes were shrunk from the issue's starting values.
SIZES = {
    "full": {
        "ior_scale": {
            "crill": {"nprocs": 576, "block_size": 512 * KiB, "scale": 64},
            "ibex": {"nprocs": 4320, "block_size": 16 * KiB, "scale": 64},
        },
        "tile256_payload": {"nprocs": 36, "scale": 256, "rows": 64, "row_elements": 64},
        "stack_features": {"nprocs": 48, "scale": 256, "element_size": 2 * KiB},
        "chaos_repair": {"nprocs": 16, "scale": 256, "block_size": 4 * MiB},
        "read_back": {"nprocs": 36, "scale": 256, "rows": 64, "row_elements": 64},
        "campaign_sweep": {
            "scale": 64,
            "matrix": (("ior", "crill", 12), ("tile_256", "ibex", 12),
                       ("tile_1m", "crill", 12), ("flash", "ibex", 12)),
            "matrix_reps": 2,
            "shuffle_matrix": (("tile_256", "crill", 8), ("tile_1m", "ibex", 8)),
            "shuffle_reps": 2,
            "tune": {"nprocs": 4, "scale": 1024, "reps": 2, "space": None},
            "traced": ("ior", "crill", 16),
        },
    },
    "smoke": {
        "ior_scale": {
            "crill": {"nprocs": 96, "block_size": 256 * KiB, "scale": 64},
            "ibex": {"nprocs": 80, "block_size": 64 * KiB, "scale": 64},
        },
        "tile256_payload": {"nprocs": 4, "scale": 256, "rows": 16, "row_elements": 16},
        "stack_features": {"nprocs": 80, "scale": 256, "element_size": 64},
        "chaos_repair": {"nprocs": 8, "scale": 256, "block_size": 256 * KiB},
        "read_back": {"nprocs": 4, "scale": 256, "rows": 16, "row_elements": 16},
        "campaign_sweep": {
            "scale": 256,
            "matrix": (("ior", "crill", 4), ("tile_256", "ibex", 4)),
            "matrix_reps": 1,
            "shuffle_matrix": (("tile_256", "crill", 4), ("tile_1m", "ibex", 4)),
            "shuffle_reps": 1,
            "tune": {"nprocs": 4, "scale": 4096, "reps": 1,
                     "space": TuningSpace(cb_buffer_sizes=(None,))},
            "traced": ("ior", "crill", 4),
        },
    },
}


# --------------------------------------------------------------------------
# Spans around the benchmark's own calls (in-program spans are a later issue)
# --------------------------------------------------------------------------

class Spans:
    """Wall-clock spans kept in memory until the worker exits."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "t0": time.perf_counter(), "t1": None}
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record["t1"] = time.perf_counter()
            self._open.pop()


# --------------------------------------------------------------------------
# One run's outcome, and the counts read from public result objects
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one step of a pass did (one run, or one campaign call)."""

    label: str
    attempted: int = 1
    #: One entry per failed run, saying which check failed.
    errors: list[str] = field(default_factory=list)
    #: Simulated seconds (sum of ``result.elapsed`` over the step's runs).
    sim_elapsed: float = 0.0
    #: Host seconds per run of the step.
    run_walls: list[float] = field(default_factory=list)
    #: Work counts read from the public result (see :func:`merge_counts`).
    counts: dict[str, float] = field(default_factory=dict)
    sha: str | None = None


#: Counts that combine across runs by maximum; every other count adds.
_MAX_COUNTS = frozenset({"sim.max_heap_len", "staging.occupancy_peak_ratio"})


def merge_counts(into: dict[str, float], counts: dict[str, float]) -> None:
    for key, value in counts.items():
        if key in _MAX_COUNTS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def _phase_counts(result) -> dict[str, float]:
    """Simulated-time attribution from ``per_rank_stats`` (max over ranks)."""
    stats = result.per_rank_stats

    def phase(*names: str) -> float:
        return max((sum(s.time_in(n) for n in names) for s in stats), default=0.0)

    return {
        "collio.cycles": result.num_cycles,
        "collio.aggregators": result.num_aggregators,
        # Reads report the same two stages under scatter/read.
        "collio.sim_shuffle_s": phase("shuffle", "scatter"),
        "collio.sim_write_s": phase("write", "read"),
        "collio.sim_gather_s": phase("gather"),
        "_sim_total_s": phase("total"),
    }


def write_counts(result) -> dict[str, float]:
    """Per-layer work counts of one ``CollectiveWriteResult``."""
    c = result.metrics["counters"]
    g = result.metrics["gauges"]
    out = _phase_counts(result)
    out.update({
        "sim.events": c.get("sim.events_processed", 0),
        "sim.max_heap_len": g.get("sim.max_heap_len", 0),
        "mpi.messages_inter_node": c.get("comm.messages_inter_node", 0),
        "mpi.messages_intra_node": c.get("comm.messages_intra_node", 0),
        "mpi.rendezvous_sends": c.get("send.rendezvous", 0),
        "mpi.progress_deferred": c.get("progress.deferred", 0),
        "mpi.bufpool_bytes_allocated": c.get("bufpool.bytes_allocated", 0),
        "_bufpool_hits": c.get("bufpool.hits", 0),
        "_bufpool_takes": c.get("bufpool.takes", 0),
        "fs.bytes_written": g.get("fs.bytes_written", 0),
        "fs.writes_failed": c.get("fs.writes_failed", 0),
        "fs.writes_rejected": c.get("fs.writes_rejected", 0),
        "fs.targets_down": g.get("fs.targets_down", 0),
        "staging.absorbed_bytes": c.get("staging.absorbed_bytes", 0),
        "staging.drained_bytes": c.get("staging.drained_bytes", 0),
        "staging.stalls": c.get("staging.stalls", 0),
        "faults.injected": sum(v for k, v in c.items() if k.startswith("fault.")),
        "faults.retry_attempts": c.get("retry.attempt", 0),
        "_retry_recovered": c.get("retry.recovered", 0),
        "_retry_exhausted": c.get("retry.exhausted", 0),
    })
    if g.get("staging.capacity"):
        out["staging.occupancy_peak_ratio"] = g["staging.occupancy_peak"] / g["staging.capacity"]
    if result.integrity is not None:
        ic = result.integrity["counters"]
        out["integrity.checksum_computed"] = ic.get("integrity.checksum_computed", 0)
        out["integrity.checksum_reused"] = ic.get("integrity.checksum_reused", 0)
        out["integrity.detected"] = result.integrity["detected"]
        out["integrity.repaired"] = result.integrity["repaired"]
    if result.recovery is not None:
        out["recovery.attempts"] = result.recovery.attempts
        out["recovery.replayed_bytes"] = result.recovery.replayed_bytes
        out["recovery.journal_commits"] = result.recovery.journal_commits
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_counts(counts: dict[str, float]) -> dict[str, float]:
    """Turn one pass's merged raw counts into the named count metrics."""
    out = {k: v for k, v in counts.items() if not k.startswith("_")}
    out["collio.plan_cache_hit_ratio"] = _ratio(
        counts.get("_plan_hits", 0),
        counts.get("_plan_hits", 0) + counts.get("_plan_misses", 0))
    out["mpi.bufpool_hit_ratio"] = _ratio(
        counts.get("_bufpool_hits", 0), counts.get("_bufpool_takes", 0))
    out["collio.comm_fraction"] = _ratio(
        counts.get("collio.sim_shuffle_s", 0), counts.get("_sim_total_s", 0))
    computed = counts.get("integrity.checksum_computed", 0)
    reused = counts.get("integrity.checksum_reused", 0)
    out["integrity.reuse_ratio"] = _ratio(reused, computed + reused)
    recovered = counts.get("_retry_recovered", 0)
    out["faults.retry_recovered_ratio"] = _ratio(
        recovered, recovered + counts.get("_retry_exhausted", 0))
    out["tune.cache_hit_ratio"] = _ratio(
        counts.get("_tune_cache_hits", 0), counts.get("tune.trials", 0))
    out["analysis.async_win_share"] = _ratio(
        counts.get("_async_wins", 0), counts.get("_async_cases", 0))
    out["analysis.two_sided_win_share"] = _ratio(
        counts.get("_two_sided_wins", 0), counts.get("_shuffle_cases", 0))
    return out


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def seeded_data(seed: int):
    """``default_data``'s cheap periodic payload, shifted by the seed."""

    def factory(rank: int, nbytes: int) -> np.ndarray:
        period = (
            (np.arange(251, dtype=np.int64) * 31 + rank * 65537 + seed * 7919) % 251
        ).astype(np.uint8)
        return np.tile(period, -(-nbytes // 251))[:nbytes]

    return factory


def scenario(benchmark: str, platform: str, nprocs: int, scale: int, size: dict) -> dict:
    """Views plus the spec pair and scaled config of one named case."""
    cluster_fn, fs_fn = _PLATFORM[platform]
    workload = make_workload(benchmark, nprocs, scale=scale, **size)
    return {
        "cluster": cluster_fn(scale=scale),
        "fs": fs_fn(scale=scale),
        "nprocs": nprocs,
        "views": workload.views(),
        "config": CollectiveConfig.for_scale(
            scale, extent_cost_factor=workload.extent_cost_factor),
    }


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """Set-up in ``__init__``; :meth:`run_pass` runs the fixed list of runs."""

    name = ""
    #: Every run of a pass must produce the file sha of the pass's first run.
    same_sha = False
    #: :func:`scenario` arguments of the case the direct per-layer timings
    #: (views, plan build, world build) are taken on; set by :meth:`build`.
    probe: tuple

    def __init__(self, seed: int, size: dict, spans: Spans) -> None:
        self.seed, self.size, self.spans = seed, size, spans
        with spans.span("setup.inputs"):
            self.build()

    def build(self) -> None:
        raise NotImplementedError

    def steps(self) -> list:
        """``(label, callable returning Outcome)`` pairs of one pass."""
        raise NotImplementedError

    def run_pass(self) -> list[Outcome]:
        outcomes = []
        for label, call in self.steps():
            with self.spans.span(f"run.{label}"):
                outcomes.append(call())
        if self.same_sha:
            want = outcomes[0].sha
            for o in outcomes[1:]:
                if not o.errors and o.sha != want:
                    o.errors.append(
                        f"{o.label}: file sha {o.sha} != {outcomes[0].label}'s {want}")
        return outcomes


def _timed_run(label: str, call, check) -> Outcome:
    """One simulated run: a raise is a failed run, the pass goes on."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # boundary: recorded in fail_ratio and printed
        return Outcome(label, errors=[f"{label}: raised {type(exc).__name__}: {exc}"],
                       run_walls=[time.perf_counter() - t0])
    out = Outcome(label, sim_elapsed=result.elapsed, run_walls=[time.perf_counter() - t0])
    check(result, out)
    return out


def _run_write(label: str, spec: RunSpec) -> Outcome:
    def check(result, out: Outcome) -> None:
        out.counts = write_counts(result)
        out.sha = result.file_sha256
        if spec.verify and result.verified is not True:
            out.errors.append(f"{label}: verified is {result.verified!r}")
        if result.recovery is not None and not result.recovery.completed:
            out.errors.append(f"{label}: recovery did not complete")

    return _timed_run(label, lambda: run_collective_write(spec), check)


class _WriteWorkload(Workload):
    """A pass that is a list of ``RunSpec``s through ``run_collective_write``."""

    specs: list

    def steps(self) -> list:
        return [(label, partial(_run_write, label, spec)) for label, spec in self.specs]


class IorScale(_WriteWorkload):
    name = "ior_scale"

    def build(self) -> None:
        self.specs = []
        for platform, algorithm in (("crill", "write_comm2"), ("ibex", "write_overlap")):
            p = self.size[platform]
            case = ("ior", platform, p["nprocs"], p["scale"], {"block_size": p["block_size"]})
            self.specs.append((f"{platform}.{algorithm}", RunSpec(
                **scenario(*case), algorithm=algorithm, shuffle="two_sided",
                carry_data=False, seed=self.seed)))
            if platform == "crill":
                self.probe = case


class Tile256Payload(_WriteWorkload):
    name = "tile256_payload"
    same_sha = True

    def build(self) -> None:
        p = self.size
        self.probe = ("tile_256", "crill", p["nprocs"], p["scale"],
                      {"rows": p["rows"], "row_elements": p["row_elements"]})
        base = RunSpec(**scenario(*self.probe), algorithm="write_comm2", verify=True,
                       seed=self.seed, data_factory=seeded_data(self.seed))
        self.specs = [(s, base.replace(shuffle=s)) for s in ("two_sided", "one_sided_fence")]


class StackFeatures(_WriteWorkload):
    name = "stack_features"
    same_sha = True

    def build(self) -> None:
        p = self.size
        self.probe = ("tile_1m", "ibex", p["nprocs"], p["scale"],
                      {"element_size": p["element_size"]})
        sc = scenario(*self.probe)
        sc["config"] = sc["config"].with_(integrity=IntegritySpec(mode="detect"))
        base = RunSpec(**sc, two_layer=True, verify=True, seed=self.seed,
                       data_factory=seeded_data(self.seed))
        self.specs = [
            (f"{algorithm}.{policy}",
             base.replace(algorithm=algorithm, staging=StagingSpec(policy=policy)))
            for algorithm, policy in (("write_comm2", "watermark"),
                                      ("write_overlap", "immediate"))
        ]


class ChaosRepair(_WriteWorkload):
    name = "chaos_repair"
    #: The pass's first run is the fault-free write of the same payload.
    same_sha = True

    def build(self) -> None:
        p = self.size
        self.probe = ("ior", "crill", p["nprocs"], p["scale"], {"block_size": p["block_size"]})
        sc = scenario(*self.probe)
        fault_free = RunSpec(**sc, verify=True, seed=self.seed,
                             data_factory=seeded_data(self.seed))
        faulty = fault_free.replace(seed=CHAOS_FAULT_SEED, retry=RetryPolicy())
        repair = sc["config"].with_(integrity=IntegritySpec(mode="repair"))
        self.specs = [
            ("fault_free", fault_free),
            ("crash_recovery", faulty.replace(
                algorithm="write_overlap", faults=fault_preset("degraded_cluster"))),
            ("bitrot_repair", faulty.replace(
                algorithm="write_comm2", faults=fault_preset("bitrot_cluster"),
                config=repair)),
        ]


class ReadBack(Workload):
    name = "read_back"
    RUNS = (("read_ahead", "two_sided"), ("scatter_overlap", "two_sided"),
            ("read_ahead", "one_sided_get"))

    def build(self) -> None:
        p = self.size
        self.probe = ("tile_256", "crill", p["nprocs"], p["scale"],
                      {"rows": p["rows"], "row_elements": p["row_elements"]})
        self.sc = scenario(*self.probe)
        self.data = seeded_data(self.seed)

    def _read(self, label: str, algorithm: str, scatter: str) -> Outcome:
        sc = self.sc

        def check(result, out: Outcome) -> None:
            out.counts = _phase_counts(result)
            if result.verified is not True:
                out.errors.append(f"{label}: verified is {result.verified!r}")

        return _timed_run(label, lambda: run_collective_read(
            sc["cluster"], sc["fs"], sc["nprocs"], sc["views"], data_factory=self.data,
            algorithm=algorithm, scatter=scatter, config=sc["config"], seed=self.seed,
            verify=True), check)

    def steps(self) -> list:
        return [(f"{a}.{s}", partial(self._read, f"{a}.{s}", a, s)) for a, s in self.RUNS]


class CampaignSweep(Workload):
    """What users launch: matrices, the tuner cold and warm, one traced run."""

    name = "campaign_sweep"

    def build(self) -> None:
        p = self.size
        self.matrix = [Case(b, c, n, MICRO_SIZE[b]) for b, c, n in p["matrix"]]
        self.shuffle_matrix = [Case(b, c, n, MICRO_SIZE[b]) for b, c, n in p["shuffle_matrix"]]
        b, c, n = p["traced"]
        self.probe = (b, c, n, p["scale"], dict(MICRO_SIZE[b]))
        self.traced_spec = RunSpec(**scenario(*self.probe), algorithm="write_comm2",
                                   carry_data=False, trace=True, seed=self.seed)

    def steps(self) -> list:
        return [
            ("matrix.jobs1", self._algorithm_matrix),
            ("matrix.jobs2", self._shuffle_matrix),
            ("autotune", self._autotune),
            ("traced_export", self._traced_export),
        ]

    def _matrix(self, label: str, cases, algorithms, shuffles, reps, jobs) -> tuple:
        """Run one matrix; returns ``(outcome, MatrixResult | None)``."""
        nseries = len(cases) * len(algorithms) * len(shuffles)
        out = Outcome(label, attempted=nseries * reps)
        walls: list[float] = []
        last = [time.perf_counter()]

        def progress(case, algorithm, shuffle, series) -> None:
            # jobs=1 streams per series: the gap is that series' host wall.
            now = time.perf_counter()
            walls.extend([(now - last[0]) / reps] * reps)
            last[0] = now

        try:
            matrix = run_matrix(
                cases, algorithms, shuffles=shuffles, reps=reps,
                scale=self.size["scale"], base_seed=self.seed,
                progress=progress if jobs == 1 else None, jobs=jobs)
        except Exception as exc:  # boundary: the whole matrix counts as failed
            out.errors = [f"{label}: raised {type(exc).__name__}: {exc}"] * out.attempted
            return out, None
        out.run_walls = walls
        for result in matrix.results:
            for key, series in result.series.items():
                out.sim_elapsed += sum(series.times)
                if series.count != reps:
                    out.errors.append(f"{label}: {result.case.label} {key} has "
                                      f"{series.count} measurements, expected {reps}")
        return out, matrix

    def _algorithm_matrix(self) -> Outcome:
        # Cold plan cache on every pass: the campaign's plan-miss cost is
        # part of what this workload measures.
        reset_plan_cache()
        out, matrix = self._matrix(
            "matrix.jobs1", self.matrix, sorted(ALGORITHMS), ("two_sided",),
            self.size["matrix_reps"], jobs=1)
        if matrix is not None:
            winners = [best_algorithm(r.by_algorithm()) for r in matrix.results]
            out.counts = {
                "_async_cases": len(winners),
                "_async_wins": sum(w in ASYNC_WRITE_ALGORITHMS for w in winners),
            }
        return out

    def _shuffle_matrix(self) -> Outcome:
        out, matrix = self._matrix(
            "matrix.jobs2", self.shuffle_matrix, ["write_comm2"],
            tuple(sorted(SHUFFLE_PRIMITIVES)), self.size["shuffle_reps"], jobs=2)
        if matrix is not None:
            winners = [
                min(r.by_shuffle("write_comm2").items(), key=lambda kv: (kv[1].point, kv[0]))[0]
                for r in matrix.results
            ]
            out.counts = {
                "_shuffle_cases": len(winners),
                "_two_sided_wins": sum(w == "two_sided" for w in winners),
            }
        return out

    def _autotune(self) -> Outcome:
        """Tuner against a fresh cache directory, then again warm."""
        t = self.size["tune"]
        out = Outcome("autotune", attempted=2)
        _WORK_DIR.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory(dir=_WORK_DIR) as cache_dir:
                cold, warm = (
                    autotune("ior", "crill", nprocs=t["nprocs"], scale=t["scale"],
                             space=t["space"], search="halving", reps=t["reps"],
                             cache_dir=cache_dir, base_seed=self.seed)
                    for _ in range(2)
                )
        except Exception as exc:  # boundary
            out.errors = [f"autotune: raised {type(exc).__name__}: {exc}"] * 2
            return out
        out.run_walls = [time.perf_counter() - t0]
        out.sim_elapsed = sum(sum(r.times) for r in cold.ranked + cold.pruned)
        trials = cold.counters.get("tune.trial", 0) + warm.counters.get("tune.trial", 0)
        out.counts = {
            "tune.trials": trials,
            "_tune_cache_hits": (cold.counters.get("tune.cache_hit", 0)
                                 + warm.counters.get("tune.cache_hit", 0)),
        }
        if warm.counters.get("tune.sim_run", 0) != 0:
            out.errors.append(
                f"autotune: warm re-run simulated {warm.counters['tune.sim_run']} trials")
        elif warm.to_json() != cold.to_json():
            out.errors.append("autotune: warm result differs from cold result")
        return out

    def _traced_export(self) -> Outcome:
        def check(result, out: Outcome) -> None:
            out.counts = write_counts(result)
            with self.spans.span("export.chrome_trace"):
                exported = json.loads(chrome_trace_json(result.spans))
            try:
                validate_chrome_trace(exported)
            except ValueError as exc:
                out.errors.append(f"traced_export: chrome trace rejected: {exc}")
            out.counts["collio.overlap_efficiency"] = overlap_report(result.spans).efficiency

        return _timed_run(
            "traced_export", lambda: run_collective_write(self.traced_spec), check)


WORKLOADS = {w.name: w for w in (
    IorScale, Tile256Payload, StackFeatures, ChaosRepair, ReadBack, CampaignSweep)}


def make(name: str, seed: int, size: str, spans: Spans) -> Workload:
    return WORKLOADS[name](seed, SIZES[size][name], spans)

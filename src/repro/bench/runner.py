"""Case runner: the repetition primitive and per-case plan reuse."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.analysis.stats import Series
from repro.bench.parallel import parallel_map
from repro.collio.api import RunSpec, build_plan, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.overlap import make_algorithm
from repro.collio.view import FileView
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.fs.presets import beegfs_crill, beegfs_ibex, FsSpec
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.hardware.presets import preset
from repro.sim.engine import Engine
from repro.units import KiB, MB
from repro.workloads import make_workload

__all__ = [
    "Case", "CaseResult", "MatrixResult", "measure", "measure_all",
    "run_case", "run_matrix", "small_scenario", "specs_for",
]

#: Storage preset used for each cluster (the paper's BeeGFS deployments).
_CLUSTER_FS = {"crill": beegfs_crill, "ibex": beegfs_ibex}


def specs_for(cluster: str, scale: int) -> tuple[ClusterSpec, FsSpec]:
    """The (cluster, file-system) spec pair of a named platform."""
    return preset(cluster, scale=scale), _CLUSTER_FS[cluster](scale=scale)


def small_scenario(name: str, nprocs: int, scale: int) -> RunSpec:
    """The fault campaigns' verified run: 4 nodes, 4 storage targets, one
    contiguous block per rank (64 KiB at scale 1).

    Deliberately small: chaos reruns the whole collective once per
    failover, and few targets make degraded striping a visible share of
    the load.  ``name`` seeds the per-target noise streams
    (``fs.<name>fs.t<i>``), so each campaign keeps its own.
    """
    cluster = ClusterSpec(
        name=name, num_nodes=4, cores_per_node=4,
        network_bandwidth=1000 * MB, network_latency=1e-6, eager_threshold=1024,
    )
    fs = FsSpec(
        name=f"{name}fs", num_targets=4, target_bandwidth=300 * MB,
        target_latency=5e-5, stripe_size=4096,
    )
    per_rank = max(4096, int(64 * KiB) // scale)
    views = {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}
    return RunSpec(cluster=cluster, fs=fs, nprocs=nprocs, views=views, verify=True)


def _run_rep(task: tuple):
    """One repetition (module-level so pool workers can import it)."""
    run, spec, keep = task
    result = run(spec)
    return result.elapsed, result if keep else None


def measure_all(
    specs, reps: int, base_seed: int = DEFAULT_SEED, jobs: int = 1,
    key: tuple = (), run=run_collective_write,
):
    """The paper's methodology, for each spec in turn: ``reps`` runs at
    fresh noise seeds (1000 apart, from ``base_seed``), folded into a
    min-of-series :class:`Series`.

    Yields ``(series, last_run)`` per spec in input order; the last run
    carries what a campaign reads besides the time (counters, sha,
    spans).  With ``jobs == 1`` runs happen as the caller iterates, so
    progress lines stream; ``jobs > 1`` first fans every ``(spec, rep)``
    task through :func:`~repro.bench.parallel.parallel_map` (``run`` must
    be module-level).  The seed rides in the spec: any ``jobs``, same series.
    """
    specs = list(specs)
    tasks = [
        (run, spec.replace(seed=base_seed + 1000 * rep), rep == reps - 1)
        for spec in specs for rep in range(reps)
    ]
    runs = iter(parallel_map(_run_rep, tasks, jobs=jobs)) if jobs > 1 \
        else map(_run_rep, tasks)
    for spec in specs:
        series = Series(key=key, algorithm=spec.algorithm)
        for _ in range(reps):
            elapsed, last = next(runs)
            series.add(elapsed)
        yield series, last


def measure(spec: RunSpec, reps: int, base_seed: int = DEFAULT_SEED,
            key: tuple = ()):
    """One spec's ``(series, last_run)``: :func:`measure_all` of one."""
    return next(measure_all([spec], reps, base_seed, key=key))


@dataclass(frozen=True)
class Case:
    """One of the paper's test cases."""

    benchmark: str          # workload registry name: ior / tile_256 / tile_1m / flash
    cluster: str            # 'crill' or 'ibex'
    nprocs: int
    #: Problem-size label with workload kwargs (hashable): e.g.
    #: (("block_size", 1 << 24),) for an IOR size variant.
    size: tuple = ()

    @property
    def label(self) -> str:
        suffix = "" if not self.size else "/" + ",".join(f"{k}={v}" for k, v in self.size)
        return f"{self.benchmark}@{self.cluster} P={self.nprocs}{suffix}"


@dataclass
class CaseResult:
    """All series measured for one case."""

    case: Case
    #: (algorithm, shuffle) -> Series
    series: dict[tuple[str, str], Series] = field(default_factory=dict)
    num_aggregators: int = 0
    num_cycles: int = 0
    total_bytes: int = 0

    def by_algorithm(self, shuffle: str = "two_sided") -> dict[str, Series]:
        return {a: s for (a, sh), s in self.series.items() if sh == shuffle}

    def by_shuffle(self, algorithm: str = "write_comm2") -> dict[str, Series]:
        return {sh: s for (a, sh), s in self.series.items() if a == algorithm}


@dataclass
class MatrixResult:
    """Results of a whole experiment matrix."""

    results: list[CaseResult] = field(default_factory=list)

    def cases(self, **filters) -> list[CaseResult]:
        out = []
        for r in self.results:
            if all(getattr(r.case, k) == v for k, v in filters.items()):
                out.append(r)
        return out

    def find(self, benchmark: str, cluster: str, nprocs: int) -> CaseResult:
        for r in self.results:
            c = r.case
            if (c.benchmark, c.cluster, c.nprocs) == (benchmark, cluster, nprocs):
                return r
        raise KeyError(f"no case {benchmark}@{cluster} P={nprocs}")


def run_case(
    case: Case,
    algorithms: list[str],
    shuffles: tuple[str, ...] = ("two_sided",),
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    base_seed: int = DEFAULT_SEED,
    progress=None,
) -> CaseResult:
    """Measure every (algorithm, shuffle) series of one case.

    Repetitions use distinct seeds (fresh noise draws), mirroring the
    paper's 3-9 measurements per series; the plan for each cycle size is
    built once and shared across algorithms and repetitions.
    """
    cluster_spec, fs_spec = specs_for(case.cluster, scale)
    workload = make_workload(case.benchmark, case.nprocs, scale=scale, **dict(case.size))
    config = CollectiveConfig.for_scale(scale, extent_cost_factor=workload.extent_cost_factor)
    views = workload.views()
    placement = Cluster(Engine(), cluster_spec)
    plans: dict[int, object] = {}
    result = CaseResult(case)
    for algorithm in algorithms:
        cycle_bytes = make_algorithm(algorithm).cycle_bytes(config.cb_buffer_size)
        plan = plans.get(cycle_bytes)
        if plan is None:
            plan = build_plan(
                placement, case.nprocs, views, config, cycle_bytes,
                stripe_size=fs_spec.stripe_size,
            )
            plans[cycle_bytes] = plan
        for shuffle in shuffles:
            series, run = measure(
                RunSpec(
                    cluster=cluster_spec, fs=fs_spec, nprocs=case.nprocs,
                    views=views, algorithm=algorithm, shuffle=shuffle,
                    config=config, carry_data=False, plan=plan,
                ),
                reps, base_seed, key=(case.label,),
            )
            result.num_aggregators = run.num_aggregators
            result.num_cycles = max(result.num_cycles, run.num_cycles)
            result.total_bytes = run.total_bytes
            result.series[(algorithm, shuffle)] = series
            if progress is not None:
                progress(case, algorithm, shuffle, series)
    return result


def run_matrix(
    cases: list[Case],
    algorithms: list[str],
    shuffles: tuple[str, ...] = ("two_sided",),
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    base_seed: int = DEFAULT_SEED,
    progress=None,
    jobs: int = 1,
) -> MatrixResult:
    """Run every case of an experiment matrix.

    ``jobs`` fans whole cases out over a process pool
    (:func:`repro.bench.parallel.parallel_map`), so a worker builds its
    case's plans once.  Per-rep seeds are a fixed derivation of
    ``base_seed`` inside each case, and case results fold back in input
    order, so the matrix — and every table or CSV derived from it — is
    byte-identical for any ``jobs``; with ``jobs > 1`` the progress
    callback fires per completed case instead of streaming per series.
    """
    run = functools.partial(
        run_case, algorithms=list(algorithms), shuffles=tuple(shuffles),
        reps=reps, scale=scale, base_seed=base_seed,
    )
    if jobs == 1:
        return MatrixResult([run(case, progress=progress) for case in cases])
    results = parallel_map(run, cases, jobs=jobs)
    if progress is not None:
        for result in results:
            for (algorithm, shuffle), series in result.series.items():
                progress(result.case, algorithm, shuffle, series)
    return MatrixResult(results)

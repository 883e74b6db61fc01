"""Public entry points for the collective write.

Two levels:

* :func:`collective_write` — the MPI-style per-rank call (a generator run
  inside a simulated rank program), analogous to ``MPI_File_write_all``
  with the fcoll component chosen by ``algorithm``/``shuffle``.
* :func:`run_collective_write` — one call that builds the world, runs the
  collective write for a given :class:`RunSpec`, optionally verifies the
  resulting file byte-for-byte, and returns a
  :class:`CollectiveWriteResult`.

The :class:`RunSpec` dataclass is the primary way to describe a run::

    spec = RunSpec(cluster=crill(), fs=beegfs_crill(), nprocs=16,
                   views=views, algorithm="write_comm2", trace=True)
    result = run_collective_write(spec)
    result.overlap_efficiency()      # fraction of write time hidden

Every run goes through one :class:`RunPipeline`: a plain run is one
attempt, the crash-recovery loop (:mod:`repro.recovery.manager`) drives
several, a collective read (:mod:`repro.collio.read`) is one in the other
:class:`Direction`, and all get their result and ``metrics`` from its one
builder.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from repro.collio.aggregation import elect_leaders, select_aggregators
from repro.collio.config import CollectiveConfig
from repro.collio.context import AlgoContext
from repro.collio.domains import partition_domains
from repro.collio.intranode import TwoLayerShuffle
from repro.collio.overlap import ALGORITHMS
from repro.collio.plan import (
    TwoLayerPlan,
    TwoPhasePlan,
    cached_plan,
    plan_content_key,
    store_plan,
)
from repro.collio.shuffle import SHUFFLE_PRIMITIVES
from repro.collio.view import FileView, compose
from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError, ReproError, VerificationError
from repro.faults.retry import RetryPolicy
from repro.faults.spec import FaultSpec
from repro.fs.presets import FsSpec
from repro.hardware.cluster import ClusterSpec
from repro.mpi.world import World
from repro.payload import Sized
from repro.sim.trace import Recorder
from repro.specbase import SpecBase

__all__ = [
    "CollectiveWriteResult",
    "RunSpec",
    "build_plan",
    "collective_write",
    "default_data",
    "run_collective_write",
]


#: How many file bytes verification holds an expectation for at a time.
VERIFY_WINDOW = 4 << 20


def _file_extent(views: dict[int, FileView]) -> int:
    """End offset of the file the views describe (0 if they are empty)."""
    return max((v.file_range[1] for v in views.values()), default=0)


def default_data(rank: int, nbytes: int) -> np.ndarray:
    """Deterministic, rank-distinguishable payload bytes.

    Byte ``i`` is ``(i * 31 + rank * 65537) % 251``.  Because 31 and 251
    are coprime, the sequence over ``i`` is periodic with period 251, so
    it is materialized by tiling one precomputed period instead of
    running the modular arithmetic over a full-length ``int64`` arange
    (which cost two transient ``8 * nbytes`` arrays per rank and
    dominated payload-carrying benchmark runs).
    """
    period = ((np.arange(251, dtype=np.int64) * 31 + rank * 65537) % 251).astype(np.uint8)
    reps = -(-nbytes // 251)  # ceil
    return np.tile(period, reps)[:nbytes]


@dataclass(frozen=True, eq=False)
class Direction:
    """Which way bytes move through the two-phase mechanism.

    Chosen by the entry point, as MPI's ``write_all`` / ``read_all`` do —
    never a spec field.  A direction owns its registries of cycle loops
    and exchange primitives (shuffles on writes, scatters on reads;
    ``RunSpec.shuffle`` carries either name).  Plan, rank context, run
    pipeline and result are shared; the write-only features (two-layer
    gather, staging, integrity, retry, recovery) are inert on reads.
    """

    name: str
    algorithms: dict
    primitives: dict

    def algorithm(self, name: str):
        """A fresh instance of the cycle loop registered under ``name``."""
        return self._make("algorithm", self.algorithms, name)

    def primitive(self, name: str):
        """A fresh instance of the exchange primitive registered under ``name``."""
        return self._make("shuffle", self.primitives, name)

    def _make(self, kind: str, registry: dict, name: str):
        if name not in registry:
            raise ConfigurationError(
                f"unknown {kind} {name!r} for a collective {self.name}; "
                f"known: {sorted(registry)}"
            )
        return registry[name]()


WRITE = Direction("write", ALGORITHMS, SHUFFLE_PRIMITIVES)


@dataclass(frozen=True)
class RunSpec(SpecBase):
    """Complete description of one simulated collective write.

    Groups the scenario (cluster, file system, ranks, views), the
    algorithm choice, fault/retry behaviour and observability options
    that used to travel as ~16 loose keyword arguments.  Frozen so specs
    can be shared, cached and varied safely with :meth:`replace`, and a
    :class:`~repro.specbase.SpecBase`, so it serializes
    (``to_dict``/``to_json``) and hashes canonically (``spec_sha256``).
    A prebuilt ``plan`` is derived state and is not serialized.
    """

    _transient: ClassVar[frozenset[str]] = frozenset({"plan"})

    cluster: ClusterSpec
    fs: FsSpec
    nprocs: int
    views: dict[int, FileView]
    #: ``(rank, nbytes) -> uint8 array``: a rank's payload.  It must be a
    #: pure function of its arguments: a read lays each payload out in the
    #: file, drops it and calls the factory again to verify (the tuner
    #: cache and the goldens assume the same).
    data_factory: Callable[[int, int], np.ndarray] = default_data
    algorithm: str = "write_overlap"
    shuffle: str = "two_sided"
    config: CollectiveConfig | None = None
    #: Shorthand for ``config.with_(two_layer=...)``: two-layer intra-node
    #: aggregation (True/False/"auto"); None keeps the config's setting.
    two_layer: bool | str | None = None
    seed: int = DEFAULT_SEED
    verify: bool = False
    #: False = size-only mode (identical timing, no payload bytes move).
    carry_data: bool = True
    plan: TwoPhasePlan | None = None
    path: str = "/collective.out"
    faults: FaultSpec | None = None
    #: Shorthand for ``config.with_(retry=...)``.
    retry: RetryPolicy | None = None
    #: Shorthand for ``config.with_(staging=...)``: the node-local
    #: burst-buffer tier (a :class:`~repro.staging.spec.StagingSpec`);
    #: None keeps the config's setting.
    staging: Any = None
    #: Tunables of the crash-recovery loop (a
    #: :class:`~repro.recovery.spec.RecoverySpec`); only consulted when
    #: ``faults`` has crash-class rates.  ``None`` = defaults.  Typed
    #: loosely because collio must not import the recovery layer above it.
    recovery: Any = None
    auto_cache_dir: str | None = None
    #: Record span timelines (exportable as a Chrome trace; see repro.obs).
    trace: bool = False
    #: Ring-buffer bound for the run's recorded spans (None = unbounded).
    max_trace_records: int | None = None

    def validate(self, direction: Direction = WRITE) -> "RunSpec":
        """Check cross-field consistency; returns self for chaining."""
        writing = direction is WRITE
        if self.nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {self.nprocs}")
        if set(self.views) != set(range(self.nprocs)):
            raise ConfigurationError("views must cover exactly ranks 0..nprocs-1")
        # "auto" has the tuner race the write algorithms.
        if not (writing and self.algorithm == "auto"):
            direction.algorithm(self.algorithm)
        direction.primitive(self.shuffle)
        if self.two_layer not in (None, True, False, "auto"):
            raise ConfigurationError(
                f"two_layer must be True, False, 'auto' or None, got {self.two_layer!r}"
            )
        if self.staging is not None:
            from repro.staging.spec import StagingSpec  # local: layering

            if not isinstance(self.staging, StagingSpec):
                raise ConfigurationError(
                    f"staging must be a StagingSpec or None, "
                    f"got {type(self.staging).__name__}"
                )
        config = self.config or CollectiveConfig()
        if (self.verify or config.verify) and not self.carry_data:
            raise ConfigurationError("verify=True requires carry_data=True")
        if (
            writing  # reads never checksum: the layer is inert there
            and config.integrity is not None
            and config.integrity.enabled
            and not self.carry_data
        ):
            raise ConfigurationError(
                "integrity checking requires carry_data=True "
                "(checksums need real payload bytes)"
            )
        if self.max_trace_records is not None and self.max_trace_records < 1:
            raise ConfigurationError(
                f"max_trace_records must be >= 1 or None, got {self.max_trace_records}"
            )
        return self

    def resolved_config(self) -> CollectiveConfig:
        """The effective config: defaults applied, shorthands folded in."""
        config = self.config or CollectiveConfig()
        if self.retry is not None:
            config = config.with_(retry=self.retry)
        if self.two_layer is not None:
            config = config.with_(two_layer=self.two_layer)
        if self.staging is not None:
            config = config.with_(staging=self.staging)
        return config


def build_plan(
    cluster,
    nprocs: int,
    views: dict[int, FileView],
    config: CollectiveConfig,
    cycle_bytes: int,
    stripe_size: int | None = None,
    exclude_ranks: frozenset[int] = frozenset(),
    two_layer: bool | str | None = None,
) -> TwoPhasePlan:
    """Select aggregators, partition domains and schedule all cycles.

    ``cluster`` is a :class:`~repro.hardware.cluster.Cluster` (only its
    rank placement is used, so a throwaway instance works); the plan is a
    pure data object reusable across repeated runs of the same case.
    ``exclude_ranks`` bars ranks from aggregator duty (crashed ranks
    during recovery failover) without removing them as data senders; it
    equally bars them from intra-node leadership when the plan is
    two-layer.  ``two_layer`` overrides ``config.two_layer`` (None keeps
    it); ``"auto"`` resolves to enabled when the run places at least two
    ranks per used node, where the inter-node message-count win exists.
    Two-layer runs return a :class:`~repro.collio.plan.TwoLayerPlan`.

    Results are served from a process-local content-hash cache (see
    :func:`repro.collio.plan.plan_content_key`): repeated runs and
    tuning trials with identical ingredients skip the partitioning pass
    entirely.
    """
    placement = tuple(cluster.node_of_rank(r) for r in range(nprocs))
    cache_key = plan_content_key(
        views,
        nprocs=nprocs,
        cycle_bytes=int(cycle_bytes),
        stripe_size=stripe_size,
        exclude_ranks=tuple(sorted(exclude_ranks)),
        two_layer=two_layer,
        config=config.cache_key(),
        placement=placement,
    )
    cached = cached_plan(cache_key)
    if cached is not None:
        return cached
    total_bytes = sum(v.total_bytes for v in views.values())
    aggregators = select_aggregators(
        cluster,
        nprocs,
        total_bytes,
        config.cb_buffer_size,
        num_aggregators=config.num_aggregators,
        exclude=exclude_ranks,
    )
    lo = min((v.file_range[0] for v in views.values() if v.num_extents), default=0)
    hi = _file_extent(views)
    stripe = stripe_size if config.stripe_align_domains else None
    domains = partition_domains(lo, hi, len(aggregators), stripe_size=stripe)
    if two_layer is None:
        two_layer = config.two_layer
    if two_layer == "auto":
        nodes_used = {cluster.node_of_rank(r) for r in range(nprocs)}
        two_layer = nprocs >= 2 * len(nodes_used)
    if two_layer:
        leader_of_rank = elect_leaders(cluster, nprocs, exclude=exclude_ranks)
        plan = TwoLayerPlan.build_two_layer(
            views, aggregators, domains, cycle_bytes, leader_of_rank
        )
    else:
        plan = TwoPhasePlan.build(views, aggregators, domains, cycle_bytes)
    store_plan(cache_key, plan)
    return plan


def collective_write(
    mpi,
    fh,
    view: FileView,
    data: np.ndarray,
    plan: TwoPhasePlan,
    algorithm: str = "write_overlap",
    shuffle: str = "two_sided",
    config: CollectiveConfig | None = None,
    exchange_metadata: bool = True,
    direction: Direction = WRITE,
):
    """Per-rank collective write (generator; run on **every** rank).

    Returns the rank's :class:`~repro.collio.context.PhaseStats`.
    ``exchange_metadata=False`` skips the planning allgather when the
    caller already performed it (e.g. ``MPIFile.write_all``).

    The read entry points pass their ``direction``: ``data`` is then the
    buffer to fill, and nothing write-only is attached or run — not even
    a tier or integrity layer an earlier write left on this world.
    """
    config = config or CollectiveConfig()
    algo = direction.algorithm(algorithm)
    engine = direction.primitive(shuffle)
    writing = direction is WRITE
    if isinstance(plan, TwoLayerPlan):
        engine = TwoLayerShuffle(engine)
    if writing and config.staging is not None and config.staging.enabled:
        # First rank in creates the world's tier; peers reuse it (the
        # same get-or-create pattern ``world.journal`` follows).
        from repro.staging.tier import StagingTier  # local: layering

        StagingTier.ensure(mpi.world, config.staging)
    if writing and config.integrity is not None and config.integrity.enabled:
        from repro.integrity.layer import IntegrityLayer  # local: layering

        IntegrityLayer.ensure(mpi.world, config.integrity)
    ctx = AlgoContext(mpi, fh, plan, view, data, config, nsub=algo.nsub)
    # Planning phase: exchange view metadata (cost model; the plan itself
    # is precomputed deterministically, as every rank would compute the
    # same partitioning from the gathered metadata).
    if exchange_metadata:
        yield from mpi.allgather(None, nbytes=view.num_extents * config.meta_bytes_per_extent)
    yield from engine.setup(ctx)
    t0 = mpi.now
    algo_span = ctx.recorder.begin(
        t0, algorithm, "algo", rank=mpi.rank, shuffle=shuffle,
        cycles=plan.num_cycles,
    )
    yield from algo.run(ctx, engine)
    if writing:
        yield from ctx.staging_flush()
        if ctx.carry is not None:
            yield from ctx.carry.scrub()
    ctx.stats.add_time("total", mpi.now - t0)
    yield from mpi.barrier()
    ctx.recorder.end(algo_span, mpi.now)
    ctx.stats.add_time("total_with_barrier", mpi.now - t0)
    return ctx.stats


@dataclass
class CollectiveWriteResult:
    """Outcome of one simulated collective write, or read (``shuffle``
    then names the scatter primitive; write-only fields keep defaults)."""

    algorithm: str
    shuffle: str
    nprocs: int
    num_aggregators: int
    num_cycles: int
    cycle_bytes: int
    total_bytes: int
    #: End-to-end simulated wall time of the collective write, seconds.
    elapsed: float
    #: Effective bandwidth (total bytes / elapsed), bytes/s, under the
    #: run's direction; the other one stays 0.
    write_bandwidth: float = 0.0
    read_bandwidth: float = 0.0
    per_rank_stats: list = field(default_factory=list)
    verified: bool | None = None
    #: SHA-256 of the actual file bytes read back from the simulated PFS
    #: (set by verification runs; None when ``verify`` was off).
    file_sha256: str | None = None
    #: The counters the library counted during the run (``fault.*``
    #: injections, ``retry.*`` recoveries, protocol events, the tuner's
    #: ``tune.auto_*``): ``metrics["counters"]`` without the statistics
    #: the pipeline folded in.
    trace_counters: dict = field(default_factory=dict)
    #: Closed spans recorded during the run (``RunSpec(trace=True)`` only).
    spans: list = field(default_factory=list, repr=False)
    #: :meth:`Recorder.snapshot` of the run's recorder (counters with
    #: engine/storage/staging statistics, gauges, span-duration histograms).
    metrics: dict = field(default_factory=dict, repr=False)
    #: :class:`~repro.recovery.report.RecoveryReport` when the run went
    #: through the crash-recovery manager; None for plain runs.
    recovery: Any = None
    #: :meth:`repro.integrity.layer.IntegrityLayer.snapshot` when the run
    #: checksummed its datapath (mode, detection/repair counts, scrub
    #: reports); None when integrity was off.
    integrity: Any = None

    def aggregate_counter(self, counter: str) -> int:
        return sum(s.counters.get(counter, 0) for s in self.per_rank_stats)

    def overlap_report(self):
        """Overlap analysis of the recorded spans (needs ``trace=True``)."""
        from repro.obs.overlap import overlap_report

        return overlap_report(self.spans)

    def overlap_efficiency(self) -> float:
        """Fraction of write time hidden under in-flight shuffles."""
        return self.overlap_report().efficiency


def run_collective_write(spec: RunSpec) -> CollectiveWriteResult:
    """Build a world, run one collective write, return timing (and verify).

    ``spec.views`` maps every rank to its :class:`FileView`;
    ``spec.data_factory(rank, nbytes)`` produces each rank's payload.
    Use :meth:`RunSpec.replace` to vary a spec.

    ``carry_data=False`` runs in size-only mode: every transfer and write
    carries only its byte count, producing *identical simulated timing*
    (all time costs derive from the plan's sizes and piece counts) without
    touching the host's memory bus — the mode the large benchmark sweeps
    use.  Verification requires real payloads, so it is incompatible with
    ``verify=True``.

    ``faults`` injects deterministic failures (see
    :class:`~repro.faults.spec.FaultSpec`); ``retry`` wraps the
    file-access phase in a :class:`~repro.faults.retry.RetryPolicy`
    (shorthand for ``config.with_(retry=...)``).  Injection decisions
    draw from seeded streams, so a faulty run is reproducible from
    ``(faults, seed)`` alone.

    ``algorithm="auto"`` asks the tuner to pick: the candidate overlap
    algorithms are raced once each on these exact views (size-only
    simulations sharing this call's seed) and the winner runs the real
    write.  The returned result reports the *chosen* algorithm, and its
    ``trace_counters`` gain ``tune.auto_select`` / ``tune.auto_trials``
    (or ``tune.auto_cache_hit`` when ``auto_cache_dir`` holds a
    previously cached decision for this workload shape).

    ``trace=True`` records span timelines: the result's ``spans`` feed
    :func:`repro.obs.export.chrome_trace` and
    :meth:`CollectiveWriteResult.overlap_report`.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"run_collective_write() takes a RunSpec, got {type(spec).__name__}; "
            "call run_collective_write(RunSpec(...))"
        )
    spec.validate()
    config = spec.resolved_config()
    algorithm = spec.algorithm
    auto_counters: dict | None = None
    if algorithm == "auto":
        # Imported here: repro.tune is a layer *above* collio.
        from repro.tune.api import select_algorithm

        algorithm, auto_counters = select_algorithm(
            spec.cluster, spec.fs, spec.nprocs, spec.views, config=config,
            shuffle=spec.shuffle, seed=spec.seed, cache_dir=spec.auto_cache_dir,
        )
    if spec.faults is not None and spec.faults.has_permanent:
        # Crash-class faults need the restart-from-journal loop, which
        # lives a layer above collio — hence the local import.
        from repro.recovery.manager import run_with_recovery

        return run_with_recovery(spec, algorithm, config, auto_counters)
    # A plain run is the one-attempt case of that loop.
    return RunPipeline(spec, algorithm, config, auto_counters).run()


class RunPipeline:
    """One collective write from spec to result: attempt(s), then build.

    The run owns one :class:`~repro.sim.trace.Recorder`, shared by every
    attempt.  :meth:`attempt` runs the write in a fresh world that counts
    and records into it, with the attempt's start as the clock origin,
    then folds in the statistics the finished world keeps itself (engine,
    storage targets, delivery arenas, staging tier), so a run of several
    attempts reports the same metrics as a run of one;
    :meth:`build_result` turns that into the
    :class:`CollectiveWriteResult`.  A caller that owns further statistics
    (the recovery loop's ``recovery.*``) adds them with :meth:`fold` first.
    :meth:`run` wraps both and releases, on every way out, what the run
    held: host memory is the payloads, one file store sized once, the
    cycle buffers and one verification window — and nothing afterwards.

    In the read ``direction`` an attempt first lays the payloads out in
    the file (out of band) and drops them, the ranks fill fresh buffers,
    and verification compares those with the payloads, regenerated one
    rank at a time: a read holds the store and the read buffers, never
    a payload dict.
    """

    def __init__(self, spec: RunSpec, algorithm: str, config: CollectiveConfig,
                 auto_counters: dict | None = None, direction: Direction = WRITE) -> None:
        self.spec, self.algorithm, self.config = spec, algorithm, config
        self.direction = direction
        self.recorder = Recorder(active=spec.trace, max_records=spec.max_trace_records)
        self.recorder.counters.update(auto_counters or {})
        #: Counters folded in by :meth:`fold`: not ``trace_counters``.
        self._folded: set[str] = set()
        #: Global clock at the end of the last attempt.
        self.elapsed = 0.0
        self.bytes_written = 0
        self.integrity = None  # last attempt's layer snapshot
        self.payloads: dict | None = None  # a write's rank payloads, built once
        self.buffers: dict | None = None  # what the ranks were handed
        self.plan: TwoPhasePlan | None = None  # the intended (first) plan
        self.world: World | None = None  # last attempt's world
        self.stats: list | None = None  # last attempt's PhaseStats

    def run(self, drive: Callable[["RunPipeline"], Any] | None = None) -> CollectiveWriteResult:
        """Attempt(s), then the result, then :meth:`close` — also when
        either raises.

        ``drive(self)`` makes the attempts and returns what becomes the
        result's ``recovery`` (the crash-recovery loop); the default is the
        plain run: one attempt, re-raising whatever aborted it.
        """
        try:
            recovery = drive(self) if drive is not None else self._one_attempt()
            return self.build_result(recovery)
        finally:
            self.close()

    def _one_attempt(self) -> None:
        failure = self.attempt()
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Release the last world (file store included) and the payloads.

        Explicit, because a finished world and a raised exception's
        frames are reference cycles: left to the collector, a process
        running many collectives allocates each beside the last.
        """
        if self.world is not None:
            self.world.close()
        self.payloads = self.buffers = None

    def attempt(
        self,
        base: float = 0.0,
        *,
        views: dict[int, FileView] | None = None,
        journal: Any = None,
        crashed: frozenset[int] = frozenset(),
        down: frozenset[int] = frozenset(),
        files: dict | None = None,
        number: int = 0,
    ) -> BaseException | None:
        """Run the write in a fresh world starting at global time ``base``.

        The defaults are a whole fault-free run.  The recovery loop passes
        the durable state of earlier attempts: the cycle ``journal``, the
        ``crashed`` ranks (barred from aggregator duty), the ``down``
        targets, the adopted ``files`` and the replay ``views``; ``number``
        > 0 wraps the run in a ``recovery`` span.  Returns the library
        error that aborted the run, or None if it completed.
        """
        spec, config = self.spec, self.config
        reading = self.direction is not WRITE
        if self.world is not None:
            # Superseded; its file store lives on in this attempt's world.
            self.world.close(keep_files=True)
        recorder = self.recorder
        recorder.start_attempt(base)
        world = self.world = World(
            spec.cluster, spec.nprocs, fs_spec=spec.fs, seed=spec.seed,
            faults=spec.faults, recorder=recorder, journal=journal,
            crashed_ranks=crashed, down_targets=down,
        )
        if files is not None:
            world.pfs.adopt_files(files)
        if spec.carry_data:
            # The fallocate a real stack would issue: one store of the
            # final size instead of doubling towards it.
            world.pfs.open(spec.path).reserve(_file_extent(spec.views))
        cycle_bytes = self.direction.algorithm(self.algorithm).cycle_bytes(
            config.cb_buffer_size
        )
        if views is None and spec.plan is not None:
            views, plan = spec.views, spec.plan
            if plan.cycle_bytes != cycle_bytes:
                raise ConfigurationError(
                    f"supplied plan has cycle_bytes={plan.cycle_bytes}, but algorithm "
                    f"{self.algorithm!r} needs {cycle_bytes}"
                )
        else:
            views = spec.views if views is None else views
            plan = build_plan(
                world.cluster, spec.nprocs, views, config, cycle_bytes,
                stripe_size=spec.fs.stripe_size, exclude_ranks=crashed,
                # Reads have no gather stage: always a single-layer plan.
                two_layer=False if reading else None,
            )
        if self.plan is None:
            self.plan = plan
            if not reading:
                make = spec.data_factory if spec.carry_data else (lambda _rank, n: Sized(n))
                self.payloads = {
                    r: make(r, spec.views[r].total_bytes) for r in range(spec.nprocs)
                }
        self.buffers = self._prefill() if reading else self.payloads
        span = None
        if number:
            span = recorder.begin(
                0.0, f"attempt{number}", "recovery", flow="async",
                attempt=number, remaining_bytes=plan.total_bytes,
                aggregators=list(plan.aggregators),
            )

        def program(mpi):
            fh = yield from mpi.file_open(spec.path)
            stats = yield from collective_write(
                mpi, fh, views[mpi.rank], self.buffers[mpi.rank], plan,
                algorithm=self.algorithm, shuffle=spec.shuffle, config=config,
                direction=self.direction,
            )
            return stats

        failure = self.stats = None
        try:
            self.stats = world.run(program)
        except (ReproError, ValueError) as exc:
            # The traceback keeps its line numbers; the locals of the
            # frames it unwound (a rank's context, payload and cycle
            # buffers, held until the error itself is collected) go now.
            traceback.clear_frames(exc.__traceback__)
            failure = exc
        recorder.end(span, world.now)
        recorder.end_attempt()
        self.elapsed = base + world.now
        self._absorb(failed=failure is not None)
        return failure

    def _prefill(self) -> dict:
        """Lay each rank's payload out in the file and drop it, *then*
        create the ranks' empty buffers (this order keeps the allocator's
        high-water mark at one payload beside the store)."""
        spec = self.spec
        if not spec.carry_data:
            # Size-only: no bytes to lay out or fill.
            return {r: Sized(spec.views[r].total_bytes) for r in range(spec.nprocs)}
        simfile = self.world.pfs.open(spec.path)
        for rank, view in spec.views.items():
            data = spec.data_factory(rank, view.total_bytes)
            for off, ln, loc in zip(
                view.offsets.tolist(), view.lengths.tolist(), view.local_offsets.tolist()
            ):
                simfile.write(off, data[loc : loc + ln])
        return {
            r: np.zeros(spec.views[r].total_bytes, dtype=np.uint8)
            for r in range(spec.nprocs)
        }

    def fold(self, counts: Mapping[str, int]) -> None:
        """Add statistics to the run's counters (``metrics`` only: they
        stay out of ``trace_counters``)."""
        self.recorder.counters.update(counts)
        self._folded.update(counts)

    def _absorb(self, failed: bool) -> None:
        """Fold in the statistics the finished world keeps itself."""
        world, recorder = self.world, self.recorder
        engine, targets = world.engine, world.pfs.targets
        self.bytes_written += world.pfs.bytes_written
        self.fold({
            "sim.events_processed": engine.events_processed,
            "sim.timeouts_coalesced": engine.timeouts_coalesced,
            "fs.writes_failed": sum(t.writes_failed for t in targets),
            "fs.writes_rejected": sum(t.writes_rejected for t in targets),
            **world.buffer_pool_counters(),
        })
        recorder.max_gauge("sim.max_heap_len", engine.max_heap_len)
        # Down targets stay down in every later world: the last count is
        # the cumulative one.
        recorder.set_gauge("fs.targets_down", sum(1 for t in targets if t.down))
        tier = world.staging
        if tier is not None:
            # The tier is per-attempt and volatile: what a *failed* attempt
            # had not drained is data the crash destroyed (the journal
            # never committed it, so replay re-drives those cycles).
            undrained = tier.undrained_bytes()
            self.fold({**tier.counter_totals(), "staging.lost_bytes": undrained if failed else 0})
            recorder.max_gauge("staging.occupancy_peak", tier.occupancy_peak())
            recorder.set_gauge("staging.capacity", tier.spec.capacity)
            recorder.set_gauge("staging.undrained_bytes", undrained)
        if world.integrity is not None:
            self.integrity = world.integrity.snapshot()

    def build_result(self, recovery: Any = None) -> CollectiveWriteResult:
        """The result of a run whose last attempt completed.

        Reports the first attempt's plan (the intended one); ``recovery``
        is the loop's :class:`~repro.recovery.report.RecoveryReport`.
        """
        spec, plan, elapsed, recorder = self.spec, self.plan, self.elapsed, self.recorder
        bandwidth = plan.total_bytes / elapsed if elapsed > 0 else 0.0
        result = CollectiveWriteResult(
            algorithm=self.algorithm,
            shuffle=spec.shuffle,
            nprocs=spec.nprocs,
            num_aggregators=len(plan.aggregators),
            num_cycles=plan.num_cycles,
            cycle_bytes=plan.cycle_bytes,
            total_bytes=plan.total_bytes,
            elapsed=elapsed,
            **{f"{self.direction.name}_bandwidth": bandwidth},
            per_rank_stats=self.stats,
            spans=list(recorder.spans),
            recovery=recovery,
            integrity=self.integrity,
        )
        result.trace_counters = {
            k: v for k, v in recorder.counters.items() if k not in self._folded
        }
        recorder.set_gauge("run.elapsed", elapsed)
        recorder.set_gauge(f"run.{self.direction.name}_bandwidth", bandwidth)
        recorder.set_gauge("fs.bytes_written", self.bytes_written)
        if "staging.capacity" in recorder.gauges:  # some attempt staged
            self.fold({"staging.stalls": recorder.count("staging.stall")})
        # Message counts live in the ranks' PhaseStats, which only the
        # completed attempt returns.
        total = result.aggregate_counter
        self.fold({
            "comm.messages_inter_node": total("messages_inter_node"),
            "comm.messages_intra_node": total("messages_intra_node"),
        })
        if total("gather_messages"):
            self.fold({
                "intranode.gather_messages": total("gather_messages"),
                "intranode.gather_bytes": total("gather_bytes"),
                "intranode.leader_local_copies": total("gather_local_copies"),
            })
        for span in result.spans:
            recorder.observe(f"span.{span.category}.dur", span.dur)
        result.metrics = recorder.snapshot()
        if spec.verify or self.config.verify:
            if self.direction is WRITE:
                result.file_sha256 = self._verify_file()
            else:
                self._verify_buffers()
            result.verified = True
        return result

    def _verify_buffers(self) -> None:
        """Byte-exact check of what every rank read against its payload,
        regenerated one rank at a time (``data_factory`` is pure)."""
        spec = self.spec
        for rank, actual in self.buffers.items():
            expected = spec.data_factory(rank, spec.views[rank].total_bytes)
            if not np.array_equal(actual, expected):
                bad = np.flatnonzero(actual != expected)
                raise VerificationError(
                    f"collective read corrupted rank {rank}'s data: "
                    f"{bad.size} wrong bytes, first at local offset {bad[0]}"
                )

    def _verify_file(self) -> str:
        """Byte-exact check of the written file against the views' expectation.

        Returns the sha256 of the *actual* file bytes read back from the
        simulated PFS — the identity witness the staging acceptance check
        compares across staging-on/off runs.

        The file is walked in windows of ``VERIFY_WINDOW`` bytes: only one
        window of expectation exists at a time (holes zero, overlapping
        views resolved last-rank-wins, as one file-sized pass would), and
        the stored bytes are compared and hashed in place.
        """
        views = self.spec.views
        size = _file_extent(views)
        simfile = self.world.pfs.open(self.spec.path)
        digest = hashlib.sha256()
        window = np.empty(min(size, VERIFY_WINDOW), dtype=np.uint8)
        wrong, first = 0, None
        sources = [(view, self.payloads[rank]) for rank, view in views.items()]
        for lo in range(0, size, VERIFY_WINDOW):
            hi = min(lo + VERIFY_WINDOW, size)
            expected = compose(sources, lo, window[: hi - lo])
            actual = simfile.stored(lo, hi - lo)
            if not np.array_equal(actual, expected):
                bad = np.flatnonzero(actual != expected)
                wrong += bad.size
                if first is None:
                    first = lo + int(bad[0])
            digest.update(actual)
        if wrong:
            raise VerificationError(
                f"collective write corrupted the file: {wrong} wrong bytes, "
                f"first at offset {first}"
            )
        return digest.hexdigest()

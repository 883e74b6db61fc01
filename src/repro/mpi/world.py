"""The World: a cluster + file system + ``nprocs`` MPI ranks.

This is the top-level container a simulated MPI program runs in::

    world = World(crill(), nprocs=16, fs_spec=beegfs_crill())

    def program(mpi):
        yield from mpi.barrier()
        return mpi.rank

    results = world.run(program)   # [0, 1, ..., 15]
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.fs.aio import AioEngine
from repro.fs.pfs import ParallelFileSystem
from repro.fs.presets import FsSpec
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.mpi.bufpool import BufferPool
from repro.mpi.collops import CollectiveEngine, CollectiveModel
from repro.mpi.comm import Communicator
from repro.mpi.runtime import RankRuntime
from repro.mpi.window import WindowRegistry
from repro.sim.engine import Engine
from repro.sim.trace import Recorder

__all__ = ["World"]


class World:
    """A complete simulated machine with ``nprocs`` MPI ranks."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        nprocs: int,
        fs_spec: FsSpec | None = None,
        seed: int = DEFAULT_SEED,
        faults: FaultSpec | None = None,
        recorder: Recorder | None = None,
        journal=None,
        crashed_ranks: frozenset[int] = frozenset(),
        down_targets: frozenset[int] = frozenset(),
    ) -> None:
        if nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > cluster_spec.total_cores:
            raise ConfigurationError(
                f"{nprocs} ranks exceed the cluster's {cluster_spec.total_cores} cores"
            )
        self.engine = Engine()
        self.nprocs = nprocs
        self.cluster = Cluster(self.engine, cluster_spec, seed=seed, recorder=recorder)
        #: Shared fault injector, or None for a clean world.  A disabled
        #: FaultSpec (all rates zero) also yields None so the fault-free
        #: code paths stay byte-identical to a run without the subsystem.
        self.faults: FaultInjector | None = (
            FaultInjector(self.cluster.rng, self.cluster.recorder, faults)
            if faults is not None and faults.enabled
            else None
        )
        #: Cycle journal shared by the aggregators' commit protocol, or
        #: None outside recovery runs (see :mod:`repro.recovery.journal`).
        self.journal = journal
        #: The burst-buffer staging tier, attached lazily by the first
        #: collective write whose config enables staging (see
        #: :meth:`repro.staging.tier.StagingTier.ensure`); None otherwise.
        self.staging = None
        #: The end-to-end integrity layer, attached lazily by the first
        #: collective write whose config enables it (see
        #: :meth:`repro.integrity.layer.IntegrityLayer.ensure`); None
        #: otherwise — the delivery/drain/storage verify hooks all check
        #: for None first, keeping clean runs byte-identical.
        self.integrity = None
        #: Ranks that died in *previous* recovery attempts.  They respawn
        #: (participate in this attempt, so their data reaches the file)
        #: but their crash draw is not re-armed — a rank crashes once.
        self.crashed_ranks = frozenset(crashed_ranks)
        #: Targets already known down from previous attempts; their
        #: outage draw is likewise not re-armed.
        self.down_targets = frozenset(down_targets)
        self.pfs = (
            ParallelFileSystem(
                self.engine,
                fs_spec,
                rng=self.cluster.rng,
                injector=self.faults,
                recorder=self.cluster.recorder,
                down_targets=self.down_targets,
            )
            if fs_spec is not None
            else None
        )
        # Permanent-fault schedules: one draw per rank/target, skipping
        # entities whose fault already fired (per-entity streams keep the
        # surviving draws identical across attempts).
        self._crash_times: dict[int, float] = {}
        self._outage_times: dict[int, float] = {}
        if self.faults is not None and faults.has_permanent:
            for r in range(nprocs):
                t = self.faults.rank_crash_time(r)
                if t is not None and r not in self.crashed_ranks:
                    self._crash_times[r] = t
            if self.pfs is not None:
                for target in self.pfs.targets:
                    t = self.faults.ost_outage_time(target.target_id)
                    if t is not None and target.target_id not in self.down_targets:
                        self._outage_times[target.target_id] = t
        self.coll = CollectiveEngine(
            self.engine,
            nprocs,
            CollectiveModel(
                latency=cluster_spec.network_latency,
                bandwidth=cluster_spec.network_bandwidth,
                call_overhead=cluster_spec.mpi_call_overhead,
            ),
        )
        self.window_registry = WindowRegistry(self)
        #: Shared cache of two-phase plans built by MPIFile.write_all /
        #: read_all (first rank to need a plan builds it; peers reuse it).
        self.plan_cache: dict = {}
        self._runtimes = [RankRuntime(self, r) for r in range(nprocs)]
        self._comms = [Communicator(self, r) for r in range(nprocs)]
        self._aio: dict[int, AioEngine] = {}
        #: Per-node receive-copy arenas (see :mod:`repro.mpi.bufpool`),
        #: created lazily by the first borrower on each node.
        self._buffer_pools: dict[int, BufferPool] = {}
        #: The rank processes of the last :meth:`run`, for :meth:`close`.
        self._programs: list = []

    # ------------------------------------------------------------------
    def runtime(self, rank: int) -> RankRuntime:
        return self._runtimes[rank]

    def buffer_pool(self, node: int) -> BufferPool:
        """The node's delivery-side buffer arena (created lazily)."""
        pool = self._buffer_pools.get(node)
        if pool is None:
            pool = BufferPool(node)
            self._buffer_pools[node] = pool
        return pool

    def buffer_pool_counters(self) -> dict[str, int]:
        """Aggregated ``bufpool.*`` counters across all node arenas."""
        totals: dict[str, int] = {}
        for node in sorted(self._buffer_pools):
            for key, value in self._buffer_pools[node].counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def comm(self, rank: int) -> Communicator:
        return self._comms[rank]

    def aio_engine(self, rank: int) -> AioEngine:
        """The per-rank aio context (created lazily; needs a file system)."""
        if self.pfs is None:
            raise ConfigurationError("this world has no file system")
        engine = self._aio.get(rank)
        if engine is None:
            engine = AioEngine(
                self.engine,
                self.pfs,
                client=rank,
                injector=self.faults,
                recorder=self.cluster.recorder,
            )
            self._aio[rank] = engine
        return engine

    # ------------------------------------------------------------------
    def run(self, program: Callable, *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``program(comm, *args, **kwargs)`` on every rank to completion.

        Returns the per-rank return values, ordered by rank.  Propagates
        the first failure (including deadlocks detected by the kernel).
        """
        procs = self._programs = [
            self.engine.process(program(self._comms[r], *args, **kwargs), name=f"rank{r}")
            for r in range(self.nprocs)
        ]
        armed = self._arm_permanent_faults(procs)
        return self.engine.run_until_complete(procs, stop_when_done=armed)

    def _arm_permanent_faults(self, procs) -> bool:
        """Schedule the drawn rank crashes and OST outages; True if any.

        A crash timer interrupts the rank process (see
        :meth:`~repro.mpi.runtime.RankRuntime.deliver_crash`), aborting
        the run; an outage timer takes the target down in place —
        in-flight requests drain, later ones are rejected/remapped.
        Armed timers may outlive the program, so the caller must run the
        engine with ``stop_when_done``.
        """
        for r, t in sorted(self._crash_times.items()):
            fire = self.engine.timeout(t)
            fire.callbacks.append(
                lambda _evt, _r=r: self._runtimes[_r].deliver_crash(
                    procs[_r], self.engine.now
                )
            )
        for tid, t in sorted(self._outage_times.items()):
            fire = self.engine.timeout(t)

            def outage(_evt, _tid=tid):
                self.pfs.targets[_tid].go_down()
                self.cluster.recorder.inc("fault.ost_outage")

            fire.callbacks.append(outage)
        return bool(self._crash_times or self._outage_times)

    @property
    def now(self) -> float:
        return self.engine.now

    def close(self, keep_files: bool = False) -> None:
        """Release every payload-sized block this finished world holds.

        File bytes (unless ``keep_files``: a recovery attempt's store lives
        on in the next world), RMA windows, the delivery arenas, staged
        extents, the integrity layer's buffer references, and what an
        aborted run left mid-cycle: suspended rank programs (payload,
        cycle buffers), pending events and the matching queues (in-flight
        messages).

        A world is one web of reference cycles (ranks, engine, callbacks),
        so without this its memory waits for a generation-2 collection
        while the next run allocates beside it.  Clocks, counters and
        statistics stay readable; simulating on is not possible.
        """
        for proc in self._programs:
            proc.abandon()  # ranks an aborted run left suspended mid-cycle
        self.engine.close()
        for rt in self._runtimes:
            rt.close()
        if self.pfs is not None:
            self.pfs.close(keep_files)
        self.window_registry.close()
        for pool in self._buffer_pools.values():
            pool.close()
        if self.staging is not None:
            self.staging.close()
        if self.integrity is not None:
            self.integrity.close()

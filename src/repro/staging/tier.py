"""The burst-buffer staging tier: per-node buffers + drain scheduling.

Four classes, one per responsibility:

:class:`BurstBuffer`
    One node's staging device: an absorb :class:`~repro.sim.resources.ServerQueue`
    (the NVMe ingest path), a shared drain-link queue (the node's pipe to
    the PFS), occupancy accounting with back-pressure, and counters.

:class:`DrainScheduler`
    One node's drain policy driver.  Absorbs land extents in the buffer;
    the scheduler decides *when* the drain link moves them to the
    :class:`~repro.fs.pfs.ParallelFileSystem` — immediately, on watermark
    crossings, or only at the end-of-job flush.  Drain traffic runs in
    background engine processes, so it overlaps subsequent cycles'
    shuffle and absorb phases exactly like the paper's asynchronous
    writes overlap communication.

:class:`StagingTier`
    The world-level facade: lazily creates one scheduler per node and
    aggregates their counters for the run's recorder.

:class:`StagedSink`
    An aggregator's write sink (:mod:`repro.sink`) when the run stages.

Durability contract: an extent is *absorbed* when the staging device
holds its bytes (the write call returns) and *durable* only when its
drain write completed on the PFS.  The sink's ``on_durable`` (the cycle
journal's commit) rides with the extent and fires there, never at
absorb time, so a crash that loses undrained buffer contents leaves
those cycles uncommitted and the replay re-drives them.

The drain path goes through ``ParallelFileSystem.write``, so striping,
degraded remap and injected faults apply to drains exactly as they do to
foreground writes; transient failures and newly detected outages are
retried up to ``StagingSpec.max_drain_retries`` times per extent, by the
drain's own loop rather than a :class:`~repro.faults.retry.RetryingSink`:
a drain retry charges no client overhead, waits no backoff and counts
``staging.drain_retries``, so the retry layer would move staged clocks.

Scheduling is event-driven: a drain process exists only while there is
work it is allowed to do, and exits otherwise.  (A persistent daemon
blocked on a wake-up event would trip the engine's deadlock detector at
the end of the run.)
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, CorruptDataError, FileSystemError
from repro.integrity.layer import Verdict
from repro.mpi.mpiio import PostedWrite
from repro.payload import as_payload, flip, snapshot
from repro.sim.engine import Engine, Event
from repro.sim.resources import ServerQueue
from repro.sink import WriteSink
from repro.staging.spec import StagingSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.file import SimFile
    from repro.fs.pfs import ParallelFileSystem
    from repro.mpi.world import World

__all__ = ["BurstBuffer", "DrainScheduler", "StagedSink", "StagingTier"]

#: Span-track encoding: staging spans carry ``rank = -(node + 2)`` so the
#: Chrome exporter can place each node's buffer on its own track without
#: colliding with the storage track's ``rank = -1``.
STAGING_RANK_BASE = -2


def staging_rank(node: int) -> int:
    """The pseudo-rank staging spans of ``node`` are recorded under."""
    return STAGING_RANK_BASE - node


class _StagedExtent:
    """One absorbed write waiting (or in flight) on the drain path."""

    __slots__ = (
        "file", "offset", "data", "nbytes", "rank", "cycle", "on_drained", "checksum",
    )

    def __init__(self, file, offset, data, rank, cycle, on_drained, checksum):
        self.file = file
        self.offset = offset
        self.data = data
        self.nbytes = len(data)
        self.rank = rank
        self.cycle = cycle
        self.on_drained = on_drained
        #: Producer-side CRC-32 carried through the staging hop (None when
        #: the world runs without an integrity layer or in size-only mode).
        self.checksum = checksum


class BurstBuffer:
    """One node's staging device: queues, occupancy and counters."""

    def __init__(self, engine: Engine, spec: StagingSpec, node: int) -> None:
        self.engine = engine
        self.spec = spec
        self.node = node
        self.capacity = int(spec.capacity)
        self.absorb_queue = ServerQueue(
            engine, spec.absorb_bandwidth, spec.absorb_latency, name=f"bb{node}.absorb"
        )
        self.drain_link = ServerQueue(
            engine, spec.drain_bandwidth, spec.drain_latency, name=f"bb{node}.drain"
        )
        #: Bytes currently reserved (absorbing + buffered + draining).
        self.occupancy = 0
        self.occupancy_peak = 0
        #: Absorbed extents not yet picked up by the drain process.
        self.pending: deque[_StagedExtent] = deque()
        self.flushing = False
        # Counters (aggregated into ``staging.*`` run metrics; stalls are
        # the recorder's ``staging.stall`` count).
        self.absorbed_bytes = 0
        self.drained_bytes = 0
        self.extents_absorbed = 0
        self.extents_drained = 0
        self.forced_drains = 0
        self.drain_retries = 0
        self._space_waiters: list[Event] = []
        self._flush_waiters: list[Event] = []

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.occupancy

    def reserve(self, nbytes: int) -> None:
        self.occupancy += nbytes
        if self.occupancy > self.occupancy_peak:
            self.occupancy_peak = self.occupancy

    def release(self, nbytes: int) -> None:
        self.occupancy -= nbytes
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            waiter.succeed(None)

    def wait_for_space(self) -> Event:
        waiter = self.engine.event()
        self._space_waiters.append(waiter)
        return waiter


class DrainScheduler:
    """One node's drain-policy driver over its :class:`BurstBuffer`."""

    def __init__(self, tier: "StagingTier", node: int) -> None:
        self.tier = tier
        self.node = node
        self.spec = tier.spec
        self.engine = tier.engine
        self.pfs = tier.pfs
        self.recorder = tier.recorder
        self.buffer = BurstBuffer(tier.engine, tier.spec, node)
        #: True while the policy wants the drain link busy.
        self._active = self.spec.policy == "immediate"
        #: True while a back-pressure stall forces a drain regardless of
        #: policy (cleared once occupancy falls to the low watermark).
        self._forced = False
        #: True while a drain process is running (at most one per node:
        #: the drain link is a single shared pipe).
        self._draining = False

    # ------------------------------------------------------------------
    # Absorb side (called from the aggregators' write path)
    # ------------------------------------------------------------------
    def absorb(
        self,
        file: "SimFile",
        offset: int,
        data,
        rank: int,
        cycle: int = -1,
        on_drained: Callable[[], None] = lambda: None,
        checksum: int | None = None,
    ) -> Event:
        """Stage one write of payload ``data``; returns the absorb-completion event.

        The event succeeds (with the completion time as its value, like a
        PFS write) once the staging device holds the bytes; durability
        comes later, when the drain lands them on the PFS.  ``data`` is
        snapshotted at absorb completion, so callers may reuse their
        buffer as soon as the event fires — the same contract as a
        completed ``aio_write``.  A full buffer stalls the absorb
        (back-pressure) and force-starts a drain.
        """
        data = as_payload(data)
        nbytes = len(data)
        if nbytes > self.buffer.capacity:
            raise ConfigurationError(
                f"staged write of {nbytes} bytes exceeds the node buffer "
                f"capacity of {self.buffer.capacity} bytes"
            )
        done = self.engine.event()
        if nbytes == 0:
            done.succeed(self.engine.now)
            on_drained()
            return done
        ext = _StagedExtent(file, offset, data, rank, cycle, on_drained, checksum)
        self.engine.process(
            self._absorb_driver(ext, done), name=f"bb{self.node}.absorb"
        )
        return done

    def _absorb_driver(self, ext: _StagedExtent, done: Event):
        bb = self.buffer
        stalled = False
        while bb.free_bytes < ext.nbytes:
            if not stalled:
                stalled = True
                self.recorder.inc("staging.stall")
            self._force_drain()
            yield bb.wait_for_space()
        bb.reserve(ext.nbytes)
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "absorb", "staging", rank=staging_rank(self.node),
                cycle=ext.cycle, flow="async", bytes=ext.nbytes, src_rank=ext.rank,
            )
        yield bb.absorb_queue.submit(ext.nbytes)
        self.recorder.end(span, self.engine.now)
        # The device holds the bytes now; snapshot them so the caller may
        # reuse its buffer (the PFS samples at drain completion).
        ext.data = snapshot(ext.data)
        bb.absorbed_bytes += ext.nbytes
        bb.extents_absorbed += 1
        bb.pending.append(ext)
        done.succeed(self.engine.now)
        if self.spec.policy == "watermark" and (
            bb.occupancy >= self.spec.high_watermark * bb.capacity
        ):
            self._active = True
        if self._should_drain():
            self._ensure_drain_process()

    # ------------------------------------------------------------------
    # Drain side
    # ------------------------------------------------------------------
    def _should_drain(self) -> bool:
        return bool(self.buffer.pending) and (
            self._active or self._forced or self.buffer.flushing
        )

    def _force_drain(self) -> None:
        if not (self._active or self._forced or self.buffer.flushing):
            self.buffer.forced_drains += 1
        self._forced = True
        self._ensure_drain_process()

    def _ensure_drain_process(self) -> None:
        if self._draining or not self._should_drain():
            return
        self._draining = True
        self.engine.process(self._drain_driver(), name=f"bb{self.node}.drain")

    def _drain_driver(self):
        bb = self.buffer
        try:
            while self._should_drain():
                ext = bb.pending.popleft()
                yield from self._verify_staged(ext)
                span = None
                if self.recorder.active:
                    span = self.recorder.begin(
                        self.engine.now, "drain", "staging",
                        rank=staging_rank(self.node), cycle=ext.cycle, flow="async",
                        bytes=ext.nbytes, src_rank=ext.rank,
                    )
                yield bb.drain_link.submit(ext.nbytes)
                yield from self._write_durable(ext)
                self.recorder.end(span, self.engine.now)
                bb.drained_bytes += ext.nbytes
                bb.extents_drained += 1
                ext.on_drained()
                bb.release(ext.nbytes)
                if bb.occupancy <= self.spec.low_watermark * bb.capacity:
                    self._forced = False
                    if self.spec.policy == "watermark" and not bb.flushing:
                        self._active = False
        finally:
            self._draining = False
        self._maybe_finish_flush()

    def _verify_staged(self, ext: _StagedExtent):
        """At-rest bitrot draw + verify-on-drain for one picked-up extent.

        Bitrot is modelled as striking between absorb and drain, so the
        draw (and flip — the absorb snapshot is private, safe to mutate)
        happens at drain pickup.  With an integrity layer and a carried
        checksum, the drain verifies before shipping; in repair mode a
        mismatch re-fetches the pristine bytes from the producing ranks'
        buffers and re-ingests them through the absorb queue (paying the
        ingest time again), with a fresh bitrot draw per attempt.
        """
        world = self.tier.world
        injector = world.faults
        integrity = world.integrity

        def bitrot() -> None:
            if injector is not None:
                pos = injector.staging_corruption(self.node, ext.nbytes)
                if pos is not None:
                    flip(ext.data, pos)

        bitrot()
        if integrity is None or ext.checksum is None:
            return
        attempt = 0
        while True:
            clean = integrity.checksum(ext.data[: ext.nbytes]) == ext.checksum
            # Composed only for a mismatch: a clean pickup costs no copy.
            source = None if clean else integrity.repair_source(
                ext.file.path, ext.offset, ext.nbytes
            )
            verdict = integrity.verdict(
                clean, attempt, "refetch", can_redo=source is not None
            )
            if verdict is Verdict.OK:
                return
            if verdict is Verdict.FAIL:
                raise CorruptDataError(
                    f"staged extent at offset {ext.offset} ({ext.nbytes} bytes) "
                    f"on node {self.node} failed checksum verification"
                )
            ext.data = source  # composed afresh: already a private copy
            yield self.buffer.absorb_queue.submit(ext.nbytes)
            attempt += 1
            bitrot()

    def _write_durable(self, ext: _StagedExtent):
        """One extent's PFS write, retrying transient faults and outages."""
        attempts = 0
        while True:
            done = self.pfs.write(ext.file, ext.offset, ext.data, checksum=ext.checksum)
            try:
                yield done
                return
            except CorruptDataError:
                # Not a transient fault: the read-back verify exhausted its
                # attempts (or detect mode flagged the stored bytes).
                # Rewriting the same corrupt state would loop forever.
                raise
            except FileSystemError:
                attempts += 1
                self.buffer.drain_retries += 1
                if attempts > self.spec.max_drain_retries:
                    raise

    # ------------------------------------------------------------------
    # Flush (end of the collective: make everything staged durable)
    # ------------------------------------------------------------------
    def flush(self) -> Event:
        """Drain everything absorbed so far; event fires when durable.

        Every policy flushes at the end of the collective — for
        ``end_of_job`` this is where the whole drain happens, serialized
        after the last cycle; for the asynchronous policies it is just
        the tail that was still in flight.
        """
        bb = self.buffer
        bb.flushing = True
        done = self.engine.event()
        if bb.occupancy == 0 and not bb.pending:
            done.succeed(self.engine.now)
            return done
        bb._flush_waiters.append(done)
        self._ensure_drain_process()
        return done

    def _maybe_finish_flush(self) -> None:
        bb = self.buffer
        if bb.flushing and bb.occupancy == 0 and not bb.pending:
            waiters, bb._flush_waiters = bb._flush_waiters, []
            for waiter in waiters:
                waiter.succeed(self.engine.now)


class StagingTier:
    """World-level staging facade: one :class:`DrainScheduler` per node."""

    def __init__(self, world: "World", spec: StagingSpec) -> None:
        if world.pfs is None:
            raise ConfigurationError("a staging tier needs a file system to drain to")
        self.world = world
        self.spec = spec
        self.engine = world.engine
        self.pfs: "ParallelFileSystem" = world.pfs
        self.recorder = world.cluster.recorder
        self._nodes: dict[int, DrainScheduler] = {}

    @classmethod
    def ensure(cls, world: "World", spec: StagingSpec) -> "StagingTier":
        """Get-or-create the world's tier (idempotent per world).

        Mirrors the ``world.journal`` attach pattern: the first rank's
        collective-write call creates the tier, peers reuse it.  Two
        different specs on one world is a configuration bug.
        """
        tier = world.staging
        if tier is not None:
            if tier.spec != spec:
                raise ConfigurationError(
                    "this world already has a staging tier with a different spec"
                )
            return tier
        tier = cls(world, spec)
        world.staging = tier
        return tier

    def node(self, node_id: int) -> DrainScheduler:
        scheduler = self._nodes.get(node_id)
        if scheduler is None:
            scheduler = DrainScheduler(self, node_id)
            self._nodes[node_id] = scheduler
        return scheduler

    def scheduler_for_rank(self, rank: int) -> DrainScheduler:
        return self.node(self.world.cluster.node_of_rank(rank))

    def close(self) -> None:
        """Release the staged snapshots (the world is finished; what was
        not drained by now is lost with it).  Counters stay readable."""
        for scheduler in self._nodes.values():
            scheduler.buffer.pending.clear()

    # -- accounting ----------------------------------------------------
    def buffers(self) -> list[BurstBuffer]:
        return [self._nodes[n].buffer for n in sorted(self._nodes)]

    def counter_totals(self) -> dict[str, int]:
        """Aggregated ``staging.*`` counters across all node buffers."""
        totals = {
            "staging.absorbed_bytes": 0,
            "staging.drained_bytes": 0,
            "staging.extents_absorbed": 0,
            "staging.extents_drained": 0,
            "staging.forced_drains": 0,
            "staging.drain_retries": 0,
        }
        for bb in self.buffers():
            totals["staging.absorbed_bytes"] += bb.absorbed_bytes
            totals["staging.drained_bytes"] += bb.drained_bytes
            totals["staging.extents_absorbed"] += bb.extents_absorbed
            totals["staging.extents_drained"] += bb.extents_drained
            totals["staging.forced_drains"] += bb.forced_drains
            totals["staging.drain_retries"] += bb.drain_retries
        return totals

    def occupancy_peak(self) -> int:
        """Highest per-node occupancy seen anywhere in the tier, bytes."""
        return max((bb.occupancy_peak for bb in self.buffers()), default=0)

    def undrained_bytes(self) -> int:
        """Bytes absorbed but not yet durable (0 after a completed flush)."""
        return sum(bb.occupancy for bb in self.buffers())


class StagedSink(WriteSink):
    """A write sink that absorbs into the node's burst buffer.

    Both verbs cost what the direct ones do, but completion means the
    device holds the bytes; ``on_durable`` fires when the drain lands
    them, so a posted handle carries no commit of its own.
    """

    def __init__(self, fh, scheduler: DrainScheduler, on_durable=None) -> None:
        super().__init__(fh, on_durable)
        self.scheduler = scheduler

    def _absorb(self, offset: int, data, cycle: int, checksum, token) -> Event:
        return self.scheduler.absorb(
            self.fh.file, offset, data, rank=self.fh.comm.rank, cycle=cycle,
            on_drained=partial(self.on_durable, token), checksum=checksum,
        )

    def write(self, offset: int, data, cycle: int = -1, checksum=None, token=None):
        done = self._absorb(offset, data, cycle, checksum, token)
        yield from self.fh.comm.io_wait(done, setup_cost=self.fh.pfs.spec.client_overhead)

    def post(self, offset: int, data, cycle: int = -1, checksum=None, token=None):
        done = yield from self.fh.posting(
            lambda: self._absorb(offset, data, cycle, checksum, token)
        )
        return PostedWrite(done)

    def flush(self) -> Event:
        return self.scheduler.flush()

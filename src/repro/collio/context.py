"""Per-rank execution context shared by all overlap algorithms.

An :class:`AlgoContext` packages what one rank needs while executing a
collective write or read: its communicator and file handle, the global
plan, its role (aggregator or not), the collective sub-buffers (plain
arrays for two-sided transfers, RMA windows for one-sided ones) and
phase timing.  The file-access steps come in both directions
(``write_*`` / ``read_*``) over the same buffers and plan slices.

Sub-buffer discipline: cycle ``c`` always uses sub-buffer ``c % nsub``
(equivalent to the paper's pointer swapping, but index-based so every rank
agrees without communication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.collio.config import CollectiveConfig
from repro.collio.plan import TwoPhasePlan
from repro.collio.view import FileView
from repro.errors import ConfigurationError
from repro.faults.retry import RetryingSink
from repro.integrity.carry import ChecksumCarry
from repro.mpi.request import Request
from repro.payload import crc, empty, zeros
from repro.sink import WriteSink
from repro.staging.tier import StagedSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.mpi.mpiio import MPIFile
    from repro.mpi.window import WindowHandle

__all__ = ["AlgoContext", "PhaseStats"]


class _NullIteration:
    """Shared no-op context for cycle iterations when spans are off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_ITERATION = _NullIteration()


def _journal_commit(journal, recorder, agg_rank, agg_index, entry) -> None:
    """The sink's ``on_durable`` under a recovery journal, bound with
    ``partial`` so the sink holds no reference back to the context."""
    cycle, offset, nbytes, checksum = entry
    journal.commit(
        agg_rank=agg_rank, agg_index=agg_index, cycle=cycle,
        offset=offset, nbytes=nbytes, checksum=checksum,
    )
    recorder.inc("recovery.journal_commit")


class _IterationSpan:
    """Closes a cycle's ``algo.cycle`` span at exit time."""

    __slots__ = ("_ctx", "_span")

    def __init__(self, ctx: "AlgoContext", span) -> None:
        self._ctx = ctx
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *exc) -> bool:
        ctx = self._ctx
        ctx.recorder.end(self._span, ctx.mpi.now)
        return False


@dataclass
class PhaseStats:
    """Accumulated per-phase wall time and counters for one rank."""

    times: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def add_time(self, phase: str, seconds: float) -> None:
        self.times[phase] = self.times.get(phase, 0.0) + seconds

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def time_in(self, phase: str) -> float:
        return self.times.get(phase, 0.0)


class AlgoContext:
    """One rank's working state during a collective write or read.

    ``data`` is the rank's own buffer under its view: the source of a
    write, the destination of a read (a :class:`~repro.payload.Sized`
    descriptor in size-only mode, which every buffer here then follows).
    """

    def __init__(
        self,
        mpi: "Communicator",
        fh: "MPIFile",
        plan: TwoPhasePlan,
        view: FileView,
        data,
        config: CollectiveConfig,
        nsub: int,
    ) -> None:
        if nsub not in (1, 2):
            raise ConfigurationError(f"nsub must be 1 or 2, got {nsub}")
        if data.dtype != np.uint8:
            raise ConfigurationError("local data must be uint8")
        # Replay views (recovery) keep original local offsets into the
        # full rank buffer, so require coverage rather than equality.
        if data.size < view.required_buffer_bytes:
            raise ConfigurationError(
                f"local data has {data.size} bytes but the view needs "
                f"{view.required_buffer_bytes}"
            )
        self.mpi = mpi
        self.fh = fh
        self.plan = plan
        self.view = view
        self.data = data
        self.config = config
        self.nsub = nsub
        self.rank = mpi.rank
        self.agg_index = plan.agg_index_of_rank.get(mpi.rank)
        self.stats = PhaseStats()
        #: The world's shared recorder; when ``active`` every
        #: write/shuffle step becomes a span (otherwise free no-ops).
        self.recorder = mpi.world.cluster.recorder
        #: The recovery cycle journal, or None outside recovery runs.
        #: When set, aggregators record every cycle's extent + checksum
        #: once it is durable (the commit protocol); a successor tells
        #: committed cycles from torn ones by re-verifying.
        self.journal = mpi.world.journal
        #: Checksum carrying when the world runs an integrity layer (see
        #: repro.integrity.carry), or None: aggregators then record every
        #: cycle extent's CRC-32 before posting its write and carry it
        #: through staging and storage.
        integrity = mpi.world.integrity
        self.carry = None if integrity is None else ChecksumCarry(self, integrity)
        #: The rank's one write path (see repro.sink), chosen once; its
        #: durability callback is the journal commit.
        commit = None if self.journal is None else partial(
            _journal_commit, self.journal, self.recorder, self.rank, self.agg_index
        )
        tier = mpi.world.staging
        if tier is not None and self.is_aggregator:
            self.sink = StagedSink(fh, tier.scheduler_for_rank(self.rank), commit)
        elif config.retry is not None:
            self.sink = RetryingSink(fh, config.retry, commit)
        else:
            self.sink = WriteSink(fh, commit)
        # Plain-array sub-buffers (two-sided shuffle); RMA windows replace
        # them for one-sided shuffles.
        self._buffers: list | None = None
        self._windows: list["WindowHandle"] | None = None
        # Two-layer staging: a leader's per-sub-buffer assembly area for
        # its node's coalesced cycle data (see repro.collio.intranode).
        self._staging: list | None = None

    # ------------------------------------------------------------------
    @property
    def is_aggregator(self) -> bool:
        return self.agg_index is not None

    @property
    def memory_bandwidth(self) -> float:
        return self.mpi.world.cluster.spec.memory_bandwidth

    def sub_of_cycle(self, cycle: int) -> int:
        return cycle % self.nsub

    # ------------------------------------------------------------------
    # Buffer / window setup
    # ------------------------------------------------------------------
    def allocate_buffers(self) -> None:
        """Plain collective sub-buffers (aggregators only hold real memory)."""
        size = self.plan.cycle_bytes
        if self.is_aggregator:
            self._buffers = [zeros(size, like=self.data) for _ in range(self.nsub)]
        else:
            self._buffers = []

    def allocate_windows(self):
        """Collectively create one RMA window per sub-buffer (paper III-B2).

        Window size is the sub-buffer size on aggregators and zero on
        non-aggregators, matching the paper's ``MPI_Win_allocate`` use.
        """
        size = self.plan.cycle_bytes if self.is_aggregator else 0
        windows = []
        for _ in range(self.nsub):
            win = yield from self.mpi.win_allocate(size, like=self.data)
            windows.append(win)
        self._windows = windows

    def allocate_staging(self) -> None:
        """Leader staging buffers for two-layer gather (no-op otherwise).

        One slot per sub-buffer: slot ``c % nsub`` is reused once cycle
        ``c``'s forward shuffle has been waited, the same reuse
        discipline the collective sub-buffers follow.
        """
        from repro.collio.plan import TwoLayerPlan  # local: avoids a cycle at import

        plan = self.plan
        if not isinstance(plan, TwoLayerPlan) or not plan.uses_staging(self.rank):
            return
        size = plan.staging_bytes(self.rank)
        self._staging = [zeros(size, like=self.data) for _ in range(self.nsub)]

    def staging(self, sub: int):
        if self._staging is None:
            raise ConfigurationError("staging not allocated on this rank")
        return self._staging[sub]

    def send_source(self, cycle: int):
        """The payload backing this rank's sends in ``cycle``.

        The user buffer normally; a leader's staging slot when the plan
        coalesces node-local data (its send assignments' local offsets
        then index staging).
        """
        if self._staging is not None:
            return self._staging[self.sub_of_cycle(cycle)]
        return self.data

    def note_message(self, dest_rank: int, nbytes: int, stage: str = "shuffle") -> None:
        """Count one message by locality (inter- vs intra-node).

        ``stage`` is ``"shuffle"`` for the (leader-to-)aggregator
        transfer and ``"gather"`` for the intra-node pre-aggregation
        hop; the bench's message-count columns read these counters.
        """
        cluster = self.mpi.world.cluster
        local = cluster.node_of_rank(dest_rank) == cluster.node_of_rank(self.rank)
        self.stats.bump("messages_intra_node" if local else "messages_inter_node")
        if stage == "gather":
            self.stats.bump("gather_messages")
            self.stats.bump("gather_bytes", nbytes)

    def buffer(self, sub: int):
        """The sub-buffer an aggregator assembles cycle data in."""
        if self._windows is not None:
            return self._windows[sub].local_buffer
        if self._buffers is None:
            raise ConfigurationError("buffers not allocated")
        if not self.is_aggregator:
            raise ConfigurationError("non-aggregators have no collective buffer")
        return self._buffers[sub]

    def window(self, sub: int) -> "WindowHandle":
        if self._windows is None:
            raise ConfigurationError("windows not allocated")
        return self._windows[sub]

    @property
    def uses_windows(self) -> bool:
        return self._windows is not None

    # ------------------------------------------------------------------
    # Pooled receive buffers (see repro.mpi.bufpool)
    # ------------------------------------------------------------------
    def take_buffer(self, nbytes: int):
        """Borrow a pooled scratch buffer shaped like the rank's data."""
        return empty(nbytes, like=self.data, alloc=self.mpi.world.buffer_pool(self.mpi.node).take)

    def release_buffer(self, buf) -> None:
        self.mpi.world.buffer_pool(self.mpi.node).release(buf)

    # ------------------------------------------------------------------
    # File access helpers (the algorithms' ``write`` / ``write_init`` /
    # ``write_wait`` steps)
    # ------------------------------------------------------------------
    def _write_slice(self, cycle: int):
        """``(file_offset, sub-buffer slice)`` of this aggregator's cycle
        extent, or None when it has nothing to write (or read)."""
        if not self.is_aggregator:
            return None
        rng = self.plan.write_range(self.agg_index, cycle)
        if rng is None:
            return None
        base = self.plan.cycle_base(self.agg_index, cycle)
        lo, hi = rng
        return lo, self.buffer(self.sub_of_cycle(cycle))[lo - base : hi - base]

    def _journal_entry(self, cycle: int, offset: int, payload, checksum: int | None):
        """Checksum a cycle's bytes *at posting time* (buffer still stable).

        The sub-buffer is reused ``nsub`` cycles later, but the PFS
        samples the bytes at write completion — strictly before any
        reuse a correct algorithm allows — so a post-time checksum equals
        the bytes on disk.  An extent's integrity CRC (``checksum``) is
        that checksum already.
        """
        if self.journal is None:
            return None
        return (cycle, offset, len(payload), crc(payload) if checksum is None else checksum)

    def _record_extent(self, cycle: int, offset: int, payload):
        """The extent's CRC-32 to carry down the write path (recorded in the
        integrity manifest), or None without checksum carrying."""
        if self.carry is None:
            return None
        return (yield from self.carry.record_extent(cycle, offset, payload))

    def _open_spans(self, t0: float, name: str, cycle: int, nbytes: int):
        """A write step's ``io.call`` span and its extent's ``io`` span
        (both None when spans are off)."""
        begin, rank = self.recorder.begin, self.rank
        return (
            begin(t0, name, "io.call", rank=rank, cycle=cycle, bytes=nbytes),
            begin(t0, "write", "io", rank=rank, cycle=cycle, flow="async", bytes=nbytes),
        )

    def write_blocking(self, cycle: int):
        """Blocking file-access phase for ``cycle`` (no MPI progress)."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return
        t0 = self.mpi.now
        offset, payload = sliced
        crc = yield from self._record_extent(cycle, offset, payload)
        call_span, io_span = self._open_spans(t0, "write", cycle, len(payload))
        yield from self.sink.write(
            offset, payload, cycle, crc, self._journal_entry(cycle, offset, payload, crc)
        )
        self.recorder.end(io_span, self.mpi.now)
        self.recorder.end(call_span, self.mpi.now)
        self.stats.add_time("write", self.mpi.now - t0)
        self.stats.bump("writes")

    def write_init(self, cycle: int):
        """Post an asynchronous write for ``cycle``; returns its
        :class:`~repro.mpi.mpiio.PostedWrite` (carrying the io span)."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return None
        t0 = self.mpi.now
        offset, payload = sliced
        call_span, io_span = self._open_spans(t0, "write_post", cycle, len(payload))
        crc = yield from self._record_extent(cycle, offset, payload)
        handle = yield from self.sink.post(
            offset, payload, cycle, crc, self._journal_entry(cycle, offset, payload, crc)
        )
        self.recorder.end(call_span, self.mpi.now)
        handle.span = io_span
        self.stats.add_time("write_post", self.mpi.now - t0)
        self.stats.bump("writes")
        return handle

    def write_wait(self, handle):
        """Complete a previously posted asynchronous write."""
        if handle is None:
            return
        t0 = self.mpi.now
        call_span = self.recorder.begin(
            t0, "write_wait", "io.call", rank=self.rank, cycle=getattr(handle.span, "cycle", -1)
        )
        yield from self.mpi.wait(handle)
        handle.settle(self.recorder, self.mpi.now)
        self.recorder.end(call_span, self.mpi.now)
        self.stats.add_time("write", self.mpi.now - t0)

    # The same three steps in the read direction: the file fills the
    # sub-buffer slice that ``_write_slice`` names, in place.
    def read_blocking(self, cycle: int):
        """Blocking file-access phase of a read (no MPI progress)."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return
        t0 = self.mpi.now
        yield from self.fh.read_at(*sliced)
        self.stats.add_time("read", self.mpi.now - t0)
        self.stats.bump("reads")

    def read_init(self, cycle: int):
        """Post an asynchronous read for ``cycle``; returns a handle."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return None
        t0 = self.mpi.now
        req = yield from self.fh.iread_at(*sliced)
        self.stats.add_time("read_post", self.mpi.now - t0)
        self.stats.bump("reads")
        return req

    def read_wait(self, handle):
        """Complete a posted read (its bytes land in the sub-buffer)."""
        if handle is None:
            return
        t0 = self.mpi.now
        yield from self.mpi.wait(handle)
        self.stats.add_time("read", self.mpi.now - t0)

    def staging_flush(self):
        """Make everything this node staged durable (end of the collective).

        No-op unless the rank's sink stages.  For the ``end_of_job``
        policy this is where the whole drain happens, serialized after
        the last cycle; the asynchronous policies only wait out the
        in-flight tail.  Waiting is an MPI call (progress keeps running —
        peers on other nodes may still be shuffling their final cycles).
        """
        drained = self.sink.flush()
        if drained is None:
            return
        t0 = self.mpi.now
        span = self.recorder.begin(
            t0, "flush", "staging", rank=self.rank, policy=self.mpi.world.staging.spec.policy
        )
        yield from self.mpi.wait(Request(drained, "staging_flush"))
        self.recorder.end(span, self.mpi.now)
        self.stats.add_time("staging_flush", self.mpi.now - t0)

    def iteration(self, cycle: int):
        """Span over one cycle iteration of an overlap algorithm (a shared
        null context when spans are off: this is the innermost rank loop)."""
        recorder = self.recorder
        if not recorder.active:
            return _NULL_ITERATION
        span = recorder.begin(
            self.mpi.now, "cycle", "algo.cycle", rank=self.rank, cycle=cycle
        )
        return _IterationSpan(self, span)

    # ------------------------------------------------------------------
    def planning_tick(self):
        """Per-cycle offset bookkeeping cost (charged to every rank)."""
        cost = self.config.cycle_planning_overhead
        if cost:
            yield from self.mpi.compute(cost)

    def pack_cost(self, nbytes: int, npieces: int) -> float:
        """Sender-side gather cost.

        A single-piece (contiguous) contribution is sent straight from
        the user buffer — zero copy, zero cost — exactly as ompio's
        vulcan does; only scattered contributions pay the per-extent
        handling plus the memcpy into the pack buffer.
        """
        if npieces <= 1:
            return 0.0
        per_piece = self.config.pack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def unpack_cost(self, nbytes: int, npieces: int) -> float:
        """Aggregator-side scatter cost.

        A single-piece contribution is received directly into its final
        collective-buffer position (the receive is posted at the right
        offset) — no unpack; scattered contributions are received into a
        bounce buffer and copied piecewise.
        """
        if npieces <= 1:
            return 0.0
        per_piece = self.config.unpack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def local_copy_cost(self, nbytes: int, npieces: int) -> float:
        """An aggregator copying its *own* contribution into the buffer.

        Always one real memcpy (user buffer -> collective buffer), plus
        per-extent handling when scattered.
        """
        per_piece = self.config.unpack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def extra_put_cost(self, nputs: int) -> float:
        """Compensation when one modeled put stands for several real puts.

        Charges the posting overhead of the ``factor - 1`` puts that were
        folded into each modeled one (their payload bytes are already in
        the modeled put's transfer).
        """
        factor = self.config.extent_cost_factor
        if factor <= 1.0 or nputs == 0:
            return 0.0
        spec = self.mpi.world.cluster.spec
        return nputs * (factor - 1.0) * (spec.mpi_call_overhead + spec.rma_put_overhead)

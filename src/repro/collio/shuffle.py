"""The three shuffle data-transfer primitives (paper Sec. III-B).

Each engine exposes the paper's ``shuffle_init`` / ``shuffle_wait`` split
(plus blocking ``shuffle`` = init + wait):

:class:`TwoSidedShuffle`
    Non-blocking ``Isend``/``Irecv``.  Senders *pack* their pieces into
    one contiguous message per (aggregator, cycle); aggregators post one
    receive per expected sender and *unpack* (scatter) the received bytes
    into the collective sub-buffer at ``shuffle_wait`` — CPU work charged
    to the aggregator, the busiest rank.  Contributions an aggregator owes
    itself are a local memcpy.

:class:`OneSidedFenceShuffle`
    ``MPI_Put`` with active-target synchronization: a ``Win_fence`` opens
    the epoch in ``shuffle_init`` and a second fence in ``shuffle_wait``
    guarantees completion (paper III-B2a).  Puts go *directly* to their
    final position in the remote sub-buffer — one Put per contiguous
    piece, no pack, no unpack, no matching at the target.

:class:`OneSidedLockShuffle`
    ``MPI_Put`` with passive-target synchronization:
    ``Win_lock(SHARED)`` / puts / ``Win_unlock`` per target, with the
    ``MPI_Barrier`` the paper had to add so (a) aggregators know all
    inbound puts have finished and (b) no origin writes a sub-buffer the
    aggregator is still flushing to disk (paper III-B2b).

Every engine's calls are *collectively balanced*: all ranks execute the
same sequence (with empty bodies when they have no data), so the
collective synchronization inside the RMA variants lines up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.collio.context import AlgoContext
from repro.collio.plan import SendAssignment
from repro.payload import gather, place

__all__ = [
    "ShuffleHandle",
    "TwoSidedShuffle",
    "OneSidedFenceShuffle",
    "OneSidedLockShuffle",
    "SHUFFLE_PRIMITIVES",
]


@dataclass
class ShuffleHandle:
    """In-flight state of one cycle's shuffle on one rank."""

    cycle: int
    requests: list = field(default_factory=list)
    #: (src_rank, recv_buffer, assignments) tuples to scatter at wait time.
    unpacks: list = field(default_factory=list)
    #: Local (self-contribution) assignments to copy at wait time.
    local_copies: list = field(default_factory=list)
    extra: Any = None
    #: Open "comm" span covering the in-flight shuffle (None when the
    #: recorder is disabled); closed when the cycle's data is placed.
    comm_span: Any = None


def _pack(data, sa: SendAssignment):
    """Gather a send assignment's pieces into one contiguous message (a
    single piece is a zero-copy view of the user buffer; the pack CPU cost
    is charged by the caller)."""
    return gather(data, [(loc, ln) for _, ln, loc in sa.pieces])


def _scatter(ctx: AlgoContext, cycle: int, sa: SendAssignment, payload) -> None:
    """Place a contribution's pieces at their final sub-buffer positions."""
    base = ctx.plan.cycle_base(sa.agg_index, cycle)
    buf = ctx.buffer(ctx.sub_of_cycle(cycle))
    place(buf, [(off - base, ln) for off, ln, _ in sa.pieces], payload)


def _staged_crc(ctx: AlgoContext, cycle: int, loc: int, ln: int) -> int | None:
    """A put piece's carried CRC (from a leader's staging ledger), or None."""
    return None if ctx.carry is None else ctx.carry.staged_piece_crc(cycle, loc, ln)


class TwoSidedShuffle:
    """Non-blocking two-sided shuffle (the production default)."""

    name = "two_sided"
    context_tag = "shuffle"

    def setup(self, ctx: AlgoContext):
        ctx.allocate_buffers()
        return
        yield  # pragma: no cover - makes this a generator

    def init(self, ctx: AlgoContext, cycle: int):
        """Post this cycle's sends and (on aggregators) receives."""
        t0 = ctx.mpi.now
        handle = ShuffleHandle(cycle)
        call_span = None
        if ctx.recorder.active:
            handle.comm_span = ctx.recorder.begin(
                t0, "shuffle", "comm", rank=ctx.rank, cycle=cycle,
                flow="async", engine=self.name,
            )
            call_span = ctx.recorder.begin(
                t0, "shuffle_init", "comm.call", rank=ctx.rank, cycle=cycle
            )
        plan = ctx.plan
        # Receives first, so self-sends (modelled as local copies) and fast
        # eager senders find a posted receive more often — as real
        # aggregator code does.
        if ctx.is_aggregator:
            for exp in plan.recvs_for(ctx.agg_index, cycle):
                if exp.src_rank == ctx.rank:
                    continue
                # Pooled receive buffer (returned after the unpack) — the
                # scatter fully consumes it within this cycle.
                buf = ctx.take_buffer(exp.nbytes)
                req = yield from ctx.mpi.irecv(
                    exp.src_rank, tag=cycle, buffer=buf, context=self.context_tag,
                )
                handle.requests.append(req)
                handle.unpacks.append((exp.src_rank, buf, req))
        src = ctx.send_source(cycle)
        for sa in plan.sends_for(ctx.rank, cycle):
            agg_rank = plan.aggregators[sa.agg_index]
            if agg_rank == ctx.rank:
                handle.local_copies.append(sa)
                continue
            payload = _pack(src, sa)
            cost = ctx.pack_cost(sa.nbytes, sa.npieces)
            if cost:
                yield from ctx.mpi.compute(cost)
            # Producer-side checksums: computed (or combined from the
            # staging ledger) once here, carried with the message.
            pieces = whole = None
            if ctx.carry is not None:
                pieces, whole = ctx.carry.piece_checksums(cycle, sa, src)
            # readonly: the payload is a view of the rank's frozen data or
            # a single-use pack buffer — the eager path may skip its copy.
            req = yield from ctx.mpi.isend(
                agg_rank, tag=cycle, data=payload,
                context=self.context_tag, readonly=True,
                checksum=whole, piece_checksums=pieces,
            )
            handle.requests.append(req)
            ctx.stats.bump("messages_sent")
            ctx.note_message(agg_rank, sa.nbytes)
        if call_span is not None:
            ctx.recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle_init", ctx.mpi.now - t0)
        return handle

    def wait(self, ctx: AlgoContext, handle: ShuffleHandle):
        """Complete the cycle's transfers, then unpack at aggregators."""
        t0 = ctx.mpi.now
        call_span = None
        if ctx.recorder.active:
            call_span = ctx.recorder.begin(
                t0, "shuffle_wait", "comm.call", rank=ctx.rank, cycle=handle.cycle
            )
        if handle.requests:
            yield from ctx.mpi.waitall(handle.requests)
        yield from self.finish(ctx, handle)
        if call_span is not None:
            ctx.recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle", ctx.mpi.now - t0)

    def finish(self, ctx: AlgoContext, handle: ShuffleHandle):
        """The post-transfer unpack/scatter step (aggregator CPU)."""
        cycle = handle.cycle
        if handle.unpacks and ctx.is_aggregator:
            base = ctx.plan.cycle_base(ctx.agg_index, cycle)
            sub = ctx.buffer(ctx.sub_of_cycle(cycle))
            total_bytes = 0
            total_pieces = 0
            for src, buf, req in handle.unpacks:
                sas = [
                    sa for sa in ctx.plan.sends_for(src, cycle)
                    if sa.agg_index == ctx.agg_index
                ]
                # The message is the sender's assignments packed end to end.
                place(sub, [(off - base, ln) for sa in sas for off, ln, _ in sa.pieces], buf)
                total_bytes += len(buf)
                total_pieces += sum(sa.npieces for sa in sas)
                if ctx.carry is not None:
                    # Piece CRCs the (verified) delivery carried, filed so
                    # the extent record combines instead of re-checksumming.
                    ctx.carry.file_delivered(sas, req.detail.piece_checksums)
                ctx.release_buffer(buf)
            cost = ctx.unpack_cost(total_bytes, total_pieces)
            if cost:
                yield from ctx.mpi.compute(cost)
        for sa in handle.local_copies:
            src_arr = ctx.send_source(cycle)
            _scatter(ctx, cycle, sa, _pack(src_arr, sa))
            if ctx.carry is not None:
                ctx.carry.file_local_copy(cycle, sa, src_arr)
            yield from ctx.mpi.compute(ctx.local_copy_cost(sa.nbytes, sa.npieces))
        # This cycle's data is now fully placed in the sub-buffer — the
        # in-flight shuffle ends here (covers both the wait() path and
        # write_comm's joint-waitall path, which calls finish() directly).
        if handle.comm_span is not None:
            ctx.recorder.end(handle.comm_span, ctx.mpi.now)
            handle.comm_span = None

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)

    @property
    def combinable(self) -> bool:
        """Whether wait() reduces to a request list (for joint wait_all)."""
        return True


class _OneSidedBase:
    """Common machinery of the Put-based shuffles."""

    def setup(self, ctx: AlgoContext):
        yield from ctx.allocate_windows()

    def _issue_puts(self, ctx: AlgoContext, cycle: int):
        plan = ctx.plan
        win = ctx.window(ctx.sub_of_cycle(cycle))
        src = ctx.send_source(cycle)
        nputs = 0
        for sa in plan.sends_for(ctx.rank, cycle):
            agg_rank = plan.aggregators[sa.agg_index]
            base = plan.cycle_base(sa.agg_index, cycle)
            for off, ln, loc in sa.pieces:
                yield from win.put(
                    agg_rank, src[loc : loc + ln], off - base,
                    checksum=_staged_crc(ctx, cycle, loc, ln), file_offset=off,
                )
                ctx.note_message(agg_rank, ln)
                nputs += 1
        extra = ctx.extra_put_cost(nputs)
        if extra:
            yield from ctx.mpi.compute(extra)
        ctx.stats.bump("puts_issued", nputs)

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)

    def finish(self, ctx: AlgoContext, handle: ShuffleHandle):
        """No unpack needed: puts land in place."""
        return
        yield  # pragma: no cover

    @property
    def combinable(self) -> bool:
        return False


class OneSidedFenceShuffle(_OneSidedBase):
    """Put + ``MPI_Win_fence`` (active-target) shuffle."""

    name = "one_sided_fence"

    def init(self, ctx: AlgoContext, cycle: int):
        t0 = ctx.mpi.now
        handle = ShuffleHandle(cycle)
        recorder = ctx.recorder
        active = recorder.active
        call_span = None
        if active:
            handle.comm_span = recorder.begin(
                t0, "shuffle", "comm", rank=ctx.rank, cycle=cycle,
                flow="async", engine=self.name,
            )
            call_span = recorder.begin(
                t0, "shuffle_init", "comm.call", rank=ctx.rank, cycle=cycle
            )
        win = ctx.window(ctx.sub_of_cycle(cycle))
        # Opening fence: also guarantees the target's previous write on
        # this sub-buffer has completed before any put can land (every
        # rank — including the aggregator — must pass it).
        fence_span = None
        if active:
            fence_span = recorder.begin(
                ctx.mpi.now, "fence", "sync", rank=ctx.rank, cycle=cycle
            )
        yield from win.fence()
        if active:
            recorder.end(fence_span, ctx.mpi.now)
        yield from self._issue_puts(ctx, cycle)
        if call_span is not None:
            recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle_init", ctx.mpi.now - t0)
        return handle

    def wait(self, ctx: AlgoContext, handle: ShuffleHandle):
        t0 = ctx.mpi.now
        recorder = ctx.recorder
        active = recorder.active
        call_span = None
        if active:
            call_span = recorder.begin(
                t0, "shuffle_wait", "comm.call", rank=ctx.rank, cycle=handle.cycle
            )
        win = ctx.window(ctx.sub_of_cycle(handle.cycle))
        fence_span = None
        if active:
            fence_span = recorder.begin(
                ctx.mpi.now, "fence", "sync", rank=ctx.rank, cycle=handle.cycle
            )
        yield from win.fence()
        if active:
            recorder.end(fence_span, ctx.mpi.now)
        if handle.comm_span is not None:
            recorder.end(handle.comm_span, ctx.mpi.now)
            handle.comm_span = None
        if call_span is not None:
            recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle", ctx.mpi.now - t0)
        ctx.stats.bump("fences", 2)


class OneSidedLockShuffle(_OneSidedBase):
    """Put + ``MPI_Win_lock(SHARED)``/``unlock`` (passive-target) shuffle."""

    name = "one_sided_lock"

    def init(self, ctx: AlgoContext, cycle: int):
        t0 = ctx.mpi.now
        handle = ShuffleHandle(cycle)
        recorder = ctx.recorder
        active = recorder.active
        call_span = None
        if active:
            handle.comm_span = recorder.begin(
                t0, "shuffle", "comm", rank=ctx.rank, cycle=cycle,
                flow="async", engine=self.name,
            )
            call_span = recorder.begin(
                t0, "shuffle_init", "comm.call", rank=ctx.rank, cycle=cycle
            )
        # The paper's extra barrier: no origin may put into a sub-buffer
        # before the aggregator finished writing its previous contents.
        # Aggregators reach this barrier only after their write_wait.
        barrier_span = None
        if active:
            barrier_span = recorder.begin(
                ctx.mpi.now, "barrier", "sync", rank=ctx.rank, cycle=cycle
            )
        yield from ctx.mpi.barrier()
        if active:
            recorder.end(barrier_span, ctx.mpi.now)
        plan = ctx.plan
        win = ctx.window(ctx.sub_of_cycle(cycle))
        src = ctx.send_source(cycle)
        targets: dict[int, list[SendAssignment]] = {}
        for sa in plan.sends_for(ctx.rank, cycle):
            targets.setdefault(plan.aggregators[sa.agg_index], []).append(sa)
        nputs = 0
        for agg_rank in sorted(targets):
            epoch_span = None
            if active:
                epoch_span = recorder.begin(
                    ctx.mpi.now, "lock_epoch", "sync", rank=ctx.rank,
                    cycle=cycle, target=agg_rank,
                )
            yield from win.lock(agg_rank, exclusive=False)
            for sa in targets[agg_rank]:
                base = plan.cycle_base(sa.agg_index, cycle)
                for off, ln, loc in sa.pieces:
                    yield from win.put(
                        agg_rank, src[loc : loc + ln], off - base,
                        checksum=_staged_crc(ctx, cycle, loc, ln), file_offset=off,
                    )
                    ctx.note_message(agg_rank, ln)
                    nputs += 1
            yield from win.unlock(agg_rank, exclusive=False)
            if epoch_span is not None:
                recorder.end(epoch_span, ctx.mpi.now)
        extra = ctx.extra_put_cost(nputs)
        if extra:
            yield from ctx.mpi.compute(extra)
        ctx.stats.bump("puts_issued", nputs)
        if call_span is not None:
            recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle_init", ctx.mpi.now - t0)
        return handle

    def wait(self, ctx: AlgoContext, handle: ShuffleHandle):
        t0 = ctx.mpi.now
        recorder = ctx.recorder
        active = recorder.active
        call_span = None
        if active:
            call_span = recorder.begin(
                t0, "shuffle_wait", "comm.call", rank=ctx.rank, cycle=handle.cycle
            )
        # Target-side completion knowledge (paper III-B2b).
        barrier_span = None
        if active:
            barrier_span = recorder.begin(
                ctx.mpi.now, "barrier", "sync", rank=ctx.rank, cycle=handle.cycle
            )
        yield from ctx.mpi.barrier()
        if active:
            recorder.end(barrier_span, ctx.mpi.now)
        if handle.comm_span is not None:
            recorder.end(handle.comm_span, ctx.mpi.now)
            handle.comm_span = None
        if call_span is not None:
            recorder.end(call_span, ctx.mpi.now)
        ctx.stats.add_time("shuffle", ctx.mpi.now - t0)
        ctx.stats.bump("barriers", 2)


SHUFFLE_PRIMITIVES = {
    "two_sided": TwoSidedShuffle,
    "one_sided_fence": OneSidedFenceShuffle,
    "one_sided_lock": OneSidedLockShuffle,
}


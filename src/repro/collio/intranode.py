"""Intra-node pre-aggregation: the gather stage of two-layer shuffles.

With a :class:`~repro.collio.plan.TwoLayerPlan`, every cycle runs two
hops instead of one:

1. *Gather* (this module): each rank packs its cycle contributions into
   one contiguous stream and sends it — a single intra-node message over
   the node's memory engine — to its elected leader, which scatters the
   streams into a staging buffer laid out per aggregator (file-sorted,
   contiguous runs merged).  Leaders of single-rank nodes skip this hop
   entirely (the plan marks them pass-through).
2. *Forward*: the wrapped shuffle primitive runs unchanged against the
   plan's leader-level schedule; leaders send the coalesced messages out
   of staging (``AlgoContext.send_source``), every other rank has
   nothing to send inter-node.

:class:`TwoLayerShuffle` wraps any of the three shuffle primitives and
presents the same ``setup`` / ``init`` / ``wait`` / ``blocking`` /
``finish`` interface, so all five overlap algorithms drive a two-layer
shuffle without modification.  The gather runs synchronously inside
``init`` — exactly where a member's cycle data must be complete anyway —
and reuses staging slot ``cycle % nsub`` only after the slot's previous
forward shuffle has been waited (the same discipline as the collective
sub-buffers, which every algorithm already guarantees).

The gather's messages use the ``"intranode"`` match context, keeping
them out of the inter-node shuffle's matching space, and are recorded
as ``"gather"`` spans in the ``"intranode"`` span category with
``intranode.*`` metrics derived from the per-rank counters.
"""

from __future__ import annotations

from repro.collio.context import AlgoContext
from repro.collio.plan import TwoLayerPlan
from repro.payload import gather, place

__all__ = ["TwoLayerShuffle", "INTRANODE_CONTEXT"]

#: MPI match-context tag of gather messages (disjoint from "shuffle").
INTRANODE_CONTEXT = "intranode"


def _stream_pieces(plan: TwoLayerPlan, rank: int, cycle: int) -> list[tuple[int, int]]:
    """(local_offset, length) pairs of a member's pack stream, in order."""
    return [
        (int(loc), int(ln))
        for sa in plan.member_sends_for(rank, cycle)
        for loc, ln in zip(sa.local_offsets, sa.lengths)
    ]


class TwoLayerShuffle:
    """A shuffle primitive with a node-local gather stage in front."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"two_layer({inner.name})"

    # ------------------------------------------------------------------
    # Engine interface (delegating to the wrapped primitive)
    # ------------------------------------------------------------------
    def setup(self, ctx: AlgoContext):
        ctx.allocate_staging()
        yield from self.inner.setup(ctx)

    def init(self, ctx: AlgoContext, cycle: int):
        yield from self._gather(ctx, cycle)
        handle = yield from self.inner.init(ctx, cycle)
        return handle

    def wait(self, ctx: AlgoContext, handle):
        yield from self.inner.wait(ctx, handle)

    def finish(self, ctx: AlgoContext, handle):
        yield from self.inner.finish(ctx, handle)

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)

    @property
    def combinable(self) -> bool:
        return self.inner.combinable

    @property
    def context_tag(self) -> str:
        return getattr(self.inner, "context_tag", "shuffle")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwoLayerShuffle inner={self.inner.name}>"

    # ------------------------------------------------------------------
    # The gather stage
    # ------------------------------------------------------------------
    def _gather(self, ctx: AlgoContext, cycle: int):
        """Collect this cycle's node-local data at the leader (SPMD)."""
        plan: TwoLayerPlan = ctx.plan
        rank = ctx.rank
        leader = plan.leader_of_rank[rank]
        if not plan.uses_staging(leader):
            return  # pass-through node: nothing to coalesce
        t0 = ctx.mpi.now
        span = None
        if ctx.recorder.active:
            span = ctx.recorder.begin(
                t0, "gather", "intranode", rank=rank, cycle=cycle, leader=leader
            )
        if rank == leader:
            yield from self._gather_leader(ctx, cycle)
        else:
            yield from self._gather_member(ctx, cycle, leader)
        ctx.recorder.end(span, ctx.mpi.now)
        ctx.stats.add_time("gather", ctx.mpi.now - t0)

    def _gather_member(self, ctx: AlgoContext, cycle: int, leader: int):
        """Pack this rank's stream and ship it to the leader (blocking).

        Blocking matters: the send's completion keeps the member inside
        an MPI progress window, so a rendezvous-sized stream can hand
        its CTS/data exchange even while the leader is still busy.
        """
        plan: TwoLayerPlan = ctx.plan
        nbytes, npieces = plan.gather_load(ctx.rank, cycle)
        if not nbytes:
            return
        spans = _stream_pieces(plan, ctx.rank, cycle)
        payload = gather(ctx.data, spans)
        cost = ctx.pack_cost(nbytes, npieces)
        if cost:
            yield from ctx.mpi.compute(cost)
        pieces = whole = None
        if ctx.carry is not None:
            pieces, whole = ctx.carry.stream_checksums(spans)
        yield from ctx.mpi.send(
            leader, tag=cycle, data=payload,
            context=INTRANODE_CONTEXT, readonly=True,
            checksum=whole, piece_checksums=pieces,
        )
        ctx.note_message(leader, nbytes, stage="gather")

    def _gather_leader(self, ctx: AlgoContext, cycle: int):
        """Receive every member's stream and assemble the staging slot."""
        plan: TwoLayerPlan = ctx.plan
        rank = ctx.rank
        if ctx.carry is not None:
            # The slot is being refilled: any leftover verified CRCs from
            # the cycle that previously used it are stale now.
            ctx.carry.staging_ledger(cycle).clear()
        requests = []
        inbound: list[tuple[int, object, object]] = []
        for member in plan.members_of_leader[rank]:
            if member == rank:
                continue
            nbytes, _pieces = plan.gather_load(member, cycle)
            if not nbytes:
                continue
            # Pooled receive buffer (returned once staged).
            buf = ctx.take_buffer(nbytes)
            req = yield from ctx.mpi.irecv(
                member, tag=cycle, buffer=buf, context=INTRANODE_CONTEXT
            )
            requests.append(req)
            inbound.append((member, buf, req))
        own_bytes, own_pieces = plan.gather_load(rank, cycle)
        if own_bytes:
            self._stage_own(ctx, cycle)
            yield from ctx.mpi.compute(ctx.local_copy_cost(own_bytes, own_pieces))
            ctx.stats.bump("gather_local_copies")
        if requests:
            yield from ctx.mpi.waitall(requests)
        total_bytes = 0
        total_pieces = 0
        for member, buf, req in inbound:
            self._stage_member(ctx, cycle, member, buf, req)
            ctx.release_buffer(buf)
            nbytes, npieces = plan.gather_load(member, cycle)
            total_bytes += nbytes
            total_pieces += npieces
        cost = ctx.unpack_cost(total_bytes, total_pieces)
        if cost:
            yield from ctx.mpi.compute(cost)

    # ------------------------------------------------------------------
    # Staging-buffer byte movement
    # ------------------------------------------------------------------
    def _stage_own(self, ctx: AlgoContext, cycle: int) -> None:
        """Copy the leader's own pieces straight into staging.

        The leader is the producer of its own stream, so its piece CRCs
        are computed here (once) and filed under their staging offsets —
        the forward shuffle combines them.
        """
        plan: TwoLayerPlan = ctx.plan
        stag = ctx.staging(ctx.sub_of_cycle(cycle))
        dests = plan.gather_scatter(cycle, ctx.rank)
        spans = _stream_pieces(plan, ctx.rank, cycle)
        for dest, (loc, ln) in zip(dests, spans):
            place(stag, ((int(dest), ln),), ctx.data[loc : loc + ln])
        if ctx.carry is not None:
            ctx.carry.file_own_stream(cycle, dests, spans)

    def _stage_member(self, ctx: AlgoContext, cycle: int, member: int, buf, req) -> None:
        """Scatter a member's received stream into staging positions.

        The delivered message's carried piece CRCs (already verified as
        a whole at receive time) are filed under their staging offsets —
        no byte is re-checksummed here.
        """
        plan: TwoLayerPlan = ctx.plan
        dests = plan.gather_scatter(cycle, member)
        spans = _stream_pieces(plan, member, cycle)
        place(
            ctx.staging(ctx.sub_of_cycle(cycle)),
            [(int(dest), ln) for dest, (_loc, ln) in zip(dests, spans)],
            buf,
        )
        if ctx.carry is not None:
            ctx.carry.file_member_stream(cycle, dests, spans, req.detail.piece_checksums)

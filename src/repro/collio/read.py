"""Two-phase collective **read** — the mirror of the paper's write path.

The paper's closing section lists collective reads as a natural
extension, and its related-work section credits View-based I/O [3] with
overlapping *read-ahead* against ongoing operations.  This module
implements the two-phase read with the same machinery as the write:

1. **file access phase** — each aggregator reads one cycle of its
   contiguous file domain into a collective (sub-)buffer;
2. **scatter phase** — the cycle's bytes are distributed to the ranks
   that own them under the file view.

The :class:`~repro.collio.plan.TwoPhasePlan` is reused unchanged: what a
rank *sends* to an aggregator during a write is exactly what it
*receives* from it during a read.  So is everything around it: the rank
context, the per-rank entry, the run pipeline and the result type of
:mod:`repro.collio.api` take this module's :data:`READ` direction.  What
lives here is what genuinely runs the other way — the scatter primitives
and the read loops.

Algorithms (``READ_ALGORITHMS``):

``no_overlap``
    read cycle -> scatter cycle, strictly sequential (full-size buffer).
``read_ahead``
    asynchronous read of cycle *c+1* posted before the scatter of cycle
    *c* (double buffering) — the read-ahead idea of View-based I/O,
    driven by the OS's aio engine like the paper's Write-Overlap.
``scatter_overlap``
    non-blocking scatter of cycle *c* overlapped with the blocking read
    of cycle *c+1* — the Comm-Overlap mirror, subject to the same
    progress limitation.

Scatter primitives (``SCATTER_PRIMITIVES``):

``two_sided``
    Aggregators ``Isend`` per-destination bundles; contiguous
    (single-piece) bundles are received zero-copy into the destination's
    buffer, scattered bundles pay pack (aggregator) / unpack (receiver).
``one_sided_get``
    Destinations ``Get`` their pieces straight out of the aggregator's
    exposed sub-buffer window between two fences — no aggregator CPU,
    at the price of the fence synchronization.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.collio.api import (
    CollectiveWriteResult,
    Direction,
    RunPipeline,
    RunSpec,
    default_data,
)
from repro.collio.config import CollectiveConfig
from repro.collio.context import AlgoContext
from repro.collio.overlap.base import OverlapAlgorithm
from repro.collio.plan import SendAssignment
from repro.collio.view import FileView
from repro.config import DEFAULT_SEED
from repro.fs.presets import FsSpec
from repro.hardware.cluster import ClusterSpec
from repro.payload import empty, gather, place

__all__ = [
    "READ",
    "READ_ALGORITHMS",
    "SCATTER_PRIMITIVES",
    "run_collective_read",
]


def _deliver(ctx: AlgoContext, sa: SendAssignment, payload) -> None:
    """Copy a received bundle's pieces into the rank's output buffer."""
    place(ctx.data, [(loc, ln) for _, ln, loc in sa.pieces], payload)


def _bundle_from_buffer(ctx: AlgoContext, cycle: int, sa: SendAssignment):
    """Gather a destination's pieces out of the aggregator's sub-buffer."""
    base = ctx.plan.cycle_base(sa.agg_index, cycle)
    buf = ctx.buffer(ctx.sub_of_cycle(cycle))
    return gather(buf, [(off - base, ln) for off, ln, _ in sa.pieces])


class TwoSidedScatter:
    """Isend/Irecv scatter with the zero-copy contiguous fast path."""

    name = "two_sided"

    def setup(self, ctx: AlgoContext):
        ctx.allocate_buffers()
        return
        yield  # pragma: no cover

    def init(self, ctx: AlgoContext, cycle: int):
        """Aggregators post sends, destinations post receives."""
        t0 = ctx.mpi.now
        sends, recvs, unpacks = [], [], []
        plan = ctx.plan
        # Destinations post receives first.
        for sa in plan.sends_for(ctx.rank, cycle):
            if plan.aggregators[sa.agg_index] == ctx.rank:
                continue  # self-delivery handled at wait
            if sa.npieces == 1:
                _, ln, loc = sa.pieces[0]
                buf = ctx.data[loc : loc + ln]
            else:
                buf = empty(sa.nbytes, like=ctx.data)
            req = yield from ctx.mpi.irecv(
                plan.aggregators[sa.agg_index], tag=cycle, buffer=buf, context="scatter",
            )
            recvs.append(req)
            if sa.npieces > 1:
                unpacks.append((sa, buf))
        # Aggregators send each destination's bundle.
        if ctx.is_aggregator:
            for exp in plan.recvs_for(ctx.agg_index, cycle):
                if exp.src_rank == ctx.rank:
                    continue
                for sa in plan.sends_for(exp.src_rank, cycle):
                    if sa.agg_index != ctx.agg_index:
                        continue
                    cost = ctx.pack_cost(sa.nbytes, sa.npieces)
                    if cost:
                        yield from ctx.mpi.compute(cost)
                    payload = _bundle_from_buffer(ctx, cycle, sa)
                    req = yield from ctx.mpi.isend(
                        exp.src_rank, tag=cycle, data=payload, context="scatter",
                    )
                    sends.append(req)
        ctx.stats.add_time("scatter_init", ctx.mpi.now - t0)
        return (cycle, sends, recvs, unpacks)

    def wait(self, ctx: AlgoContext, handle):
        cycle, sends, recvs, unpacks = handle
        t0 = ctx.mpi.now
        if sends or recvs:
            yield from ctx.mpi.waitall(sends + recvs)
        # Scattered bundles: unpack into the output buffer (charged at
        # the pack rate, like the aggregator's gather of the same bundle).
        total_bytes = total_pieces = 0
        for sa, buf in unpacks:
            _deliver(ctx, sa, buf)
            total_bytes += sa.nbytes
            total_pieces += sa.npieces
        if total_pieces:
            yield from ctx.mpi.compute(ctx.pack_cost(total_bytes, total_pieces))
        # Self-delivery on aggregators: a local memcpy.
        for sa in ctx.plan.sends_for(ctx.rank, cycle):
            if ctx.plan.aggregators[sa.agg_index] == ctx.rank:
                _deliver(ctx, sa, _bundle_from_buffer(ctx, cycle, sa))
                yield from ctx.mpi.compute(ctx.local_copy_cost(sa.nbytes, sa.npieces))
        ctx.stats.add_time("scatter", ctx.mpi.now - t0)

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)


class OneSidedGetScatter:
    """Destinations Get their pieces from the aggregator's window."""

    name = "one_sided_get"

    def setup(self, ctx: AlgoContext):
        yield from ctx.allocate_windows()

    def init(self, ctx: AlgoContext, cycle: int):
        t0 = ctx.mpi.now
        win = ctx.window(ctx.sub_of_cycle(cycle))
        # Opening fence: the aggregator has filled the sub-buffer (its
        # read completed before it enters), so gets may start after it.
        yield from win.fence()
        gets = []
        plan = ctx.plan
        for sa in plan.sends_for(ctx.rank, cycle):
            agg_rank = plan.aggregators[sa.agg_index]
            base = plan.cycle_base(sa.agg_index, cycle)
            for off, ln, loc in sa.pieces:
                evt = yield from win.get(agg_rank, ctx.data[loc : loc + ln], off - base)
                gets.append(evt)
        ctx.stats.bump("gets_issued", len(gets))
        ctx.stats.add_time("scatter_init", ctx.mpi.now - t0)
        return (cycle, gets)

    def wait(self, ctx: AlgoContext, handle):
        cycle, _gets = handle
        t0 = ctx.mpi.now
        win = ctx.window(ctx.sub_of_cycle(cycle))
        yield from win.fence()
        ctx.stats.add_time("scatter", ctx.mpi.now - t0)
        ctx.stats.bump("fences", 2)

    def blocking(self, ctx: AlgoContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)


SCATTER_PRIMITIVES = {
    "two_sided": TwoSidedScatter,
    "one_sided_get": OneSidedGetScatter,
}


# --------------------------------------------------------------------------
# Read algorithms
# --------------------------------------------------------------------------

class NoOverlapRead(OverlapAlgorithm):
    name = "no_overlap"
    nsub = 1

    def run(self, ctx: AlgoContext, scatter):
        for cycle in range(ctx.plan.num_cycles):
            yield from ctx.read_blocking(cycle)
            yield from scatter.blocking(ctx, cycle)


class ReadAheadOverlap(OverlapAlgorithm):
    """Asynchronous read of the next cycle behind the current scatter."""

    name = "read_ahead"
    nsub = 2

    def run(self, ctx: AlgoContext, scatter):
        ncycles = ctx.plan.num_cycles
        if ncycles == 0:
            return
        pending = yield from ctx.read_init(0)
        yield from ctx.read_wait(pending)
        for cycle in range(ncycles):
            ahead = None
            if cycle + 1 < ncycles:
                ahead = yield from ctx.read_init(cycle + 1)
            yield from scatter.blocking(ctx, cycle)
            yield from ctx.read_wait(ahead)


class ScatterOverlap(OverlapAlgorithm):
    """Non-blocking scatter overlapped with the next blocking read."""

    name = "scatter_overlap"
    nsub = 2

    def run(self, ctx: AlgoContext, scatter):
        ncycles = ctx.plan.num_cycles
        if ncycles == 0:
            return
        yield from ctx.read_blocking(0)
        pending = yield from scatter.init(ctx, 0)
        for cycle in range(1, ncycles):
            yield from ctx.read_blocking(cycle)
            nxt = yield from scatter.init(ctx, cycle)
            yield from scatter.wait(ctx, pending)
            pending = nxt
        yield from scatter.wait(ctx, pending)


READ_ALGORITHMS = {
    cls.name: cls for cls in (NoOverlapRead, ReadAheadOverlap, ScatterOverlap)
}

#: What ``run_collective_read`` and ``MPIFile.read_all`` pass down.
READ = Direction("read", READ_ALGORITHMS, SCATTER_PRIMITIVES)


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------

def run_collective_read(
    cluster_spec: ClusterSpec,
    fs_spec: FsSpec,
    nprocs: int,
    views: dict[int, FileView],
    data_factory: Callable[[int, int], np.ndarray] = default_data,
    algorithm: str = "read_ahead",
    scatter: str = "two_sided",
    config: CollectiveConfig | None = None,
    seed: int = DEFAULT_SEED,
    verify: bool = False,
    carry_data: bool = True,
    path: str = "/collective.in",
) -> CollectiveWriteResult:
    """Pre-populate a file from the views, then collectively read it back.

    The arguments make a :class:`~repro.collio.api.RunSpec` (``scatter``
    travels as its ``shuffle``) run through the one pipeline in the read
    direction, so the result carries ``metrics`` like a write's.  With
    ``verify=True`` every rank's buffer is checked byte-exactly against
    the pattern it should have read.
    """
    spec = RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, views=views,
        data_factory=data_factory, algorithm=algorithm, shuffle=scatter,
        config=config, seed=seed, verify=verify, carry_data=carry_data, path=path,
    ).validate(READ)
    return RunPipeline(spec, algorithm, spec.resolved_config(), direction=READ).run()

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
*receives* from it during a read.

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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.collio.api import build_plan, default_data
from repro.collio.config import CollectiveConfig
from repro.collio.context import PhaseStats
from repro.collio.plan import SendAssignment, TwoPhasePlan
from repro.collio.view import FileView
from repro.config import DEFAULT_SEED
from repro.errors import ConfigurationError, VerificationError
from repro.fs.presets import FsSpec
from repro.hardware.cluster import ClusterSpec
from repro.mpi.world import World

__all__ = [
    "READ_ALGORITHMS",
    "SCATTER_PRIMITIVES",
    "CollectiveReadResult",
    "collective_read",
    "run_collective_read",
]


class ReadContext:
    """Per-rank working state of a collective read."""

    def __init__(self, mpi, fh, plan: TwoPhasePlan, view: FileView,
                 out: np.ndarray | None, config: CollectiveConfig, nsub: int) -> None:
        self.mpi = mpi
        self.fh = fh
        self.plan = plan
        self.view = view
        self.out = out
        self.config = config
        self.nsub = nsub
        self.rank = mpi.rank
        self.agg_index = plan.agg_index_of_rank.get(mpi.rank)
        self.stats = PhaseStats()
        self._buffers: list[np.ndarray] | None = None
        self._windows = None

    @property
    def is_aggregator(self) -> bool:
        return self.agg_index is not None

    @property
    def carries_data(self) -> bool:
        return self.out is not None

    def sub_of_cycle(self, cycle: int) -> int:
        return cycle % self.nsub

    def allocate_buffers(self) -> None:
        size = self.plan.cycle_bytes
        self._buffers = (
            [np.zeros(size, dtype=np.uint8) for _ in range(self.nsub)]
            if self.is_aggregator
            else []
        )

    def allocate_windows(self):
        size = self.plan.cycle_bytes if self.is_aggregator else 0
        windows = []
        for _ in range(self.nsub):
            win = yield from self.mpi.win_allocate(size)
            windows.append(win)
        self._windows = windows

    def buffer(self, sub: int) -> np.ndarray:
        if self._windows is not None:
            return self._windows[sub].local_buffer
        assert self._buffers is not None and self.is_aggregator
        return self._buffers[sub]

    def window(self, sub: int):
        assert self._windows is not None
        return self._windows[sub]

    # -- file access ---------------------------------------------------
    def _read_range(self, cycle: int):
        if not self.is_aggregator:
            return None
        return self.plan.write_range(self.agg_index, cycle)

    def read_blocking(self, cycle: int):
        rng = self._read_range(cycle)
        if rng is None:
            return
        t0 = self.mpi.now
        lo, hi = rng
        data = yield from self.fh.read_at(lo, hi - lo)
        if self.carries_data:
            crange = self.plan.cycle_range(self.agg_index, cycle)
            base = crange[0]
            self.buffer(self.sub_of_cycle(cycle))[lo - base : hi - base] = data
        self.stats.add_time("read", self.mpi.now - t0)
        self.stats.bump("reads")

    def read_init(self, cycle: int):
        rng = self._read_range(cycle)
        if rng is None:
            return None
        t0 = self.mpi.now
        lo, hi = rng
        req, data = yield from self.fh.iread_at(lo, hi - lo)
        self.stats.add_time("read_post", self.mpi.now - t0)
        self.stats.bump("reads")
        return (cycle, lo, hi, req, data)

    def read_wait(self, handle):
        if handle is None:
            return
        cycle, lo, hi, req, data = handle
        t0 = self.mpi.now
        yield from self.mpi.wait(req)
        if self.carries_data:
            crange = self.plan.cycle_range(self.agg_index, cycle)
            base = crange[0]
            self.buffer(self.sub_of_cycle(cycle))[lo - base : hi - base] = data
        self.stats.add_time("read", self.mpi.now - t0)

    # -- CPU cost model (mirrors AlgoContext) ---------------------------
    @property
    def memory_bandwidth(self) -> float:
        return self.mpi.world.cluster.spec.memory_bandwidth

    def copy_cost(self, nbytes: int, npieces: int) -> float:
        if npieces <= 1:
            return 0.0
        per_piece = self.config.pack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def local_copy_cost(self, nbytes: int, npieces: int) -> float:
        per_piece = self.config.unpack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth


def _deliver(ctx: ReadContext, cycle: int, sa: SendAssignment, payload: np.ndarray | None) -> None:
    """Copy a received bundle's pieces into the rank's output buffer."""
    if payload is None or ctx.out is None:
        return
    pos = 0
    for ln, loc in zip(sa.lengths, sa.local_offsets):
        ctx.out[int(loc) : int(loc) + int(ln)] = payload[pos : pos + int(ln)]
        pos += int(ln)


def _bundle_from_buffer(ctx: ReadContext, cycle: int, sa: SendAssignment) -> np.ndarray | None:
    """Gather a destination's pieces out of the aggregator's sub-buffer."""
    if not ctx.carries_data:
        return None
    crange = ctx.plan.cycle_range(sa.agg_index, cycle)
    base = crange[0]
    buf = ctx.buffer(ctx.sub_of_cycle(cycle))
    parts = [
        buf[int(off) - base : int(off) - base + int(ln)]
        for off, ln in zip(sa.offsets, sa.lengths)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class TwoSidedScatter:
    """Isend/Irecv scatter with the zero-copy contiguous fast path."""

    name = "two_sided"

    def setup(self, ctx: ReadContext):
        ctx.allocate_buffers()
        return
        yield  # pragma: no cover

    def init(self, ctx: ReadContext, cycle: int):
        """Aggregators post sends, destinations post receives."""
        t0 = ctx.mpi.now
        sends, recvs, unpacks = [], [], []
        plan = ctx.plan
        # Destinations post receives first.
        for sa in plan.sends_for(ctx.rank, cycle):
            if plan.aggregators[sa.agg_index] == ctx.rank:
                continue  # self-delivery handled at wait
            if ctx.carries_data and sa.npieces == 1:
                loc, ln = int(sa.local_offsets[0]), int(sa.lengths[0])
                buf = ctx.out[loc : loc + ln]
            elif ctx.carries_data:
                buf = np.empty(sa.nbytes, dtype=np.uint8)
            else:
                buf = None
            req = yield from ctx.mpi.irecv(
                plan.aggregators[sa.agg_index], tag=cycle, buffer=buf,
                size=sa.nbytes, context="scatter",
            )
            recvs.append(req)
            if sa.npieces > 1:
                unpacks.append((sa, buf))
        # Aggregators send each destination's bundle.
        if ctx.is_aggregator:
            for exp in plan.recvs_for(ctx.agg_index, cycle):
                if exp.src_rank == ctx.rank:
                    continue
                sa = next(
                    s for s in plan.sends_for(exp.src_rank, cycle)
                    if s.agg_index == ctx.agg_index
                )
                cost = ctx.copy_cost(sa.nbytes, sa.npieces)
                if cost:
                    yield from ctx.mpi.compute(cost)
                payload = _bundle_from_buffer(ctx, cycle, sa)
                req = yield from ctx.mpi.isend(
                    exp.src_rank, tag=cycle, data=payload, size=sa.nbytes,
                    context="scatter",
                )
                sends.append(req)
        ctx.stats.add_time("scatter_init", ctx.mpi.now - t0)
        return (cycle, sends, recvs, unpacks)

    def wait(self, ctx: ReadContext, handle):
        cycle, sends, recvs, unpacks = handle
        t0 = ctx.mpi.now
        if sends or recvs:
            yield from ctx.mpi.waitall(sends + recvs)
        # Scattered bundles: unpack into the output buffer.
        total_bytes = total_pieces = 0
        for sa, buf in unpacks:
            _deliver(ctx, cycle, sa, buf)
            total_bytes += sa.nbytes
            total_pieces += sa.npieces
        if total_pieces:
            yield from ctx.mpi.compute(ctx.copy_cost(total_bytes, total_pieces))
        # Self-delivery on aggregators: a local memcpy.
        for sa in ctx.plan.sends_for(ctx.rank, cycle):
            if ctx.plan.aggregators[sa.agg_index] == ctx.rank:
                _deliver(ctx, cycle, sa, _bundle_from_buffer(ctx, cycle, sa))
                yield from ctx.mpi.compute(ctx.local_copy_cost(sa.nbytes, sa.npieces))
        ctx.stats.add_time("scatter", ctx.mpi.now - t0)

    def blocking(self, ctx: ReadContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)


class OneSidedGetScatter:
    """Destinations Get their pieces from the aggregator's window."""

    name = "one_sided_get"

    def setup(self, ctx: ReadContext):
        yield from ctx.allocate_windows()

    def init(self, ctx: ReadContext, cycle: int):
        t0 = ctx.mpi.now
        win = ctx.window(ctx.sub_of_cycle(cycle))
        # Opening fence: the aggregator has filled the sub-buffer (its
        # read completed before it enters), so gets may start after it.
        yield from win.fence()
        gets = []
        plan = ctx.plan
        for sa in plan.sends_for(ctx.rank, cycle):
            agg_rank = plan.aggregators[sa.agg_index]
            crange = plan.cycle_range(sa.agg_index, cycle)
            base = crange[0]
            for off, ln, loc in zip(sa.offsets, sa.lengths, sa.local_offsets):
                local = (
                    ctx.out[int(loc) : int(loc) + int(ln)] if ctx.carries_data else None
                )
                evt = yield from win.get(agg_rank, local, int(off) - base, size=int(ln))
                gets.append(evt)
        ctx.stats.bump("gets_issued", len(gets))
        ctx.stats.add_time("scatter_init", ctx.mpi.now - t0)
        return (cycle, gets)

    def wait(self, ctx: ReadContext, handle):
        cycle, _gets = handle
        t0 = ctx.mpi.now
        win = ctx.window(ctx.sub_of_cycle(cycle))
        yield from win.fence()
        ctx.stats.add_time("scatter", ctx.mpi.now - t0)
        ctx.stats.bump("fences", 2)

    def blocking(self, ctx: ReadContext, cycle: int):
        handle = yield from self.init(ctx, cycle)
        yield from self.wait(ctx, handle)


SCATTER_PRIMITIVES = {
    "two_sided": TwoSidedScatter,
    "one_sided_get": OneSidedGetScatter,
}


# --------------------------------------------------------------------------
# Read algorithms
# --------------------------------------------------------------------------

class NoOverlapRead:
    name = "no_overlap"
    nsub = 1

    def run(self, ctx: ReadContext, scatter):
        for cycle in range(ctx.plan.num_cycles):
            yield from ctx.read_blocking(cycle)
            yield from scatter.blocking(ctx, cycle)


class ReadAheadOverlap:
    """Asynchronous read of the next cycle behind the current scatter."""

    name = "read_ahead"
    nsub = 2

    def run(self, ctx: ReadContext, scatter):
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


class ScatterOverlap:
    """Non-blocking scatter overlapped with the next blocking read."""

    name = "scatter_overlap"
    nsub = 2

    def run(self, ctx: ReadContext, scatter):
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


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------

def collective_read(
    mpi,
    fh,
    view: FileView,
    out: np.ndarray | None,
    plan: TwoPhasePlan,
    algorithm: str = "read_ahead",
    scatter: str = "two_sided",
    config: CollectiveConfig | None = None,
    exchange_metadata: bool = True,
):
    """Per-rank collective read (generator; run on **every** rank).

    Fills ``out`` (a uint8 buffer of ``view.total_bytes``; None for
    size-only timing runs) and returns the rank's PhaseStats.
    """
    config = config or CollectiveConfig()
    try:
        algo = READ_ALGORITHMS[algorithm]()
    except KeyError:
        raise KeyError(
            f"unknown read algorithm {algorithm!r}; known: {sorted(READ_ALGORITHMS)}"
        ) from None
    try:
        engine = SCATTER_PRIMITIVES[scatter]()
    except KeyError:
        raise KeyError(
            f"unknown scatter primitive {scatter!r}; known: {sorted(SCATTER_PRIMITIVES)}"
        ) from None
    if out is not None and out.size != view.total_bytes:
        raise ConfigurationError(
            f"output buffer has {out.size} bytes but the view covers {view.total_bytes}"
        )
    ctx = ReadContext(mpi, fh, plan, view, out, config, nsub=algo.nsub)
    if exchange_metadata:
        yield from mpi.allgather(None, nbytes=view.num_extents * config.meta_bytes_per_extent)
    yield from engine.setup(ctx)
    t0 = mpi.now
    yield from algo.run(ctx, engine)
    ctx.stats.add_time("total", mpi.now - t0)
    yield from mpi.barrier()
    return ctx.stats


@dataclass
class CollectiveReadResult:
    """Outcome of one simulated collective read."""

    algorithm: str
    scatter: str
    nprocs: int
    num_aggregators: int
    num_cycles: int
    total_bytes: int
    elapsed: float
    read_bandwidth: float
    per_rank_stats: list = field(default_factory=list)
    verified: bool | None = None


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
) -> CollectiveReadResult:
    """Pre-populate a file from the views, then collectively read it back.

    With ``verify=True`` every rank's buffer is checked byte-exactly
    against the pattern it should have read.
    """
    if set(views) != set(range(nprocs)):
        raise ConfigurationError("views must cover exactly ranks 0..nprocs-1")
    config = config or CollectiveConfig()
    if (verify or config.verify) and not carry_data:
        raise ConfigurationError("verify=True requires carry_data=True")
    world = World(cluster_spec, nprocs, fs_spec=fs_spec, seed=seed)
    algo = READ_ALGORITHMS[algorithm]()
    cycle_bytes = max(1, config.cb_buffer_size // algo.nsub)
    # Reads have no gather stage: always a single-layer plan.
    plan = build_plan(
        world.cluster, nprocs, views, config, cycle_bytes,
        stripe_size=fs_spec.stripe_size, two_layer=False,
    )
    # Pre-populate the file contents (out-of-band; the read is what's timed).
    payloads = {r: data_factory(r, views[r].total_bytes) for r in range(nprocs)}
    if carry_data:
        simfile = world.pfs.open(path)
        for rank, view in views.items():
            data = payloads[rank]
            for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
                simfile.write(int(off), data[int(loc) : int(loc) + int(ln)])
    outs = {
        r: (np.zeros(views[r].total_bytes, dtype=np.uint8) if carry_data else None)
        for r in range(nprocs)
    }

    def program(mpi):
        fh = yield from mpi.file_open(path)
        stats = yield from collective_read(
            mpi, fh, views[mpi.rank], outs[mpi.rank], plan,
            algorithm=algorithm, scatter=scatter, config=config,
        )
        return stats

    t_start = world.now
    stats = world.run(program)
    elapsed = world.now - t_start
    result = CollectiveReadResult(
        algorithm=algorithm,
        scatter=scatter,
        nprocs=nprocs,
        num_aggregators=len(plan.aggregators),
        num_cycles=plan.num_cycles,
        total_bytes=plan.total_bytes,
        elapsed=elapsed,
        read_bandwidth=plan.total_bytes / elapsed if elapsed > 0 else 0.0,
        per_rank_stats=stats,
    )
    if verify or config.verify:
        for rank in range(nprocs):
            expected = payloads[rank]
            if not np.array_equal(outs[rank], expected):
                bad = np.flatnonzero(outs[rank] != expected)
                raise VerificationError(
                    f"collective read corrupted rank {rank}'s data: "
                    f"{bad.size} wrong bytes, first at local offset {bad[0]}"
                )
        result.verified = True
    return result

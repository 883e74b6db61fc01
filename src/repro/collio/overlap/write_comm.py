"""Algorithm 3 — Write-Communication Overlap.

Both phases non-blocking: every iteration posts the previous cycle's
asynchronous write and the next cycle's shuffle, then waits for **both**
together (``wait_all(p1, p2)``).

For the two-sided shuffle the joint wait is a genuine ``MPI_Waitall``
over the write request and the shuffle requests (followed by the
aggregator's unpack).  For the RMA shuffles — whose completion is a
collective synchronization, not a request — the write wait precedes the
shuffle synchronization, preserving the algorithm's "everything posted
before anything waited" structure.

::

    shuffle(p1)
    for i = 1 .. NumberOfCycles:
        write_init(p1)
        shuffle_init(p2)      # empty once past the last cycle
        wait_all(p1, p2)
        swap(p1, p2)
"""

from __future__ import annotations

from repro.collio.context import AlgoContext
from repro.collio.overlap.base import OverlapAlgorithm

__all__ = ["WriteCommOverlap"]


class WriteCommOverlap(OverlapAlgorithm):
    name = "write_comm"
    nsub = 2
    uses_async_write = True

    def run(self, ctx: AlgoContext, shuffle):
        ncycles = ctx.plan.num_cycles
        if ncycles == 0:
            return
        yield from ctx.planning_tick()
        yield from shuffle.blocking(ctx, 0)
        for cycle in range(1, ncycles + 1):
            with ctx.iteration(cycle - 1):
                yield from ctx.planning_tick()
                write_req = yield from ctx.write_init(cycle - 1)
                handle = None
                if cycle < ncycles:
                    handle = yield from shuffle.init(ctx, cycle)
                # wait_all(p1, p2)
                if handle is not None and shuffle.combinable:
                    requests = list(handle.requests)
                    if write_req is not None:
                        requests.append(write_req)
                    wait_span = None
                    if ctx.recorder.active:
                        wait_span = ctx.recorder.begin(
                            ctx.mpi.now, "wait_all", "comm.call",
                            rank=ctx.rank, cycle=cycle,
                        )
                    if requests:
                        yield from ctx.mpi.waitall(requests)
                    yield from shuffle.finish(ctx, handle)
                    ctx.recorder.end(wait_span, ctx.mpi.now)
                    if write_req is not None:
                        write_req.settle(ctx.recorder, ctx.mpi.now)
                else:
                    yield from ctx.write_wait(write_req)
                    if handle is not None:
                        yield from shuffle.wait(ctx, handle)

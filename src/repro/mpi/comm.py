"""The per-rank MPI API (communicator facade).

Every potentially time-consuming call is a **generator** to be driven with
``yield from`` inside a rank's program; this is how the simulation charges
CPU time and opens *progress windows* (see :mod:`repro.mpi.runtime`):

* all methods here charge the cluster's ``mpi_call_overhead`` and hold a
  progress window for their duration — in particular, a rank blocked in
  :meth:`wait`/:meth:`waitall`/:meth:`barrier` keeps driving pending
  protocol work, exactly like a real MPI library spinning in its progress
  engine;
* :meth:`compute` models application CPU time — **no** MPI progress.

Example rank program::

    def program(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, tag=7, data=buf)
            yield from mpi.wait(req)
        elif mpi.rank == 1:
            req = yield from mpi.irecv(0, tag=7, buffer=out)
            yield from mpi.wait(req)
        yield from mpi.barrier()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import MPIError
from repro.mpi.request import Request
from repro.payload import Sized, as_payload
from repro.sim.primitives import all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

__all__ = ["Communicator"]


class Communicator:
    """MPI world communicator as seen by one rank."""

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self._runtime = world.runtime(rank)
        self._spec = world.cluster.spec
        self._coll_seq = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.nprocs

    @property
    def engine(self):
        return self.world.engine

    @property
    def now(self) -> float:
        return self.world.engine.now

    @property
    def node(self) -> int:
        return self._runtime.node

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        tag: int,
        data: np.ndarray | bytes | Sized,
        context: str = "pt2pt",
        readonly: bool = False,
        checksum: int | None = None,
        piece_checksums: tuple | None = None,
    ):
        """Non-blocking send.  ``yield from``; returns a :class:`Request`.

        ``data`` is the payload: real bytes, or a
        :class:`~repro.payload.Sized` descriptor (same timing, no bytes).
        ``readonly=True`` promises the payload buffer is not mutated until
        the message has fully arrived; the eager path then keeps a
        reference instead of its buffered-semantics snapshot (zero-copy).
        The collective-write hot path sends views of frozen rank data and
        single-use pack buffers, so it opts in.

        ``checksum``/``piece_checksums`` let a producer that already
        holds the payload's CRC-32 (and per-piece CRCs) ship it with the
        message instead of having the runtime recompute it at post time.
        """
        payload = as_payload(data)
        self._check_peer(dest)
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            op = rt.start_send(
                dest, tag, payload, context, readonly=readonly,
                checksum=checksum, piece_checksums=piece_checksums,
            )
        finally:
            rt.exit_progress()
        return Request(op.event, "send", op)

    def irecv(
        self,
        source: int,
        tag: int,
        buffer: np.ndarray | Sized,
        context: str = "pt2pt",
    ):
        """Non-blocking receive into ``buffer`` (a ``uint8`` array, or a
        :class:`~repro.payload.Sized` descriptor).  ``yield from``; returns a
        :class:`Request`.  A longer message fails the request.

        Posting pays the unexpected-queue scan cost — the longer the
        receiver's backlog, the more expensive this call (paper, III-B1).
        """
        if buffer.dtype != np.uint8:
            raise MPIError(f"receive buffer must be uint8, got {buffer.dtype}")
        self._check_peer(source)
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead + rt.match_cost())
            op = rt.post_recv(source, tag, buffer, context)
        finally:
            rt.exit_progress()
        return Request(op.event, "recv", op)

    def wait(self, request: Request):
        """Block (with progress) until ``request`` completes."""
        yield from self.waitall([request])

    def waitall(self, requests: Sequence[Request]):
        """Block (with progress) until every request completes."""
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            yield all_of(self.engine, [r.event for r in requests])
        finally:
            rt.exit_progress()

    def send(
        self, dest: int, tag: int, data, context: str = "pt2pt",
        readonly: bool = False, checksum: int | None = None,
        piece_checksums: tuple | None = None,
    ):
        """Blocking send (isend + wait)."""
        req = yield from self.isend(
            dest, tag, data, context=context, readonly=readonly,
            checksum=checksum, piece_checksums=piece_checksums,
        )
        yield from self.wait(req)

    def recv(
        self,
        source: int,
        tag: int,
        buffer: np.ndarray | Sized,
        context: str = "pt2pt",
    ):
        """Blocking receive (irecv + wait); returns the buffer."""
        req = yield from self.irecv(source, tag, buffer, context=context)
        yield from self.wait(req)
        return buffer

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.world.nprocs):
            raise MPIError(f"peer rank {peer} out of range [0, {self.world.nprocs})")

    # ------------------------------------------------------------------
    # Collectives (analytic; see repro.mpi.collops)
    # ------------------------------------------------------------------
    def _collective(self, kind: str, payload=None, nbytes: int = 0, root=None):
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            self._coll_seq += 1
            evt = self.world.coll.enter(
                self._coll_seq, kind, self.rank, payload=payload, nbytes=nbytes, root=root
            )
            result = yield evt
        finally:
            rt.exit_progress()
        return result

    def barrier(self):
        """Synchronize all ranks (dissemination-cost model)."""
        yield from self._collective("barrier")

    def bcast(self, obj: Any = None, root: int = 0, nbytes: int = 0):
        """Broadcast ``obj`` from ``root``; returns the root's object."""
        result = yield from self._collective("bcast", payload=obj, nbytes=nbytes, root=root)
        return result

    def allgather(self, obj: Any, nbytes: int):
        """All-gather Python objects; returns the list ordered by rank."""
        result = yield from self._collective("allgather", payload=obj, nbytes=nbytes)
        return result

    def allreduce_sum(self, value: Any, nbytes: int = 8):
        result = yield from self._collective("allreduce_sum", payload=value, nbytes=nbytes)
        return result

    def allreduce_max(self, value: Any, nbytes: int = 8):
        result = yield from self._collective("allreduce_max", payload=value, nbytes=nbytes)
        return result

    # ------------------------------------------------------------------
    # One-sided communication
    # ------------------------------------------------------------------
    def win_allocate(self, size: int, like=None):
        """Collectively create an RMA window (``size`` bytes on this rank).

        ``like`` is a payload the memory is modelled on: a
        :class:`~repro.payload.Sized` descriptor exposes size-only memory.
        Returns this rank's :class:`~repro.mpi.window.WindowHandle`.
        """
        rt = self._runtime
        rt.enter_progress()
        try:
            yield self.engine.timeout(self._spec.mpi_call_overhead)
            self._coll_seq += 1
            win_id = self._coll_seq
            handle = self.world.window_registry.attach(win_id, self.rank, int(size), like)
            evt = self.world.coll.enter(win_id, "win_allocate", self.rank, nbytes=int(size))
            yield evt
        finally:
            rt.exit_progress()
        return handle

    # ------------------------------------------------------------------
    # Non-MPI time
    # ------------------------------------------------------------------
    def compute(self, seconds: float):
        """Application CPU time: the rank makes **no** MPI progress."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds:
            yield self.engine.timeout(seconds)

    def io_wait(self, event, setup_cost: float = 0.0):
        """Block in a non-MPI system call (e.g. a POSIX write).

        The rank makes **no** MPI progress while waiting — the mechanism
        that starves Comm-Overlap's background rendezvous traffic during
        blocking file writes.
        """
        if setup_cost:
            yield self.engine.timeout(setup_cost)
        result = yield event
        return result

    # ------------------------------------------------------------------
    # MPI-IO
    # ------------------------------------------------------------------
    def file_open(self, path: str):
        """Collectively open ``path``; returns this rank's MPI-IO handle."""
        from repro.mpi.mpiio import MPIFile  # local import to avoid a cycle

        yield from self.barrier()
        return MPIFile(self, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self.rank}/{self.size}>"

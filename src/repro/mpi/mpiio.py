"""MPI-IO file handles over the simulated parallel file system.

Two write paths matter to the paper:

* :meth:`MPIFile.write_at` — the blocking POSIX-style path.  The rank is
  stuck in the system call: **no MPI progress** (rendezvous handshakes
  addressed to it stall until it returns).
* :meth:`MPIFile.iwrite_at` — the ``aio_write``/``MPI_File_iwrite`` path.
  The request is handed to the OS's aio engine and progresses in the
  background regardless of what the rank does; completion is consumed
  with the communicator's ``wait`` (which *is* an MPI call and therefore
  also drives communication progress while blocked).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import WriteTimeoutError
from repro.mpi.request import Request
from repro.payload import Sized, as_payload
from repro.sim.primitives import any_of, defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator

__all__ = ["MPIFile", "PostedWrite"]


class PostedWrite(Request):
    """A posted write's handle (:meth:`MPIFile.iwrite_at`, a sink's ``post``).

    Besides completion it carries what the rank owes the write once it
    sees that completion: the ``io`` span to close and the sink's
    durability callback (None for a staged write: its drain fires it).
    """

    __slots__ = ("span", "durable")

    def __init__(self, event, detail=None) -> None:
        super().__init__(event, "iwrite", detail)
        self.span = None
        self.durable = None

    def settle(self, recorder, now: float) -> None:
        """The rank saw this write complete (no simulated cost): close its
        ``io`` span, then declare it durable."""
        if self.span is not None:
            # The aio/retry layers succeed the event with the true
            # completion timestamp; close the serviced interval there, not
            # at the (possibly later) moment this rank got around to waiting.
            value = self.event.value if self.event.triggered else None
            done_at = value if isinstance(value, (int, float)) else now
            recorder.end(self.span, min(float(done_at), now))
        if self.durable is not None:
            self.durable()


class MPIFile:
    """One rank's handle on a shared file (open via ``comm.file_open``).

    Every write and read takes one payload: real bytes (stored, or
    filled in place), or a :class:`~repro.payload.Sized` descriptor for
    size-only timing runs.
    """

    def __init__(self, comm: "Communicator", path: str) -> None:
        self.comm = comm
        self.path = path
        world = comm.world
        self.pfs = world.pfs
        self.file = world.pfs.open(path)
        self.aio = world.aio_engine(comm.rank)
        self._view = None  # set by set_view; used by write_all/read_all
        self._coll_count = 0
        # Accounting (per handle, i.e. per rank).
        self.bytes_written = 0
        self.sync_writes = 0
        self.async_writes = 0

    def write_at(
        self,
        offset: int,
        data: np.ndarray | Sized,
        timeout: float | None = None,
        checksum: int | None = None,
    ):
        """Blocking write; the rank makes no MPI progress while it runs.

        ``timeout`` bounds the wait in simulated seconds: on expiry the
        in-flight request is abandoned (it may still land its bytes later
        — harmless, writes are idempotent) and
        :class:`~repro.errors.WriteTimeoutError` is raised.

        ``checksum`` is the extent's producer-side CRC-32, forwarded to
        the file system's read-back verify (see
        :meth:`repro.fs.pfs.ParallelFileSystem.write`).
        """
        view = as_payload(data)
        self.bytes_written += len(view)
        self.sync_writes += 1
        done = self.pfs.write(self.file, offset, view, checksum=checksum)
        if timeout is None:
            yield from self.comm.io_wait(done, setup_cost=self.pfs.spec.client_overhead)
            return
        engine = self.comm.world.engine
        race = any_of(engine, [done, engine.timeout(timeout)])
        yield from self.comm.io_wait(race, setup_cost=self.pfs.spec.client_overhead)
        if not done.triggered:
            defuse(done)
            raise WriteTimeoutError(
                f"write at offset {offset} timed out after {timeout}s"
            )

    def iwrite_at(
        self,
        offset: int,
        data: np.ndarray | Sized,
        checksum: int | None = None,
    ):
        """Asynchronous write; returns a :class:`PostedWrite` immediately.

        The posting cost is an MPI call (progress window); the I/O itself
        is progressed by the simulated OS.
        """
        view = as_payload(data)
        self.bytes_written += len(view)
        self.async_writes += 1
        req = yield from self.posting(
            lambda: self.aio.submit(self.file, offset, view, checksum=checksum)
        )
        return PostedWrite(req.event, req)

    def posting(self, submit):
        """Return ``submit()`` run inside a posting call (generator): the MPI
        call and client overhead every posted file operation pays."""
        world = self.comm.world
        rt = world.runtime(self.comm.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(
                world.cluster.spec.mpi_call_overhead + self.pfs.spec.client_overhead
            )
            return submit()
        finally:
            rt.exit_progress()

    def read_at(self, offset: int, dest: np.ndarray | Sized):
        """Blocking read of ``len(dest)`` bytes into ``dest`` (zeros past EOF)."""
        done = self.pfs.read(self.file, offset, dest)
        yield from self.comm.io_wait(done, setup_cost=self.pfs.spec.client_overhead)

    def iread_at(self, offset: int, dest: np.ndarray | Sized):
        """Asynchronous read into ``dest``; returns a :class:`Request`.

        ``dest`` is filled once the request completes (wait on it with
        the communicator's ``wait``, which also drives MPI progress).
        """
        req = yield from self.posting(lambda: self.aio.submit_read(self.file, offset, dest))
        return Request(req.event, "iread", req)

    # ------------------------------------------------------------------
    # Collective I/O (MPI_File_set_view + Write_all / Read_all)
    # ------------------------------------------------------------------
    def set_view(self, datatype=None, disp: int = 0, count: int = 1, view=None) -> None:
        """Declare this rank's file view for collective I/O.

        Pass either an MPI :class:`~repro.mpi.datatypes.Datatype` (with a
        file displacement and replication count, like
        ``MPI_File_set_view`` + an element count) or a ready
        :class:`~repro.collio.view.FileView`.
        """
        from repro.collio.view import FileView

        if view is not None:
            self._view = view
        elif datatype is not None:
            self._view = FileView.from_datatype(datatype, disp=disp, count=count)
        else:
            raise ValueError("set_view needs a datatype or a FileView")

    def _collective(self, direction, data, algorithm: str, shuffle: str, config):
        """The one body of ``write_all`` / ``read_all``; ``direction`` is
        :data:`repro.collio.api.WRITE` or :data:`repro.collio.read.READ`."""
        from repro.collio.api import WRITE, build_plan, collective_write
        from repro.collio.config import CollectiveConfig

        if self._view is None:
            raise ValueError(f"{direction.name}_all requires a prior set_view()")
        config = config or CollectiveConfig()
        view = self._view
        # Real collective metadata exchange: every rank contributes its
        # view; the gathered result lets each rank derive the same plan.
        gathered = yield from self.comm.allgather(
            view, nbytes=view.num_extents * config.meta_bytes_per_extent
        )
        cycle_bytes = direction.algorithm(algorithm).cycle_bytes(config.cb_buffer_size)
        # Reads force single-layer: the scatter direction has no gather stage.
        two_layer = config.two_layer if direction is WRITE else False
        world = self.comm.world
        self._coll_count += 1
        key = (self.path, self._coll_count, cycle_bytes, config.cb_buffer_size, two_layer)
        plan = world.plan_cache.get(key)
        if plan is None:
            plan = world.plan_cache[key] = build_plan(
                world.cluster, world.nprocs, dict(enumerate(gathered)), config,
                cycle_bytes, stripe_size=self.pfs.spec.stripe_size, two_layer=two_layer,
            )
        stats = yield from collective_write(
            self.comm, self, view, data, plan,
            algorithm=algorithm, shuffle=shuffle, config=config,
            exchange_metadata=False, direction=direction,
        )
        return stats

    def write_all(
        self,
        data: np.ndarray | Sized,
        algorithm: str = "write_overlap",
        shuffle: str = "two_sided",
        config=None,
    ):
        """Collective write through the declared view (``MPI_File_write_all``).

        Every rank must call this with its own data after ``set_view``
        (a :class:`~repro.payload.Sized` for a size-only run).  Returns
        the rank's phase statistics.
        """
        from repro.collio.api import WRITE

        return self._collective(WRITE, data, algorithm, shuffle, config)

    def read_all(
        self,
        out: np.ndarray | Sized,
        algorithm: str = "read_ahead",
        scatter: str = "two_sided",
        config=None,
    ):
        """Collective read through the declared view (``MPI_File_read_all``).

        Fills ``out`` (a :class:`~repro.payload.Sized` runs size-only);
        returns the rank's phase statistics.
        """
        from repro.collio.read import READ

        return self._collective(READ, out, algorithm, scatter, config)

    @property
    def size(self) -> int:
        return self.file.size

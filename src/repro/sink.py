"""The one write sink: how an aggregator's cycle extent reaches storage.

The overlap algorithms use two file-access verbs, a blocking write and a
posted one (``aio_write`` / ``MPI_File_iwrite``), the way ompio's fcoll
component calls whatever fbtl sits beneath it.  A sink is that layer for
one rank, chosen once by :class:`~repro.collio.context.AlgoContext`: this
plain :class:`WriteSink` over the rank's :class:`~repro.mpi.mpiio.MPIFile`,
:class:`~repro.faults.retry.RetryingSink` (a retry policy around both
verbs) or :class:`~repro.staging.tier.StagedSink` (absorb into the node's
burst buffer).  Every sink fires one callback, ``on_durable(token)``,
exactly once per extent: when a blocking direct write returns, when the
rank settles a posted direct write
(:meth:`~repro.mpi.mpiio.PostedWrite.settle`), and when the drain lands a
staged one.  ``token`` is what the caller passed with the extent.
"""

from __future__ import annotations

from functools import partial

__all__ = ["WriteSink"]


def _ignore(token) -> None:
    """The default ``on_durable``: nobody tracks durability."""


class WriteSink:
    """The plain sink: direct writes through one rank's MPI-IO handle.

    Subclasses change how the bytes travel (:meth:`_write`, :meth:`_post`)
    or which event means durable, never how often ``on_durable`` fires.
    """

    def __init__(self, fh, on_durable=None) -> None:
        self.fh = fh
        self.on_durable = on_durable or _ignore

    def write(self, offset: int, data, cycle: int = -1, checksum=None, token=None):
        """Blocking write of one extent (generator); durable once it returns.
        ``checksum`` is its carried CRC-32; ``cycle`` labels its spans."""
        yield from self._write(offset, data, checksum)
        self.on_durable(token)

    def post(self, offset: int, data, cycle: int = -1, checksum=None, token=None):
        """Post one extent's write (generator); returns the
        :class:`~repro.mpi.mpiio.PostedWrite`, durable once settled."""
        handle = yield from self._post(offset, data, checksum)
        handle.durable = partial(self.on_durable, token)
        return handle

    def flush(self):
        """An event for "everything written is durable", or None if waits did."""
        return None

    def _write(self, offset: int, data, checksum):
        return self.fh.write_at(offset, data, checksum=checksum)

    def _post(self, offset: int, data, checksum):
        return self.fh.iwrite_at(offset, data, checksum=checksum)

"""Asynchronous I/O engine (the simulated OS's aio threads).

``aio_write``-style requests are progressed by the operating system, not by
the issuing process — so they advance even while the process is busy
computing or blocked in a non-MPI call.  This independence is what makes
the paper's Write-Overlap family effective, and its *absence* on systems
with poor aio support (the paper's Lustre note) is modelled by
``FsSpec.aio_slots`` (limiting concurrently progressing requests per
client) and ``FsSpec.aio_extra_overhead`` (per-request setup penalty).
"""

from __future__ import annotations

from repro.errors import AioSubmitError, FileSystemError
from repro.sim.engine import Engine, Event
from repro.sim.resources import FifoResource
from repro.sim.trace import Recorder
from repro.fs.file import SimFile
from repro.fs.pfs import ParallelFileSystem

__all__ = ["AioEngine", "AioRequest"]


class AioRequest:
    """Handle for one in-flight asynchronous write."""

    __slots__ = ("event", "offset", "size", "issued_at")

    def __init__(self, event: Event, offset: int, size: int, issued_at: float) -> None:
        self.event = event
        self.offset = offset
        self.size = size
        self.issued_at = issued_at

    @property
    def done(self) -> bool:
        return self.event.triggered


class AioEngine:
    """Per-client asynchronous-I/O context.

    Each simulated process (rank) that issues asynchronous writes owns one
    ``AioEngine``; the slot limit is per client, matching per-process aio
    queue depth limits.
    """

    def __init__(
        self,
        engine: Engine,
        pfs: ParallelFileSystem,
        client: int = 0,
        injector=None,
        recorder: Recorder | None = None,
    ) -> None:
        self.engine = engine
        self.pfs = pfs
        self.client = client
        self.injector = injector
        self.recorder = recorder if recorder is not None else Recorder()
        spec = pfs.spec
        self._slots = (
            FifoResource(engine, capacity=spec.aio_slots) if spec.aio_slots is not None else None
        )
        self._extra = spec.aio_extra_overhead
        self.requests_issued = 0
        self.submits_refused = 0

    def submit(
        self,
        file: SimFile,
        offset: int,
        data,
        checksum: int | None = None,
    ) -> AioRequest:
        """Issue an asynchronous write of payload ``data``; returns at once.

        The write is progressed by the simulated OS: it queues for an aio
        slot (if limited), pays the per-request aio overhead, then runs the
        striped write.  The caller's buffer must stay stable until the
        request's event fires (see :class:`ParallelFileSystem.write`).
        A :class:`~repro.payload.Sized` ``data`` has the same timing and
        stores no bytes.

        Raises :class:`~repro.errors.AioSubmitError` when the fault
        injector refuses the submission (EAGAIN-style); callers fall back
        to the synchronous path (see :mod:`repro.faults.retry`).
        """
        if self.injector is not None and self.injector.aio_submit_fails(self.client):
            self.submits_refused += 1
            raise AioSubmitError(
                f"injected aio submission failure on client {self.client}"
            )
        nbytes = len(data)
        self.requests_issued += 1
        done = self.engine.event()
        req = AioRequest(done, offset, nbytes, self.engine.now)
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "aio.write", "io.aio", rank=self.client,
                flow="async", offset=offset, bytes=nbytes,
            )
        if span is not None:
            done.callbacks.append(lambda evt, _s=span: self.recorder.end(_s, evt.engine.now))
        self.engine.process(
            self._drive(file, offset, data, done, checksum), name=f"aio@{offset}"
        )
        return req

    def submit_read(self, file: SimFile, offset: int, dest) -> AioRequest:
        """Issue an asynchronous read into ``dest``; returns a handle.

        ``dest`` is filled in place when the read lands (before the
        handle's event fires).  Reads share the same aio slot limits and
        quality knobs as writes.
        """
        self.requests_issued += 1
        done = self.engine.event()
        size = len(dest)
        req = AioRequest(done, offset, size, self.engine.now)
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "aio.read", "io.aio", rank=self.client,
                flow="async", offset=offset, bytes=size,
            )
        if span is not None:
            done.callbacks.append(lambda evt, _s=span: self.recorder.end(_s, evt.engine.now))
        self.engine.process(self._drive_read(file, offset, dest, done), name=f"aior@{offset}")
        return req

    def _drive_read(self, file: SimFile, offset: int, dest, done: Event):
        if self._slots is not None:
            yield self._slots.request()
        try:
            if self._extra:
                yield self.engine.timeout(self._extra)
            started = self.engine.now
            yield self.pfs.read(file, offset, dest)
            factor = self.pfs.spec.aio_throughput_factor
            if factor < 1.0:
                elapsed = self.engine.now - started
                yield self.engine.timeout(elapsed * (1.0 / factor - 1.0))
        finally:
            if self._slots is not None:
                self._slots.release()
        done.succeed(self.engine.now)

    def _drive(self, file: SimFile, offset: int, data, done: Event,
               checksum: int | None = None):
        if self._slots is not None:
            yield self._slots.request()
        try:
            if self._extra:
                yield self.engine.timeout(self._extra)
            started = self.engine.now
            try:
                yield self.pfs.write(file, offset, data, checksum=checksum)
            except FileSystemError as exc:
                # Surface the storage failure through the request handle
                # (aio_error semantics) instead of killing the driver.
                done.fail(exc)
                return
            factor = self.pfs.spec.aio_throughput_factor
            if factor < 1.0:
                # Client-side aio slowness (e.g. Lustre lock handling): the
                # request takes 1/factor as long end-to-end, without
                # occupying the storage targets for the extra time.
                elapsed = self.engine.now - started
                yield self.engine.timeout(elapsed * (1.0 / factor - 1.0))
        finally:
            if self._slots is not None:
                self._slots.release()
        done.succeed(self.engine.now)

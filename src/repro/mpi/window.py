"""One-sided communication: RMA windows, Put, fence and lock synchronization.

Model summary (and how it carries the paper's physics):

* ``put`` costs the origin a small fixed overhead and moves the data over
  the fabric with **no target-side CPU or progress** — the RDMA advantage
  over two-sided messaging (no matching, no unexpected queue).
* ``fence`` (active target) is collective: each rank first completes its
  own outstanding puts, then joins a barrier.  Its cost is what usually
  erases the Put advantage (paper, Fig. 4).
* ``lock``/``unlock`` (passive target) pay a round-trip per origin-target
  pair plus FIFO queueing on the target's lock state;
  ``MPI_LOCK_SHARED`` allows concurrent holders (the paper's choice for
  the shuffle, since writers touch disjoint bytes), exclusive serializes.
  Target-side completion knowledge still requires an ``MPI_Barrier`` in
  the calling algorithm, exactly as the paper describes.

Window memory is byte-accurate: puts land in real numpy buffers (or in
:class:`~repro.payload.Sized` descriptors in size-only runs, where no byte
moves).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import CorruptDataError, RMAError
from repro.integrity.checksum import ChecksumLedger
from repro.integrity.layer import Verdict
from repro.mpi.message import MESSAGE_HEADER_SIZE
from repro.payload import as_payload, flip, place, zeros
from repro.sim.engine import Event
from repro.sim.primitives import all_of, defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.mpi.world import World

__all__ = ["Window", "WindowHandle", "WindowRegistry"]


class _TargetLock:
    """FIFO readers-writer lock guarding one rank's window exposure."""

    def __init__(self, world: "World") -> None:
        self._world = world
        self._active_shared = 0
        self._active_exclusive = False
        self._queue: deque[tuple[bool, Event]] = deque()

    def acquire(self, exclusive: bool) -> Event:
        grant = self._world.engine.event()
        if not self._queue and self._compatible(exclusive):
            self._admit(exclusive, grant)
        else:
            self._queue.append((exclusive, grant))
        return grant

    def _compatible(self, exclusive: bool) -> bool:
        if self._active_exclusive:
            return False
        return not (exclusive and self._active_shared > 0)

    def _admit(self, exclusive: bool, grant: Event) -> None:
        if exclusive:
            self._active_exclusive = True
        else:
            self._active_shared += 1
        grant.succeed(None)

    def release(self, exclusive: bool) -> None:
        if exclusive:
            if not self._active_exclusive:
                raise RMAError("exclusive unlock without a held exclusive lock")
            self._active_exclusive = False
        else:
            if self._active_shared <= 0:
                raise RMAError("shared unlock without a held shared lock")
            self._active_shared -= 1
        while self._queue and self._compatible(self._queue[0][0]):
            exclusive_next, grant = self._queue.popleft()
            self._admit(exclusive_next, grant)

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class Window:
    """Shared state of one RMA window across all ranks."""

    def __init__(self, world: "World", win_id: int, sizes: dict[int, int]) -> None:
        self.world = world
        self.win_id = win_id
        self.sizes = sizes
        #: Exposed memory of every rank with a nonzero window.
        self.buffers: dict = {}
        #: outstanding put completion events: (origin, target) -> [Event]
        self._outstanding: dict[tuple[int, int], list[Event]] = {}
        self.locks: dict[int, _TargetLock] = {}
        self.puts_issued = 0
        self.gets_issued = 0
        #: Per-target ledgers of landed-and-verified put CRCs, keyed by
        #: absolute file offset (carried via ``put``'s ``file_offset``).
        #: The target's aggregator combines them at extent-record time so
        #: the cycle buffer never needs a fresh checksum pass.
        self.ledgers: dict[int, ChecksumLedger] = {}

    def ledger(self, target: int) -> ChecksumLedger:
        led = self.ledgers.get(target)
        if led is None:
            led = ChecksumLedger()
            self.ledgers[target] = led
        return led

    def buffer(self, rank: int):
        buf = self.buffers.get(rank)
        if buf is None:
            raise RMAError(f"rank {rank} exposes a zero-size window")
        return buf

    def lock_state(self, target: int) -> _TargetLock:
        lock = self.locks.get(target)
        if lock is None:
            lock = _TargetLock(self.world)
            self.locks[target] = lock
        return lock

    def track(self, origin: int, target: int, event: Event) -> None:
        self._outstanding.setdefault((origin, target), []).append(event)

    def drain_events(self, origin: int, target: int | None = None) -> list[Event]:
        """Pop outstanding put events of ``origin`` (optionally one target)."""
        if target is not None:
            return self._outstanding.pop((origin, target), [])
        events: list[Event] = []
        for key in [k for k in self._outstanding if k[0] == origin]:
            events.extend(self._outstanding.pop(key))
        return events


class WindowHandle:
    """One rank's view of a window (the object ``win_allocate`` returns)."""

    def __init__(self, window: Window, comm: "Communicator") -> None:
        self.window = window
        self.comm = comm
        self.rank = comm.rank

    # -- local memory ------------------------------------------------------
    @property
    def local_buffer(self):
        """This rank's exposed memory (raises if size 0)."""
        return self.window.buffer(self.rank)

    @property
    def local_size(self) -> int:
        return self.window.sizes.get(self.rank, 0)

    # -- communication -----------------------------------------------------
    def put(
        self,
        target: int,
        data,
        target_offset: int,
        checksum: int | None = None,
        file_offset: int | None = None,
    ):
        """Non-blocking Put into ``target``'s window.  ``yield from``.

        Returns the completion :class:`~repro.sim.engine.Event` (also
        tracked in the window's epoch state for fence/unlock).  No
        target-side progress is needed; the bytes are sampled when the
        transfer completes (zero-copy semantics — keep the source buffer
        stable until the closing synchronization).  A
        :class:`~repro.payload.Sized` ``data`` has the same timing and
        lands no bytes.

        ``checksum`` is the piece's producer CRC-32 when the origin
        already holds it (skips the post-time byte pass); ``file_offset``
        is the piece's absolute file offset — when given, a verified
        landing files its CRC in the target's window ledger for the
        aggregator's extent record to combine.
        """
        world = self.comm.world
        spec = world.cluster.spec
        view = as_payload(data)
        nbytes = len(view)
        target_buf = self.window.buffer(target)
        if target_offset < 0 or target_offset + nbytes > target_buf.size:
            raise RMAError(
                f"put of {nbytes} bytes at offset {target_offset} exceeds "
                f"window of {target_buf.size} bytes on rank {target}"
            )
        rt = world.runtime(self.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(spec.mpi_call_overhead + spec.rma_put_overhead)
            fabric = world.cluster.fabric
            target_node = world.runtime(target).node
            transfer = fabric.transfer(rt.node, target_node, nbytes + MESSAGE_HEADER_SIZE)
            self.window.puts_issued += 1
            injector = world.faults
            integrity = world.integrity
            off = int(target_offset)
            landed = target_buf[off : off + nbytes]

            def land(_evt) -> None:
                place(landed, ((0, nbytes),), view)
                # Silent-corruption draw at landing.  The draw fires in
                # size-only mode too (schedule parity across modes); the
                # flip needs real bytes.  Corruption hits the *target*
                # window copy only — the origin buffer stays pristine, so
                # retransmission is a valid repair.
                if injector is not None:
                    pos = injector.message_corruption(target, nbytes)
                    if pos is not None:
                        flip(landed, pos)

            # The producer CRC the landing verifies (None without a layer,
            # or for a size-only payload: no bytes, nothing to checksum).
            crc32 = None if integrity is None else integrity.carried(view, checksum)
            if crc32 is None:
                transfer.callbacks.append(land)
                self.window.track(self.rank, target, transfer)
                completion = transfer
            else:
                # Verify-on-land: the put completes (for fence/unlock and
                # the caller) only once the landed bytes match the CRC
                # stamped at post time.  A mismatch in repair mode costs a
                # full retransmission over the fabric — RDMA-level retry,
                # no target-side CPU — with a fresh corruption draw per
                # attempt; in detect mode (or once attempts are spent) the
                # completion fails with CorruptDataError, which fence /
                # unlock / wait propagate to the calling rank.
                completion = world.engine.event()

                def verify_land(_evt, attempt: int = 0) -> None:
                    land(_evt)
                    verdict = integrity.verdict(
                        integrity.checksum(landed) == crc32, attempt, "retransmit"
                    )
                    if verdict is Verdict.OK:
                        if file_offset is not None:
                            self.window.ledger(target).file(file_offset, nbytes, crc32)
                        completion.succeed(world.engine.now)
                        return
                    if verdict is Verdict.REDO:
                        redo = fabric.transfer(
                            rt.node, target_node, nbytes + MESSAGE_HEADER_SIZE
                        )
                        redo.callbacks.append(lambda evt, a=attempt + 1: verify_land(evt, a))
                        return
                    # Defused: the failure belongs to whoever waits on the
                    # put (fence/unlock all_of, or the caller), and that
                    # wait may not be attached yet.
                    defuse(completion.fail(CorruptDataError(
                        f"put {self.rank}->{target} at window offset {off} "
                        f"({nbytes} bytes) failed checksum verification "
                        f"after {attempt + 1} delivery(s)"
                    )))

                transfer.callbacks.append(verify_land)
                self.window.track(self.rank, target, completion)
        finally:
            rt.exit_progress()
        return completion

    def get(
        self,
        target: int,
        local_buffer,
        target_offset: int,
    ):
        """Non-blocking Get from ``target``'s window.  ``yield from``.

        The mirror of :meth:`put`: bytes flow target -> origin with no
        target-side CPU; the local buffer is filled when the transfer
        completes.  Returns the completion event (tracked in the epoch
        state like puts, so fence/unlock flush it).  A
        :class:`~repro.payload.Sized` ``local_buffer`` receives no bytes.
        """
        world = self.comm.world
        spec = world.cluster.spec
        nbytes = len(local_buffer)
        target_buf = self.window.buffer(target)
        if target_offset < 0 or target_offset + nbytes > target_buf.size:
            raise RMAError(
                f"get of {nbytes} bytes at offset {target_offset} exceeds "
                f"window of {target_buf.size} bytes on rank {target}"
            )
        rt = world.runtime(self.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(spec.mpi_call_overhead + spec.rma_put_overhead)
            transfer = world.cluster.fabric.transfer(
                world.runtime(target).node,
                rt.node,
                nbytes + MESSAGE_HEADER_SIZE,
            )
            self.window.gets_issued += 1
            source = target_buf[int(target_offset) : int(target_offset) + nbytes]
            transfer.callbacks.append(
                lambda _evt: place(local_buffer, ((0, nbytes),), source)
            )
            self.window.track(self.rank, target, transfer)
        finally:
            rt.exit_progress()
        return transfer

    # -- active-target synchronization --------------------------------------
    def fence(self):
        """``MPI_Win_fence``: complete own puts, then a collective barrier."""
        world = self.comm.world
        rt = world.runtime(self.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(world.cluster.spec.mpi_call_overhead)
            own = self.window.drain_events(self.rank)
            if own:
                yield all_of(world.engine, own)
        finally:
            rt.exit_progress()
        yield from self.comm.barrier()

    # -- passive-target synchronization --------------------------------------
    def lock(self, target: int, exclusive: bool = False):
        """``MPI_Win_lock``: a round-trip to the target plus queueing.

        Lock arbitration is hardware-offloaded (RDMA atomics): it does
        **not** require target-side progress.
        """
        world = self.comm.world
        spec = world.cluster.spec
        rt = world.runtime(self.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(spec.mpi_call_overhead + spec.rma_lock_overhead)
            if world.runtime(target).node != rt.node:
                yield world.engine.timeout(2 * spec.network_latency)
            yield self.window.lock_state(target).acquire(exclusive)
        finally:
            rt.exit_progress()

    def unlock(self, target: int, exclusive: bool = False):
        """``MPI_Win_unlock``: flush puts to ``target``, release, round-trip."""
        world = self.comm.world
        spec = world.cluster.spec
        rt = world.runtime(self.rank)
        rt.enter_progress()
        try:
            yield world.engine.timeout(spec.mpi_call_overhead)
            pending = self.window.drain_events(self.rank, target)
            if pending:
                yield all_of(world.engine, pending)
            self.window.lock_state(target).release(exclusive)
            if world.runtime(target).node != rt.node:
                yield world.engine.timeout(2 * spec.network_latency)
        finally:
            rt.exit_progress()


class WindowRegistry:
    """Creates/joins shared :class:`Window` objects during ``win_allocate``."""

    def __init__(self, world: "World") -> None:
        self.world = world
        self._windows: dict[int, Window] = {}
        self._declared: dict[int, dict[int, int]] = {}

    def attach(self, win_id: int, rank: int, size: int, like=None) -> WindowHandle:
        """Join ``rank`` to window ``win_id`` with ``size`` bytes of memory
        modelled on ``like`` (see :meth:`Communicator.win_allocate`)."""
        sizes = self._declared.setdefault(win_id, {})
        if rank in sizes:
            raise RMAError(f"rank {rank} attached window {win_id} twice")
        sizes[rank] = size
        window = self._windows.get(win_id)
        if window is None:
            window = Window(self.world, win_id, sizes)
            self._windows[win_id] = window
        if size > 0:
            window.buffers[rank] = zeros(size, like=like)
        return WindowHandle(window, self.world.comm(rank))

    def close(self) -> None:
        """Release every window's exposed memory (the world is finished)."""
        for window in self._windows.values():
            window.buffers.clear()
            window.ledgers.clear()
        self._windows.clear()

"""Per-rank MPI library state: matching queues, progress, wire protocols.

This module is the mechanistic heart of the simulated MPI.  For every rank
it keeps the posted-receive and unexpected-message queues and drives the
eager and rendezvous protocols:

Eager (size < ``eager_threshold``)
    The payload is copied out of the user buffer and injected immediately
    (send completes locally).  On arrival it either completes a matching
    posted receive or is parked in the unexpected queue.  Posting a
    receive pays a scan cost proportional to the unexpected queue length —
    the effect the paper calls out for aggregators receiving from many
    processes.

Rendezvous (size >= threshold)
    The sender injects a small RTS.  Handling the RTS at the receiver
    (matching + CTS) and handling the CTS at the sender both require the
    respective rank to be *making progress* — i.e. inside an MPI call, or
    owning a progress thread.  Once the CTS is handled, the payload moves
    as an RDMA-style transfer needing no further CPU.  This is how a
    sender gets coupled to a busy aggregator ("slow down to the speed of
    the aggregator"), and why communication initiated before a blocking
    write does not complete *during* that write.

Matching is exact on ``(context, source, tag)``; wildcard receives are not
needed by the two-phase algorithm and are not provided.  Non-overtaking
order is guaranteed per key by FIFO queues (callers use distinct tags per
cycle, so eager/rendezvous interleaving on one key does not arise).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import CorruptDataError, MPIError, RankCrashError
from repro.integrity.layer import Verdict
from repro.mpi.message import (
    CONTROL_MESSAGE_SIZE,
    MESSAGE_HEADER_SIZE,
    MatchKey,
    Message,
    Protocol,
)
from repro.payload import flip, place, snapshot
from repro.sim.engine import Event
from repro.sim.primitives import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

__all__ = ["RankRuntime", "RecvOp", "SendOp"]


class SendOp:
    """Sender-side state of one message."""

    __slots__ = ("message", "event", "posted_at")

    def __init__(self, message: Message, event: Event, posted_at: float) -> None:
        self.message = message
        self.event = event
        self.posted_at = posted_at


class RecvOp:
    """Receiver-side state of one posted receive."""

    __slots__ = ("key", "size", "buffer", "event", "posted_at", "checksum", "piece_checksums")

    def __init__(self, key: MatchKey, buffer, event: Event, posted_at: float) -> None:
        self.key = key
        self.size = buffer.size
        self.buffer = buffer
        self.event = event
        self.posted_at = posted_at
        #: Carried message CRC / per-piece CRCs, stamped once the delivery
        #: verified them — the receiver-side end of checksum carrying.
        self.checksum: int | None = None
        self.piece_checksums: tuple | None = None

    def deliver_payload(self, payload) -> None:
        """Copy an arrived payload into the user buffer (byte-accurate)."""
        place(self.buffer, ((0, len(payload)),), payload)


class RankRuntime:
    """The MPI library instance of one rank."""

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.node = world.cluster.node_of_rank(rank)
        spec = world.cluster.spec
        self.eager_threshold = spec.eager_threshold
        self._progress_thread = spec.progress_thread
        self._progress_depth = 0
        self._on_progress: list[Callable[[], None]] = []
        self.posted: dict[MatchKey, deque[RecvOp]] = {}
        self.unexpected: dict[MatchKey, deque[Message]] = {}
        self.unexpected_total = 0
        self.recorder = world.cluster.recorder
        #: Set when an injected permanent fault killed this rank.
        self.crashed = False

    def close(self) -> None:
        """Drop what an aborted run left queued (the world is finished):
        posted receives, unexpected messages and deferred protocol steps
        all hold views of payloads and bounce buffers."""
        self.posted.clear()
        self.unexpected.clear()
        self._on_progress.clear()

    # ------------------------------------------------------------------
    # Crash delivery (permanent-fault hook)
    # ------------------------------------------------------------------
    def deliver_crash(self, process, when: float) -> bool:
        """Kill this rank's ``process`` at ``when`` (injected rank crash).

        The library marks itself crashed, counts a ``fault.rank_crash``
        and interrupts the rank generator with
        :class:`~repro.errors.RankCrashError`; the uncaught failure
        aborts the engine run, which the recovery layer treats as the
        survivors' timeout-based crash detection.  Returns False if the
        rank already finished.
        """
        if self.crashed or process.triggered:
            return False
        self.crashed = True
        self.recorder.inc("fault.rank_crash")
        return process.interrupt(RankCrashError(self.rank, when))

    # ------------------------------------------------------------------
    # Progress engine
    # ------------------------------------------------------------------
    @property
    def progress_active(self) -> bool:
        """True while this rank can advance pending MPI protocol work."""
        return self._progress_thread or self._progress_depth > 0

    def enter_progress(self) -> None:
        """Mark the rank as inside an MPI call; drains deferred work."""
        self._progress_depth += 1
        self._drain_progress_work()

    def exit_progress(self) -> None:
        if self._progress_depth <= 0:
            raise MPIError("exit_progress without matching enter_progress")
        self._progress_depth -= 1

    def _drain_progress_work(self) -> None:
        while self._on_progress:
            work, self._on_progress = self._on_progress, []
            for fn in work:
                fn()

    def when_progress(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` now if progressing, else at the next MPI call."""
        if self.progress_active:
            fn()
        else:
            self.recorder.inc("progress.deferred")
            self._on_progress.append(fn)

    # ------------------------------------------------------------------
    # Delivery (fault-injection hook)
    # ------------------------------------------------------------------
    def _deliver(self, transfer: Event, fn: Callable[[], None], control: bool = False) -> None:
        """Run ``fn`` when ``transfer`` completes, plus any injected delay.

        All wire arrivals handled by this rank's library route through
        here so the fault injector can jitter payload deliveries
        (``control=False``) and delay rendezvous handshakes
        (``control=True``).  Without an injector this is exactly
        ``transfer.callbacks.append(lambda _evt: fn())``.
        """
        injector = self.world.faults
        if injector is None:
            transfer.callbacks.append(lambda _evt: fn())
            return

        def arrive(_evt: Event) -> None:
            delay = (
                injector.rendezvous_delay(self.rank)
                if control
                else injector.message_delay(self.rank)
            )
            if delay > 0:
                late = self.world.engine.timeout(delay)
                late.callbacks.append(lambda _e: fn())
            else:
                fn()

        transfer.callbacks.append(arrive)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def start_send(
        self,
        dst: int,
        tag: int,
        payload,
        context: str,
        readonly: bool = False,
        checksum: int | None = None,
        piece_checksums: tuple | None = None,
    ) -> SendOp:
        """Initiate a message; returns the sender-side op (non-blocking).

        Called from inside an MPI call (the communicator charges call
        overhead and holds a progress window around this).

        ``checksum`` is the payload's CRC-32 when the caller already
        knows it (computed at the true producer, or combined from piece
        CRCs) — the byte pass here is skipped then.  ``piece_checksums``
        rides along as metadata for the receiver to file.
        """
        eng = self.world.engine
        event = eng.event()
        size = len(payload)
        protocol = Protocol.EAGER if size < self.eager_threshold else Protocol.RENDEZVOUS
        msg = Message(
            src=self.rank, dst=dst, tag=tag, context=context, size=size,
            payload=None, protocol=protocol,
        )
        # Producer-side checksum: stamped at post time, while the buffer
        # is contractually stable (eager snapshots or readonly; rendezvous
        # zero-copy requires stability until the data transfer anyway).
        # The receiver verifies it after delivery — the checksummed
        # datapath's first hop.
        integrity = self.world.integrity
        if integrity is not None:
            msg.checksum = integrity.carried(payload, checksum)
            msg.piece_checksums = piece_checksums
        op = SendOp(msg, event, eng.now)
        msg.sent = event
        dst_rt = self.world.runtime(dst)
        fabric = self.world.cluster.fabric
        self.recorder.inc(f"send.{protocol}")
        if protocol == Protocol.EAGER:
            # Buffered semantics: payload snapshot now, send completes
            # locally.  A ``readonly`` sender vouches the buffer stays
            # untouched until arrival, so the snapshot is skipped — the
            # receive side copies into the user buffer either way.  The
            # snapshot block comes from this node's buffer pool (released
            # at terminal delivery), so the hot path stops allocating.
            msg.payload = payload
            if not readonly:
                msg.payload = snapshot(payload, alloc=self.world.buffer_pool(self.node).take)
                msg.pooled = msg.payload is not payload
            transfer = fabric.transfer(self.node, dst_rt.node, size + MESSAGE_HEADER_SIZE)
            dst_rt._deliver(transfer, lambda: dst_rt._eager_arrived(msg))
            event.succeed(eng.now)
        else:
            # Keep a *reference*: the payload is sampled when the data
            # transfer completes, so reusing the buffer early corrupts data
            # (as it would in a real zero-copy rendezvous).
            msg.payload = payload
            rts = fabric.transfer(self.node, dst_rt.node, CONTROL_MESSAGE_SIZE)
            dst_rt._deliver(rts, lambda: dst_rt._rts_arrived(msg), control=True)
        return op

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def match_cost(self) -> float:
        """CPU cost of scanning the unexpected queue for one posted receive."""
        return self.unexpected_total * self.world.cluster.spec.match_cost_per_entry

    def post_recv(
        self,
        src: int,
        tag: int,
        buffer,
        context: str,
    ) -> RecvOp:
        """Post a receive; match against the unexpected queue first."""
        eng = self.world.engine
        key = MatchKey(context, src, tag)
        op = RecvOp(key, buffer, eng.event(), eng.now)
        queue = self.unexpected.get(key)
        if queue:
            msg = queue.popleft()
            if not queue:
                del self.unexpected[key]
            self.unexpected_total -= 1
            if msg.protocol == Protocol.EAGER:
                self._finish_recv(op, msg)
            else:
                # RTS was parked here; we are inside an MPI call, so the
                # CTS can go out immediately.
                self._send_cts(msg, op)
            return op
        self.posted.setdefault(key, deque()).append(op)
        return op

    # ------------------------------------------------------------------
    # Protocol internals (run in "library land", via event callbacks)
    # ------------------------------------------------------------------
    def _eager_arrived(self, msg: Message) -> None:
        """Eager payload fully at this rank: match or park.

        Eager delivery is modelled as not needing receiver progress
        (hardware tag-matching / firmware copies into the bounce buffer).
        """
        queue = self.posted.get(msg.key)
        if queue:
            op = queue.popleft()
            if not queue:
                del self.posted[msg.key]
            self._finish_recv(op, msg)
        else:
            msg.arrived = True
            self.unexpected.setdefault(msg.key, deque()).append(msg)
            self.unexpected_total += 1
            self.recorder.inc("recv.unexpected")

    def _rts_arrived(self, msg: Message) -> None:
        """Rendezvous RTS at the receiver: needs receiver progress."""
        self.when_progress(lambda: self._handle_rts(msg))

    def _handle_rts(self, msg: Message) -> None:
        queue = self.posted.get(msg.key)
        if queue:
            op = queue.popleft()
            if not queue:
                del self.posted[msg.key]
            self._send_cts(msg, op)
        else:
            self.unexpected.setdefault(msg.key, deque()).append(msg)
            self.unexpected_total += 1

    def _send_cts(self, msg: Message, op: RecvOp) -> None:
        """Receiver grants the transfer; sender handles CTS under progress."""
        fabric = self.world.cluster.fabric
        src_rt = self.world.runtime(msg.src)
        cts = fabric.transfer(self.node, src_rt.node, CONTROL_MESSAGE_SIZE)
        src_rt._deliver(
            cts,
            lambda: src_rt.when_progress(lambda: src_rt._start_rndv_data(msg, op)),
            control=True,
        )

    def _start_rndv_data(self, msg: Message, op: RecvOp) -> None:
        """Sender-side CTS handling: start the RDMA-style payload transfer."""
        fabric = self.world.cluster.fabric
        dst_rt = self.world.runtime(msg.dst)
        data = fabric.transfer(self.node, dst_rt.node, msg.size + MESSAGE_HEADER_SIZE)

        # Payload sampled at completion (zero-copy semantics); the recv
        # completes via the common delivery tail, which succeeds the
        # sender's event between payload delivery and the recv event —
        # the same ordering the pre-integrity code hard-coded here.
        dst_rt._deliver(
            data,
            lambda: dst_rt._finish_recv(op, msg, sender_event=msg.sent),
        )

    # ------------------------------------------------------------------
    # Common delivery tail: payload copy, corruption, verify, repair
    # ------------------------------------------------------------------
    def _release_payload(self, msg: Message) -> None:
        """Return an eager snapshot's pooled block at terminal delivery.

        Not before: the snapshot is the retransmission source, so repair
        attempts must still find it intact.
        """
        if msg.pooled:
            src_node = self.world.runtime(msg.src).node
            self.world.buffer_pool(src_node).release(msg.payload)
            msg.payload = None
            msg.pooled = False

    def _finish_recv(
        self,
        op: RecvOp,
        msg: Message,
        attempt: int = 0,
        sender_event: Event | None = None,
    ) -> None:
        """Complete one receive: deliver, (maybe) corrupt, verify, finish.

        The single tail shared by all three delivery sites — matched
        eager arrival, unexpected-queue match at post time, and
        rendezvous data completion (which passes ``sender_event`` so the
        sender's op succeeds between payload delivery and the recv
        event, preserving the historical ordering).  Without an injector
        or integrity layer this is exactly ``deliver_payload`` +
        ``succeed`` — no extra draws, no extra events.

        A message longer than the posted buffer fails the receive
        (``MPI_ERR_TRUNCATE``) before any byte lands.
        """
        if msg.size > op.size:
            self._fail_recv(op, msg, sender_event, MPIError(
                f"message {msg.src}->{msg.dst} (tag {msg.tag}) of {msg.size} bytes "
                f"truncated: the posted receive holds {op.size} bytes"
            ))
            return
        op.deliver_payload(msg.payload)
        injector = self.world.faults
        if injector is not None:
            # The flip hits the receiver-side copy only (the sender's
            # buffer stays pristine — retransmission repairs); the draw
            # itself fires in size-only mode too, so fault schedules are
            # identical whether or not payload bytes move.
            pos = injector.message_corruption(self.rank, msg.size)
            if pos is not None:
                flip(op.buffer, pos)
        integrity = self.world.integrity
        if integrity is not None and msg.checksum is not None:
            # The one unavoidable byte pass per network hop: the receiver
            # must prove the *landed* copy matches the carried CRC.
            verdict = integrity.verdict(
                integrity.checksum(op.buffer[: msg.size]) == msg.checksum,
                attempt, "retransmit",
                can_redo=not self.world.runtime(msg.src).crashed,
            )
            if verdict is Verdict.REDO:
                self._request_retransmit(op, msg, attempt, sender_event)
                return
            if verdict is Verdict.FAIL:
                self._fail_recv(op, msg, sender_event, CorruptDataError(
                    f"message {msg.src}->{msg.dst} (tag {msg.tag}) failed "
                    f"checksum verification after {attempt + 1} delivery(s)"
                ))
                return
            # Verified: the carried CRCs now describe the receiver's copy.
            op.checksum = msg.checksum
            op.piece_checksums = msg.piece_checksums
        now = self.world.engine.now
        if sender_event is not None:
            sender_event.succeed(now)
        self._release_payload(msg)
        op.event.succeed(now)

    def _fail_recv(self, op: RecvOp, msg: Message, sender_event: Event | None,
                   error: Exception) -> None:
        """Terminal failure of one receive; the sender's op still completes."""
        if sender_event is not None and not sender_event.triggered:
            sender_event.succeed(self.world.engine.now)
        self._release_payload(msg)
        # Defused: the failure is for the rank that waits on this recv,
        # not for the engine — the waiter may not have yielded on the
        # event yet (nonblocking irecv).
        defuse(op.event.fail(error))

    def _request_retransmit(
        self,
        op: RecvOp,
        msg: Message,
        attempt: int,
        sender_event: Event | None,
    ) -> None:
        """Repair a corrupted delivery by re-requesting it from the source.

        Models NIC-level NACK + retransmission (like a link-layer retry,
        so neither rank's CPU is involved): a control message travels
        back to the source, then the payload crosses the fabric again —
        re-read from the sender's still-pristine buffer — and re-enters
        the delivery tail with a fresh corruption draw.  The delivery
        tail's verdict bounds the attempts.
        """
        fabric = self.world.cluster.fabric
        src_rt = self.world.runtime(msg.src)

        def resend() -> None:
            if src_rt.crashed:
                # The source died while our NACK was in flight: the
                # pristine bytes are gone with it.  Fail the receive —
                # the recovery layer's re-election replays the extent
                # from the respawned rank's data.
                self._fail_recv(op, msg, sender_event, CorruptDataError(
                    f"message {msg.src}->{msg.dst} (tag {msg.tag}) corrupt "
                    f"and source rank {msg.src} is dead"
                ))
                return
            data = fabric.transfer(
                src_rt.node, self.node, msg.size + MESSAGE_HEADER_SIZE
            )
            self._deliver(
                data,
                lambda: self._finish_recv(
                    op, msg, attempt=attempt + 1, sender_event=sender_event
                ),
            )

        nack = fabric.transfer(self.node, src_rt.node, CONTROL_MESSAGE_SIZE)
        src_rt._deliver(nack, resend, control=True)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def pending_counts(self) -> dict[str, int]:
        """Posted/unexpected queue sizes (for tests and debugging)."""
        return {
            "posted": sum(len(q) for q in self.posted.values()),
            "unexpected": self.unexpected_total,
            "deferred_progress_work": len(self._on_progress),
        }

"""Per-rank execution context shared by all overlap algorithms.

An :class:`AlgoContext` packages what one rank needs while executing a
collective write or read: its communicator and file handle, the global
plan, its role (aggregator or not), the collective sub-buffers (plain
arrays for two-sided transfers, RMA windows for one-sided ones) and
phase timing.  The file-access steps come in both directions
(``write_*`` / ``read_*``) over the same buffers and plan slices.

Sub-buffer discipline: cycle ``c`` always uses sub-buffer ``c % nsub``
(equivalent to the paper's pointer swapping, but index-based so every rank
agrees without communication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.collio.config import CollectiveConfig
from repro.collio.plan import TwoPhasePlan
from repro.collio.view import FileView
from repro.errors import ConfigurationError, CorruptDataError
from repro.integrity.checksum import ChecksumLedger, crc32_concat, extent_checksum

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.mpi.mpiio import MPIFile
    from repro.mpi.window import WindowHandle

__all__ = ["AlgoContext", "PhaseStats"]


class _NullIteration:
    """Shared no-op context for cycle iterations when spans are off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_ITERATION = _NullIteration()


class _IterationSpan:
    """Closes a cycle's ``algo.cycle`` span at exit time."""

    __slots__ = ("_ctx", "_span")

    def __init__(self, ctx: "AlgoContext", span) -> None:
        self._ctx = ctx
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *exc) -> bool:
        ctx = self._ctx
        ctx.recorder.end(self._span, ctx.mpi.now)
        return False


@dataclass
class PhaseStats:
    """Accumulated per-phase wall time and counters for one rank."""

    times: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def add_time(self, phase: str, seconds: float) -> None:
        self.times[phase] = self.times.get(phase, 0.0) + seconds

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def time_in(self, phase: str) -> float:
        return self.times.get(phase, 0.0)


class AlgoContext:
    """One rank's working state during a collective write or read.

    ``data`` is the rank's own buffer under its view: the source of a
    write, the destination of a read (None in size-only mode).
    """

    def __init__(
        self,
        mpi: "Communicator",
        fh: "MPIFile",
        plan: TwoPhasePlan,
        view: FileView,
        data: np.ndarray,
        config: CollectiveConfig,
        nsub: int,
    ) -> None:
        if nsub not in (1, 2):
            raise ConfigurationError(f"nsub must be 1 or 2, got {nsub}")
        if data is not None:
            if data.dtype != np.uint8:
                raise ConfigurationError("local data must be uint8")
            # Replay views (recovery) keep original local offsets into the
            # full rank buffer, so require coverage rather than equality.
            if data.size < view.required_buffer_bytes:
                raise ConfigurationError(
                    f"local data has {data.size} bytes but the view needs "
                    f"{view.required_buffer_bytes}"
                )
        self.mpi = mpi
        self.fh = fh
        self.plan = plan
        self.view = view
        self.data = data
        self.config = config
        self.nsub = nsub
        self.rank = mpi.rank
        self.agg_index = plan.agg_index_of_rank.get(mpi.rank)
        self.stats = PhaseStats()
        #: The world's shared recorder; when ``active`` every
        #: write/shuffle step becomes a span (otherwise free no-ops).
        self.recorder = mpi.world.cluster.recorder
        #: Open "io" spans of posted-but-unwaited async writes, by handle id.
        self._write_spans: dict[int, object] = {}
        #: The recovery cycle journal, or None outside recovery runs.
        #: When set, aggregators record every cycle's extent + checksum
        #: once its write completes (the commit protocol); a successor
        #: tells committed cycles from torn ones by re-verifying.
        self.journal = mpi.world.journal
        #: Journal entries of posted-but-unwaited writes, by handle id.
        self._pending_commits: dict[int, tuple] = {}
        #: This node's burst-buffer drain scheduler when the run stages
        #: writes (see repro.staging), or None: aggregators then absorb
        #: into the node-local buffer instead of writing to the PFS, and
        #: journal commits defer to drain completion (durability point).
        tier = mpi.world.staging
        self.stager = (
            tier.scheduler_for_rank(self.rank)
            if tier is not None and self.is_aggregator
            else None
        )
        #: The world's integrity layer when the run checksums its
        #: datapath (see repro.integrity), or None: aggregators then
        #: record every cycle extent's CRC-32 before posting its write
        #: and carry it through staging and storage.
        self.integrity = mpi.world.integrity
        if config.retry is not None:
            from repro.faults.retry import ReliableWriter  # local: avoids a cycle

            self.writer = ReliableWriter(mpi, fh, config.retry)
        else:
            self.writer = None
        # Plain-array sub-buffers (two-sided shuffle); RMA windows replace
        # them for one-sided shuffles.
        self._buffers: list[np.ndarray] | None = None
        self._windows: list["WindowHandle"] | None = None
        # Two-layer staging: a leader's per-sub-buffer assembly area for
        # its node's coalesced cycle data (see repro.collio.intranode).
        self._staging: list[np.ndarray] | None = None
        #: Verified piece CRCs of two-sided deliveries and local copies,
        #: keyed by absolute file offset; the extent record combines them
        #: instead of re-checksumming the cycle buffer.  (The one-sided
        #: equivalent lives on the shared Window, filed at put landing.)
        self._ledger: ChecksumLedger | None = (
            ChecksumLedger() if self.integrity is not None else None
        )
        #: Per-staging-slot ledgers keyed by staging offset (two-layer
        #: leaders only): gather files verified member piece CRCs here,
        #: the forward shuffle combines them for its coalesced sends.
        #: Slot ``c % nsub``'s ledger is cleared when cycle ``c``'s
        #: gather refills the slot.
        self._staging_ledgers: list[ChecksumLedger] | None = None

    # ------------------------------------------------------------------
    @property
    def is_aggregator(self) -> bool:
        return self.agg_index is not None

    @property
    def carries_data(self) -> bool:
        """False in size-only timing mode (no payload bytes move)."""
        return self.data is not None

    @property
    def memory_bandwidth(self) -> float:
        return self.mpi.world.cluster.spec.memory_bandwidth

    def sub_of_cycle(self, cycle: int) -> int:
        return cycle % self.nsub

    # ------------------------------------------------------------------
    # Buffer / window setup
    # ------------------------------------------------------------------
    def allocate_buffers(self) -> None:
        """Plain collective sub-buffers (aggregators only hold real memory)."""
        size = self.plan.cycle_bytes
        if self.is_aggregator:
            self._buffers = [np.zeros(size, dtype=np.uint8) for _ in range(self.nsub)]
        else:
            self._buffers = []

    def allocate_windows(self):
        """Collectively create one RMA window per sub-buffer (paper III-B2).

        Window size is the sub-buffer size on aggregators and zero on
        non-aggregators, matching the paper's ``MPI_Win_allocate`` use.
        """
        size = self.plan.cycle_bytes if self.is_aggregator else 0
        windows = []
        for _ in range(self.nsub):
            win = yield from self.mpi.win_allocate(size)
            windows.append(win)
        self._windows = windows

    def allocate_staging(self) -> None:
        """Leader staging buffers for two-layer gather (no-op otherwise).

        One slot per sub-buffer: slot ``c % nsub`` is reused once cycle
        ``c``'s forward shuffle has been waited, the same reuse
        discipline the collective sub-buffers follow.
        """
        from repro.collio.plan import TwoLayerPlan  # local: avoids a cycle at import

        plan = self.plan
        if not isinstance(plan, TwoLayerPlan) or not plan.uses_staging(self.rank):
            return
        if not self.carries_data:
            return
        size = plan.staging_bytes(self.rank)
        self._staging = [np.zeros(size, dtype=np.uint8) for _ in range(self.nsub)]
        if self.integrity is not None:
            self._staging_ledgers = [ChecksumLedger() for _ in range(self.nsub)]

    def staging(self, sub: int) -> np.ndarray:
        if self._staging is None:
            raise ConfigurationError("staging not allocated on this rank")
        return self._staging[sub]

    def send_source(self, cycle: int) -> np.ndarray | None:
        """The array backing this rank's sends in ``cycle``.

        The user buffer normally; a leader's staging slot when the plan
        coalesces node-local data (its send assignments' local offsets
        then index staging).  None in size-only mode.
        """
        if self._staging is not None:
            return self._staging[self.sub_of_cycle(cycle)]
        return self.data

    def note_message(self, dest_rank: int, nbytes: int, stage: str = "shuffle") -> None:
        """Count one message by locality (inter- vs intra-node).

        ``stage`` is ``"shuffle"`` for the (leader-to-)aggregator
        transfer and ``"gather"`` for the intra-node pre-aggregation
        hop; the bench's message-count columns read these counters.
        """
        cluster = self.mpi.world.cluster
        local = cluster.node_of_rank(dest_rank) == cluster.node_of_rank(self.rank)
        self.stats.bump("messages_intra_node" if local else "messages_inter_node")
        if stage == "gather":
            self.stats.bump("gather_messages")
            self.stats.bump("gather_bytes", nbytes)

    def buffer(self, sub: int) -> np.ndarray:
        """The sub-buffer an aggregator assembles cycle data in."""
        if self._windows is not None:
            return self._windows[sub].local_buffer
        if self._buffers is None:
            raise ConfigurationError("buffers not allocated")
        if not self.is_aggregator:
            raise ConfigurationError("non-aggregators have no collective buffer")
        return self._buffers[sub]

    def window(self, sub: int) -> "WindowHandle":
        if self._windows is None:
            raise ConfigurationError("windows not allocated")
        return self._windows[sub]

    @property
    def uses_windows(self) -> bool:
        return self._windows is not None

    # ------------------------------------------------------------------
    # Checksum carrying (producer-side piece CRCs + verified-CRC ledgers)
    # ------------------------------------------------------------------
    def piece_checksums_for(self, cycle: int, sa, src: np.ndarray | None):
        """Per-piece ``(nbytes, crc)`` CRCs of a send assignment + whole CRC.

        This is the *producer* side of checksum carrying: each piece's
        bytes are checksummed exactly once, from the send source.  When
        the source is a leader's staging slot whose ledger already holds
        verified CRCs for the range (coalesced gather data), the piece
        CRC is combined from them without touching payload bytes.
        Returns ``(None, None)`` without an integrity layer or in
        size-only mode.
        """
        integrity = self.integrity
        if integrity is None or src is None:
            return None, None
        led = (
            self._staging_ledgers[self.sub_of_cycle(cycle)]
            if self._staging_ledgers is not None and self._staging is not None
            else None
        )
        pieces = []
        for _off, ln, loc in sa.pieces:
            crc = led.combine(loc, loc + ln) if led is not None else None
            if crc is None:
                crc = extent_checksum(src[loc : loc + ln])
                integrity.checksum_computed += 1
            else:
                integrity.checksum_reused += 1
            pieces.append((int(ln), crc))
        if len(pieces) == 1:
            whole = pieces[0][1]
        else:
            whole = crc32_concat(pieces)
            integrity.checksum_reused += 1
        return tuple(pieces), whole

    def file_cycle_checksums(self, sa, piece_checksums) -> None:
        """File verified piece CRCs under their absolute file offsets.

        Called by the two-sided unpack (with the CRCs carried in the
        delivered message) and for local copies (with the CRCs the
        producer just computed); the extent record pops them back out
        via :meth:`_carried_extent_crc`.
        """
        if self._ledger is None or piece_checksums is None:
            return
        for (off, ln, _loc), (_pn, crc) in zip(sa.pieces, piece_checksums):
            self._ledger.file(off, ln, crc)

    def _carried_extent_crc(self, cycle: int, offset: int, nbytes: int) -> int | None:
        """CRC of a cycle extent from verified delivery pieces, or None.

        None when the filed pieces do not tile the extent exactly — an
        interior hole means some written bytes were never delivered this
        cycle (stale buffer content), so the caller must checksum fresh.
        """
        if self._windows is not None:
            led = self._windows[self.sub_of_cycle(cycle)].window.ledgers.get(self.rank)
        else:
            led = self._ledger
        if led is None:
            return None
        return led.combine(offset, offset + nbytes, pop=True)

    def staging_ledger(self, cycle: int) -> ChecksumLedger | None:
        """The staging slot's verified-CRC ledger for ``cycle``, or None."""
        if self._staging_ledgers is None:
            return None
        return self._staging_ledgers[self.sub_of_cycle(cycle)]

    def staged_piece_crc(self, cycle: int, loc: int, ln: int) -> int | None:
        """A put piece's CRC combined from the staging ledger, or None.

        No counter bump here — the RMA ``put`` accounts for the reuse
        when it receives a carried checksum.
        """
        led = self.staging_ledger(cycle)
        if led is None or self._staging is None:
            return None
        return led.combine(loc, loc + ln)

    # ------------------------------------------------------------------
    # Pooled receive buffers (see repro.mpi.bufpool)
    # ------------------------------------------------------------------
    def take_buffer(self, nbytes: int) -> np.ndarray | None:
        """Borrow a pooled scratch buffer (None in size-only mode)."""
        if not self.carries_data:
            return None
        return self.mpi.world.buffer_pool(self.mpi.node).take(nbytes)

    def release_buffer(self, buf: np.ndarray | None) -> None:
        if buf is not None:
            self.mpi.world.buffer_pool(self.mpi.node).release(buf)

    # ------------------------------------------------------------------
    # File access helpers (the algorithms' ``write`` / ``write_init`` /
    # ``write_wait`` steps)
    # ------------------------------------------------------------------
    def _write_slice(self, cycle: int) -> tuple[int, np.ndarray | None, int] | None:
        if not self.is_aggregator:
            return None
        rng = self.plan.write_range(self.agg_index, cycle)
        if rng is None:
            return None
        crange = self.plan.cycle_range(self.agg_index, cycle)
        assert crange is not None
        base = crange[0]
        lo, hi = rng
        if not self.carries_data:
            return lo, None, hi - lo
        buf = self.buffer(self.sub_of_cycle(cycle))
        return lo, buf[lo - base : hi - base], hi - lo

    def _journal_entry(self, cycle: int, offset: int, payload, nbytes: int):
        """Checksum a cycle's bytes *at posting time* (buffer still stable).

        The sub-buffer is reused ``nsub`` cycles later, but the PFS
        samples the bytes at write completion — strictly before any
        reuse a correct algorithm allows — so a post-time checksum equals
        the bytes on disk.
        """
        if self.journal is None:
            return None
        checksum = self.journal.checksum(payload) if payload is not None else None
        return (cycle, offset, nbytes, checksum)

    def _journal_commit(self, entry) -> None:
        """Declare a cycle durable: its write completed on the aggregator."""
        if entry is None:
            return
        cycle, offset, nbytes, checksum = entry
        self.journal.commit(
            agg_rank=self.rank, agg_index=self.agg_index, cycle=cycle,
            offset=offset, nbytes=nbytes, checksum=checksum,
        )
        self.recorder.inc("recovery.journal_commit")

    def _drain_commit(self, entry):
        """Deferred commit for staged writes: burst-buffer contents are
        volatile, so a cycle is durable only once its extents *drained*
        to the PFS — the callback the drain scheduler fires then."""
        if entry is None:
            return None
        return lambda: self._journal_commit(entry)

    def _record_extent(self, cycle: int, offset: int, payload, nbytes: int):
        """Checksum one cycle extent at the producing aggregator.

        Files the CRC-32 in the integrity manifest and returns it for the
        write path to carry (None when the layer is off or in size-only
        mode — the fault-free paths stay byte-identical).  When the
        delivery ledgers carry verified piece CRCs that tile the extent,
        the CRC is combined from them — no byte is re-read and no memory
        pass is charged.  Only a fresh checksum (ledger miss) reads every
        byte once and charges ``nbytes`` at memory bandwidth — the honest
        residual cost the overhead benchmarks measure.
        """
        if self.integrity is None or payload is None:
            return None
        carried = self._carried_extent_crc(cycle, offset, nbytes)
        crc = self.integrity.record_extent(
            self.fh.path, self.rank, offset, payload, nbytes, checksum=carried
        )
        if carried is None:
            yield from self.mpi.compute(nbytes / self.memory_bandwidth)
        return crc

    def write_blocking(self, cycle: int):
        """Blocking file-access phase for ``cycle`` (no MPI progress)."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return
        t0 = self.mpi.now
        offset, payload, nbytes = sliced
        entry = self._journal_entry(cycle, offset, payload, nbytes)
        crc = yield from self._record_extent(cycle, offset, payload, nbytes)
        recorder = self.recorder
        call_span = io_span = None
        if recorder.active:
            call_span = recorder.begin(
                t0, "write", "io.call", rank=self.rank, cycle=cycle, bytes=nbytes
            )
            io_span = recorder.begin(
                t0, "write", "io", rank=self.rank, cycle=cycle, flow="async",
                bytes=nbytes,
            )
        if self.stager is not None:
            yield from self.fh.stage_at(
                self.stager, offset, payload, size=nbytes, cycle=cycle,
                on_drained=self._drain_commit(entry), checksum=crc,
            )
        elif self.writer is not None:
            yield from self.writer.write_at(offset, payload, size=nbytes, checksum=crc)
        else:
            yield from self.fh.write_at(offset, payload, size=nbytes, checksum=crc)
        self.recorder.end(io_span, self.mpi.now)
        self.recorder.end(call_span, self.mpi.now)
        if self.stager is None:
            self._journal_commit(entry)
        self.stats.add_time("write", self.mpi.now - t0)
        self.stats.bump("writes")

    def write_init(self, cycle: int):
        """Post an asynchronous write for ``cycle``; returns a handle."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return None
        t0 = self.mpi.now
        offset, payload, nbytes = sliced
        recorder = self.recorder
        call_span = io_span = None
        if recorder.active:
            call_span = recorder.begin(
                t0, "write_post", "io.call", rank=self.rank, cycle=cycle,
                bytes=nbytes,
            )
            io_span = recorder.begin(
                t0, "write", "io", rank=self.rank, cycle=cycle, flow="async",
                bytes=nbytes,
            )
        entry = self._journal_entry(cycle, offset, payload, nbytes)
        crc = yield from self._record_extent(cycle, offset, payload, nbytes)
        if self.stager is not None:
            req = yield from self.fh.istage_at(
                self.stager, offset, payload, size=nbytes, cycle=cycle,
                on_drained=self._drain_commit(entry), checksum=crc,
            )
        elif self.writer is not None:
            req = yield from self.writer.iwrite_at(
                offset, payload, size=nbytes, checksum=crc
            )
        else:
            req = yield from self.fh.iwrite_at(offset, payload, size=nbytes, checksum=crc)
        self.recorder.end(call_span, self.mpi.now)
        if io_span is not None:
            self._write_spans[id(req)] = io_span
        if entry is not None and self.stager is None:
            self._pending_commits[id(req)] = entry
        self.stats.add_time("write_post", self.mpi.now - t0)
        self.stats.bump("writes")
        return req

    def write_wait(self, handle):
        """Complete a previously posted asynchronous write."""
        if handle is None:
            return
        t0 = self.mpi.now
        io_span = self._write_spans.pop(id(handle), None)
        call_span = None
        if self.recorder.active:
            cycle = getattr(io_span, "cycle", -1)
            call_span = self.recorder.begin(
                t0, "write_wait", "io.call", rank=self.rank, cycle=cycle
            )
        yield from self.mpi.wait(handle)
        if io_span is not None:
            # The aio/retry layers succeed the request event with the true
            # completion timestamp; close the serviced interval there, not
            # at the (possibly later) moment this rank got around to waiting.
            value = handle.event.value if handle.event.triggered else None
            done_at = value if isinstance(value, (int, float)) else self.mpi.now
            self.recorder.end(io_span, min(float(done_at), self.mpi.now))
        self.recorder.end(call_span, self.mpi.now)
        self._journal_commit(self._pending_commits.pop(id(handle), None))
        self.stats.add_time("write", self.mpi.now - t0)

    def note_write_done(self, handle) -> None:
        """Close a posted write's "io" span when it completed inside a joint
        waitall (no simulated cost; the wait already happened)."""
        if handle is None:
            return
        self._journal_commit(self._pending_commits.pop(id(handle), None))
        io_span = self._write_spans.pop(id(handle), None)
        if io_span is None:
            return
        value = handle.event.value if handle.event.triggered else None
        done_at = value if isinstance(value, (int, float)) else self.mpi.now
        self.recorder.end(io_span, min(float(done_at), self.mpi.now))

    # The same three steps in the read direction: the file fills the
    # sub-buffer slice that ``_write_slice`` names.
    def read_blocking(self, cycle: int):
        """Blocking file-access phase of a read (no MPI progress)."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return
        t0 = self.mpi.now
        offset, dest, nbytes = sliced
        data = yield from self.fh.read_at(offset, nbytes)
        if dest is not None:
            dest[:] = data
        self.stats.add_time("read", self.mpi.now - t0)
        self.stats.bump("reads")

    def read_init(self, cycle: int):
        """Post an asynchronous read for ``cycle``; returns a handle."""
        sliced = self._write_slice(cycle)
        if sliced is None:
            return None
        t0 = self.mpi.now
        offset, dest, nbytes = sliced
        req, data = yield from self.fh.iread_at(offset, nbytes)
        self.stats.add_time("read_post", self.mpi.now - t0)
        self.stats.bump("reads")
        return req, dest, data

    def read_wait(self, handle):
        """Complete a posted read and land its bytes in the sub-buffer."""
        if handle is None:
            return
        req, dest, data = handle
        t0 = self.mpi.now
        yield from self.mpi.wait(req)
        if dest is not None:
            dest[:] = data
        self.stats.add_time("read", self.mpi.now - t0)

    def staging_flush(self):
        """Make everything this node staged durable (end of the collective).

        No-op without a staging tier.  For the ``end_of_job`` policy this
        is where the whole drain happens, serialized after the last
        cycle; the asynchronous policies only wait out the in-flight
        tail.  Waiting is an MPI call (progress keeps running — peers on
        other nodes may still be shuffling their final cycles).
        """
        if self.stager is None:
            return
        from repro.mpi.request import Request  # local: avoids a cycle

        t0 = self.mpi.now
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                t0, "flush", "staging", rank=self.rank,
                policy=self.stager.spec.policy,
            )
        yield from self.mpi.wait(Request(self.stager.flush(), "staging_flush"))
        self.recorder.end(span, self.mpi.now)
        self.stats.add_time("staging_flush", self.mpi.now - t0)

    def _scrub_extent_crc(self, offset: int, nbytes: int):
        """The CRC of an extent's stored bytes, metadata-first.

        The PFS records every carried-checksum write's CRC as stored-CRC
        metadata at commit time, so the common case is a dictionary
        lookup; only extents without metadata (e.g. written before the
        layer attached) pay a simulated read plus a fresh checksum.
        """
        integrity = self.integrity
        stored = self.fh.file.stored_crc(offset, nbytes)
        if stored is not None:
            integrity.checksum_reused += 1
            return stored
        data = yield from self.fh.read_at(offset, nbytes)
        integrity.checksum_computed += 1
        return extent_checksum(data)

    def integrity_scrub(self):
        """Post-write scrub: verify this aggregator's extents on disk.

        Runs after the staging flush (everything durable) and before the
        closing barrier, so each aggregator scrubs exactly its own file
        domain — together the manifests cover the whole striped file.
        Each recorded extent's stored-CRC metadata (recorded by the PFS
        at commit time, reflecting the bytes that actually landed —
        including torn writes and commit-time bit-flips) is compared
        against the manifest CRC; extents without metadata fall back to
        a simulated read-back.  In repair mode a mismatch is rewritten
        from the escrow copy (carrying the checksum, so the rewrite is
        itself commit-verified).  Appends a :class:`ScrubReport` to the
        layer and raises :class:`CorruptDataError` if any mismatch could
        not be repaired.
        """
        integrity = self.integrity
        if (
            integrity is None
            or not integrity.enabled
            or not integrity.spec.scrub
            or not self.is_aggregator
            or not self.carries_data
        ):
            return
        from repro.integrity.report import ScrubReport

        entries = integrity.entries_for(self.fh.path, self.rank)
        if not entries:
            return
        t0 = self.mpi.now
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                t0, "scrub", "integrity", rank=self.rank, extents=len(entries)
            )
        report = ScrubReport(rank=self.rank)
        for offset, nbytes, crc in entries:
            stored_crc = yield from self._scrub_extent_crc(offset, nbytes)
            report.extents += 1
            report.bytes_scrubbed += nbytes
            if stored_crc == crc:
                continue
            report.mismatches += 1
            report.bad_offsets.append(offset)
            integrity.note("detected")
            source = (
                integrity.repair_source(self.fh.path, offset, nbytes)
                if integrity.repairs
                else None
            )
            if source is None:
                continue
            # The rewrite itself goes through the (still faulty) storage
            # path, so re-verify it with bounded retries even when
            # per-write read-back is off — the scrub is the last line of
            # defense and must not trade one corruption for another.
            fixed = False
            for _ in range(integrity.spec.max_repair_attempts):
                integrity.note("rewrite")
                yield from self.fh.write_at(offset, source, checksum=crc)
                stored_crc = yield from self._scrub_extent_crc(offset, nbytes)
                if stored_crc == crc:
                    fixed = True
                    break
                integrity.note("detected")
            if not fixed:
                continue
            report.repaired += 1
            integrity.note("repaired")
        integrity.scrub_reports.append(report)
        self.recorder.end(span, self.mpi.now)
        self.stats.add_time("scrub", self.mpi.now - t0)
        self.stats.bump("scrub_extents", report.extents)
        if not report.clean:
            raise CorruptDataError(
                f"scrub on rank {self.rank} found {report.mismatches} corrupt "
                f"extent(s), repaired {report.repaired}"
            )

    def iteration(self, cycle: int):
        """Span over one internal-cycle iteration of an overlap algorithm.

        Returns a reusable null context when no span recorder is
        attached — cycles are the innermost per-rank loop, so the
        ``contextlib`` machinery this used to go through was measurable.
        """
        recorder = self.recorder
        if not recorder.active:
            return _NULL_ITERATION
        span = recorder.begin(
            self.mpi.now, "cycle", "algo.cycle", rank=self.rank, cycle=cycle
        )
        return _IterationSpan(self, span)

    # ------------------------------------------------------------------
    def planning_tick(self):
        """Per-cycle offset bookkeeping cost (charged to every rank)."""
        cost = self.config.cycle_planning_overhead
        if cost:
            yield from self.mpi.compute(cost)

    def pack_cost(self, nbytes: int, npieces: int) -> float:
        """Sender-side gather cost.

        A single-piece (contiguous) contribution is sent straight from
        the user buffer — zero copy, zero cost — exactly as ompio's
        vulcan does; only scattered contributions pay the per-extent
        handling plus the memcpy into the pack buffer.
        """
        if npieces <= 1:
            return 0.0
        per_piece = self.config.pack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def unpack_cost(self, nbytes: int, npieces: int) -> float:
        """Aggregator-side scatter cost.

        A single-piece contribution is received directly into its final
        collective-buffer position (the receive is posted at the right
        offset) — no unpack; scattered contributions are received into a
        bounce buffer and copied piecewise.
        """
        if npieces <= 1:
            return 0.0
        per_piece = self.config.unpack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def local_copy_cost(self, nbytes: int, npieces: int) -> float:
        """An aggregator copying its *own* contribution into the buffer.

        Always one real memcpy (user buffer -> collective buffer), plus
        per-extent handling when scattered.
        """
        per_piece = self.config.unpack_overhead_per_extent * self.config.extent_cost_factor
        return npieces * per_piece + nbytes / self.memory_bandwidth

    def extra_put_cost(self, nputs: int) -> float:
        """Compensation when one modeled put stands for several real puts.

        Charges the posting overhead of the ``factor - 1`` puts that were
        folded into each modeled one (their payload bytes are already in
        the modeled put's transfer).
        """
        factor = self.config.extent_cost_factor
        if factor <= 1.0 or nputs == 0:
            return 0.0
        spec = self.mpi.world.cluster.spec
        return nputs * (factor - 1.0) * (spec.mpi_call_overhead + spec.rma_put_overhead)

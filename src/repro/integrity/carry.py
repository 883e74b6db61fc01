"""Checksum carrying: one rank's producer-side CRCs and verified-CRC ledgers.

Under an integrity layer every payload byte is checksummed once, where it
is produced, and the CRC travels with the bytes: piece CRCs ride the
shuffle and gather messages, the receiving side files the verified ones
in a :class:`~repro.integrity.checksum.ChecksumLedger` under their file
(or staging) offsets, and an aggregator's extent record combines them
instead of re-reading the cycle buffer.  The end-of-job scrub compares
the manifest against the stored-CRC metadata the file system recorded.

The rank context (:class:`repro.collio.context.AlgoContext`) builds one
:class:`ChecksumCarry` when, and only when, its world has an integrity
layer; the collective steps call it through ``ctx.carry``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CorruptDataError
from repro.integrity.checksum import ChecksumLedger, crc32_concat
from repro.integrity.layer import Verdict
from repro.integrity.report import ScrubReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.collio.context import AlgoContext
    from repro.integrity.layer import IntegrityLayer

__all__ = ["ChecksumCarry"]


class ChecksumCarry:
    """The checksum-carrying state of one rank in one collective write."""

    def __init__(self, ctx: "AlgoContext", integrity: "IntegrityLayer") -> None:
        # Weak: the context owns this object, and a reference cycle would
        # keep the rank's buffers alive past the run until a GC pass.
        self.ctx = weakref.proxy(ctx)
        self.integrity = integrity
        #: Verified piece CRCs of two-sided deliveries and local copies,
        #: keyed by absolute file offset; the extent record combines them
        #: instead of re-checksumming the cycle buffer.  (The one-sided
        #: equivalent lives on the shared Window, filed at put landing.)
        self.ledger = ChecksumLedger()
        #: Per-staging-slot ledgers keyed by staging offset: a two-layer
        #: leader's gather files verified member piece CRCs here, its
        #: forward shuffle combines them for the coalesced sends (other
        #: ranks' stay empty).  Slot ``c % nsub``'s ledger is cleared when
        #: cycle ``c``'s gather refills the slot.
        self.staging_ledgers = [ChecksumLedger() for _ in range(ctx.nsub)]
        integrity.register_source(ctx.fh.path, ctx.rank, ctx.view, ctx.data)

    def staging_ledger(self, cycle: int) -> ChecksumLedger:
        """The staging slot's verified-CRC ledger for ``cycle``."""
        return self.staging_ledgers[self.ctx.sub_of_cycle(cycle)]

    def _whole(self, pieces: list) -> int:
        """A message's CRC combined from its piece CRCs (no byte pass)."""
        if len(pieces) == 1:
            return pieces[0][1]
        self.integrity.checksum_reused += 1
        return crc32_concat(pieces)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def piece_checksums(self, cycle: int, sa, src) -> tuple[tuple, int]:
        """Per-piece ``(nbytes, crc)`` CRCs of a send assignment + whole CRC.

        Each piece's bytes are checksummed exactly once, from the send
        source.  When the source is a leader's staging slot whose ledger
        already holds verified CRCs for the range (coalesced gather data),
        the piece CRC is combined from them without touching the bytes.
        """
        integrity = self.integrity
        led = self.staging_ledger(cycle)
        pieces = []
        for _off, ln, loc in sa.pieces:
            crc = led.combine(loc, loc + ln)
            if crc is None:
                crc = integrity.checksum(src[loc : loc + ln])
            else:
                integrity.checksum_reused += 1
            pieces.append((int(ln), crc))
        return tuple(pieces), self._whole(pieces)

    def stream_checksums(self, spans) -> tuple[tuple, int]:
        """Per-piece CRCs + whole CRC of a member's gather stream.

        This is where gather traffic's checksums are *born*: each
        ``(local_offset, length)`` piece of the rank's data is checksummed
        once; the whole-message CRC is combined from them.
        """
        data, checksum = self.ctx.data, self.integrity.checksum
        pieces = [(ln, checksum(data[loc : loc + ln])) for loc, ln in spans]
        return tuple(pieces), self._whole(pieces)

    def staged_piece_crc(self, cycle: int, loc: int, ln: int) -> int | None:
        """A put piece's CRC combined from the staging ledger, or None.

        No counter bump here — the RMA ``put`` accounts for the reuse
        when it receives a carried checksum.
        """
        return self.staging_ledger(cycle).combine(loc, loc + ln)

    # ------------------------------------------------------------------
    # Filing verified CRCs
    # ------------------------------------------------------------------
    def file_delivered(self, assignments, carried) -> None:
        """File the piece CRCs a verified two-sided delivery carried.

        ``assignments`` are the send assignments the message bundled, in
        order; their pieces are filed under their absolute file offsets
        for :meth:`record_extent` to combine.
        """
        if carried is None:
            return
        pidx = 0
        for sa in assignments:
            if pidx + sa.npieces <= len(carried):
                self._file_pieces(sa, carried[pidx : pidx + sa.npieces])
            pidx += sa.npieces

    def file_local_copy(self, cycle: int, sa, src) -> None:
        """File the CRCs of an aggregator's own contribution (computed here)."""
        self._file_pieces(sa, self.piece_checksums(cycle, sa, src)[0])

    def _file_pieces(self, sa, piece_checksums) -> None:
        for (off, ln, _loc), (_pn, crc) in zip(sa.pieces, piece_checksums):
            self.ledger.file(off, ln, crc)

    def file_own_stream(self, cycle: int, dests, spans) -> None:
        """File a leader's own stream pieces, checksummed once, under their
        staging offsets ``dests``."""
        led = self.staging_ledger(cycle)
        data, checksum = self.ctx.data, self.integrity.checksum
        for dest, (loc, ln) in zip(dests, spans):
            led.file(int(dest), ln, checksum(data[loc : loc + ln]))

    def file_member_stream(self, cycle: int, dests, spans, carried) -> None:
        """File the piece CRCs a member's (verified) gather stream carried
        under their staging offsets — no byte is re-checksummed."""
        if carried is None:
            return
        led = self.staging_ledger(cycle)
        for dest, (_loc, ln), (_n, crc) in zip(dests, spans, carried):
            led.file(int(dest), ln, crc)
            self.integrity.checksum_reused += 1

    # ------------------------------------------------------------------
    # The aggregator's extent record
    # ------------------------------------------------------------------
    def _carried_extent_crc(self, cycle: int, offset: int, nbytes: int) -> int | None:
        """CRC of a cycle extent from verified delivery pieces, or None.

        None when the filed pieces do not tile the extent exactly — an
        interior hole means some written bytes were never delivered this
        cycle (stale buffer content), so the caller must checksum fresh.
        """
        ctx = self.ctx
        if ctx.uses_windows:
            led = ctx.window(ctx.sub_of_cycle(cycle)).window.ledgers.get(ctx.rank)
        else:
            led = self.ledger
        if led is None:
            return None
        return led.combine(offset, offset + nbytes, pop=True)

    def record_extent(self, cycle: int, offset: int, payload):
        """Checksum one cycle extent at the producing aggregator.

        Files the CRC-32 in the integrity manifest and returns it for the
        write path to carry.  When the delivery ledgers carry verified
        piece CRCs that tile the extent, the CRC is combined from them —
        no byte is re-read and no memory pass is charged.  Only a fresh
        checksum (ledger miss) reads every byte once and charges
        ``nbytes`` at memory bandwidth — the honest residual cost the
        overhead benchmarks measure.
        """
        ctx = self.ctx
        nbytes = len(payload)
        carried = self._carried_extent_crc(cycle, offset, nbytes)
        crc = self.integrity.record_extent(
            ctx.fh.path, ctx.rank, offset, payload, nbytes, checksum=carried
        )
        if carried is None:
            yield from ctx.mpi.compute(nbytes / ctx.memory_bandwidth)
        return crc

    # ------------------------------------------------------------------
    # End-of-job scrub
    # ------------------------------------------------------------------
    def _scrub_extent_crc(self, offset: int, nbytes: int):
        """The CRC of an extent's stored bytes, metadata-first.

        The PFS records every carried-checksum write's CRC as stored-CRC
        metadata at commit time, so the common case is a dictionary
        lookup; only extents without metadata (e.g. written before the
        layer attached) pay a simulated read plus a fresh checksum.
        """
        integrity, fh = self.integrity, self.ctx.fh
        stored = fh.file.stored_crc(offset, nbytes)
        if stored is not None:
            integrity.checksum_reused += 1
            return stored
        data = np.empty(nbytes, dtype=np.uint8)
        yield from fh.read_at(offset, data)
        return integrity.checksum(data)

    def scrub(self):
        """Post-write scrub: verify this aggregator's extents on disk.

        Runs after the staging flush (everything durable) and before the
        closing barrier, so each aggregator scrubs exactly its own file
        domain — together the manifests cover the whole striped file.
        Each recorded extent's stored-CRC metadata (recorded by the PFS
        at commit time, reflecting the bytes that actually landed —
        including torn writes and commit-time bit-flips) is compared
        against the manifest CRC; extents without metadata fall back to
        a simulated read-back.  In repair mode a mismatch is rewritten
        from bytes composed afresh from the producing ranks' buffers
        (carrying the checksum, so the rewrite is itself
        commit-verified).  Appends a :class:`ScrubReport` to the layer
        and raises :class:`CorruptDataError` if any mismatch could not
        be repaired.
        """
        ctx, integrity = self.ctx, self.integrity
        if not integrity.spec.scrub or not ctx.is_aggregator:
            return
        entries = integrity.entries_for(ctx.fh.path, ctx.rank)
        if not entries:
            return
        t0 = ctx.mpi.now
        span = None
        if ctx.recorder.active:
            span = ctx.recorder.begin(
                t0, "scrub", "integrity", rank=ctx.rank, extents=len(entries)
            )
        report = ScrubReport(rank=ctx.rank)
        for offset, nbytes, crc in entries:
            stored_crc = yield from self._scrub_extent_crc(offset, nbytes)
            report.extents += 1
            report.bytes_scrubbed += nbytes
            if stored_crc == crc:
                continue
            report.mismatches += 1
            report.bad_offsets.append(offset)
            # The rewrite itself goes through the (still faulty) storage
            # path, so re-verify it under the same bounded budget even
            # when per-write read-back is off — the scrub is the last line
            # of defense and must not trade one corruption for another.
            source = integrity.repair_source(ctx.fh.path, offset, nbytes)
            attempt = 0
            while (verdict := integrity.verdict(
                stored_crc == crc, attempt, "rewrite", can_redo=source is not None
            )) is Verdict.REDO:
                yield from ctx.fh.write_at(offset, source, checksum=crc)
                stored_crc = yield from self._scrub_extent_crc(offset, nbytes)
                attempt += 1
            if verdict is Verdict.OK:
                report.repaired += 1
        integrity.scrub_reports.append(report)
        ctx.recorder.end(span, ctx.mpi.now)
        ctx.stats.add_time("scrub", ctx.mpi.now - t0)
        ctx.stats.bump("scrub_extents", report.extents)
        if not report.clean:
            raise CorruptDataError(
                f"scrub on rank {ctx.rank} found {report.mismatches} corrupt "
                f"extent(s), repaired {report.repaired}"
            )

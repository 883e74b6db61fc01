"""The per-world integrity layer: checksum manifest, repair sources, verify policy.

One :class:`IntegrityLayer` is attached to a world (the same
get-or-create pattern the staging tier uses) when, and only when, a
collective write's config enables integrity.  It is the meeting point
of the datapath's verify hooks:

* aggregators **record** every extent they are about to write —
  ``record_extent`` checksums the bytes at the producing side and files
  them in the per-path manifest;
* in repair mode every rank **registers** its ``(view, data)`` — a
  reference to the user buffer, which MPI requires to stay unchanged
  until the collective returns — and ``repair_source`` composes a
  recorded extent's pristine bytes from those buffers on demand, the
  source of drain/scrub restoration;
* every counted byte pass of the datapath is ``checksum``;
* the five verify hops (message delivery, RMA landing, commit read-back,
  drain pickup, end-of-job scrub) compare and ask ``verdict`` — the one
  detect/repair policy — what to do; it notes ``integrity.*`` counters
  of the world's recorder, so detection/repair counts reach the run's
  metrics with every other counter;
* the end-of-job scrub walks ``entries_for`` and appends its
  :class:`~repro.integrity.report.ScrubReport` here.

The layer never touches a clean run's byte stream and holds no payload
bytes of its own: checksums are computed over buffers the datapath
already holds, and a repair's pristine bytes are derived from the
producers' buffers only when a mismatch needs them.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.integrity.checksum import extent_checksum
from repro.integrity.report import ScrubReport
from repro.integrity.spec import IntegritySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World

__all__ = ["IntegrityLayer", "Verdict"]


class Verdict(enum.Enum):
    """What a verify hop does next (see :meth:`IntegrityLayer.verdict`)."""

    OK = "ok"  #: the bytes match: complete the hop
    REDO = "redo"  #: mismatch within budget: redo the hop and verify again
    FAIL = "fail"  #: mismatch, no repair possible: fail the hop


class IntegrityLayer:
    """World-level integrity state (see module docstring)."""

    def __init__(self, world: "World", spec: IntegritySpec) -> None:
        self.world = world
        self.spec = spec
        self.recorder = world.cluster.recorder
        #: The recorder's ``integrity.*`` counts when this world's layer
        #: attached: a run's recorder spans its attempts, a layer reports
        #: only its own world.
        self._counted_before = self._integrity_counts()
        #: (path, offset, nbytes) -> (crc32, producing aggregator rank).
        self.manifest: dict[tuple[str, int, int], tuple[int, int]] = {}
        #: path -> {rank: (view, data)}: the producing ranks' buffers of the
        #: collective writing ``path`` (repair mode only; references).
        self._sources: dict[str, dict[int, tuple]] = {}
        self.extents_recorded = 0
        self.scrub_reports: list[ScrubReport] = []
        #: Checksum-carrying accounting: byte-touching CRC passes vs
        #: carried/combined uses (the reuse rate the datapath optimises).
        self.checksum_computed = 0
        self.checksum_reused = 0

    # ------------------------------------------------------------------
    @classmethod
    def ensure(cls, world: "World", spec: IntegritySpec) -> "IntegrityLayer":
        """Get-or-create the world's layer (idempotent per world).

        The first rank's collective-write call creates it and hooks the
        file system's read-back verify; peers reuse it.  Two different
        specs on one world is a configuration bug.
        """
        layer = world.integrity
        if layer is not None:
            if layer.spec != spec:
                raise ConfigurationError(
                    "this world already has an integrity layer with a different spec"
                )
            return layer
        layer = cls(world, spec)
        world.integrity = layer
        if world.pfs is not None:
            world.pfs.integrity = layer
        return layer

    # ------------------------------------------------------------------
    # Manifest (the producing side)
    # ------------------------------------------------------------------
    def record_extent(
        self,
        path: str,
        rank: int,
        offset: int,
        payload: np.ndarray,
        nbytes: int,
        checksum: int | None = None,
    ) -> int:
        """Checksum one extent at its producing rank; returns the CRC-32.

        Called by the aggregator just before it posts the extent's write
        (the buffer is stable until the write completes, so the post-time
        checksum equals the bytes every downstream hop should see).
        Re-recording the same extent (retry, recovery replay) simply
        replaces the entry — idempotent, like the write itself.

        ``checksum`` is the carried CRC when the caller already knows it
        (combined from verified delivery checksums) — the payload bytes
        are not re-read in that case.
        """
        key = (path, int(offset), int(nbytes))
        crc = self.carried(payload, checksum)
        self.manifest[key] = (crc, rank)
        self.extents_recorded += 1
        return crc

    def carried(self, payload, checksum: int | None = None) -> int | None:
        """The CRC-32 ``payload`` travels with: the producer's ``checksum``
        when it holds one (a reuse), else one computed now (None for a
        size-only payload, which has no bytes to checksum)."""
        from repro.payload import crc  # local: repro.payload imports this package

        if checksum is None:
            checksum = crc(payload)
            self.checksum_computed += checksum is not None
        else:
            self.checksum_reused += 1
        return checksum

    def entries_for(self, path: str, rank: int) -> list[tuple[int, int, int]]:
        """This rank's recorded extents of ``path``: (offset, nbytes, crc)."""
        return sorted(
            (off, n, crc)
            for (p, off, n), (crc, owner) in self.manifest.items()
            if p == path and owner == rank
        )

    def register_source(self, path: str, rank: int, view, data) -> None:
        """Note ``rank``'s view and buffer as a producer of ``path`` (repair
        mode only; a later collective's registration replaces it).

        A reference, not a copy: the buffer must stay unchanged until
        the collective returns, and every repair happens before that.
        """
        if self.spec.repairs:
            self._sources.setdefault(path, {})[rank] = (view, data)

    def repair_source(self, path: str, offset: int, nbytes: int) -> np.ndarray | None:
        """Pristine bytes of a recorded extent, composed afresh from the
        registered buffers; None for an unrecorded extent or outside
        repair mode."""
        from repro.collio.view import compose  # local: collio imports this package

        sources = self._sources.get(path)
        if not sources or (path, int(offset), int(nbytes)) not in self.manifest:
            return None
        ranks = sorted(sources)
        return compose((sources[r] for r in ranks), int(offset), np.empty(nbytes, np.uint8))

    def close(self) -> None:
        """Drop the registered buffers (the world is finished; the manifest
        and counters stay readable)."""
        self._sources.clear()

    # ------------------------------------------------------------------
    # The verify policy (every hop)
    # ------------------------------------------------------------------
    def checksum(self, buf) -> int:
        """CRC-32 of ``buf``: the datapath's one counted byte pass."""
        self.checksum_computed += 1
        return extent_checksum(buf)

    def verdict(self, clean: bool, attempt: int, redo: str, can_redo: bool = True) -> Verdict:
        """The one detect/repair decision of every verify hop.

        ``attempt`` counts the hop's redos so far, ``redo`` names its redo
        counter and ``can_redo`` is its own source condition (a live
        sender, a repair source).  A mismatch is redone only in repair
        mode, with a source, within ``max_repair_attempts``.
        """
        if clean:
            if attempt:
                self.note("repaired")
            return Verdict.OK
        self.note("detected")
        if can_redo and self.spec.repairs and attempt < self.spec.max_repair_attempts:
            self.note(redo)
            return Verdict.REDO
        return Verdict.FAIL

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def note(self, kind: str) -> None:
        """Count one integrity event (``integrity.<kind>`` counter)."""
        self.recorder.inc(f"integrity.{kind}")

    def _integrity_counts(self) -> dict[str, int]:
        return {k: v for k, v in self.recorder.counters.items() if k.startswith("integrity.")}

    def counters(self) -> dict[str, int]:
        """This world's ``integrity.*`` counts (detections, repairs, ...).

        The checksum-carrying tallies ride along under the same prefix so
        they surface in run metrics with the rest.
        """
        before = self._counted_before
        out = {
            k: v - before.get(k, 0)
            for k, v in self._integrity_counts().items()
            if v != before.get(k, 0)
        }
        out["integrity.checksum_computed"] = self.checksum_computed
        out["integrity.checksum_reused"] = self.checksum_reused
        return out

    def snapshot(self) -> dict:
        """Plain-data summary for :class:`CollectiveWriteResult.integrity`."""
        counts = self.counters()
        return {
            "mode": self.spec.mode,
            "extents_recorded": self.extents_recorded,
            "detected": counts.get("integrity.detected", 0),
            "repaired": counts.get("integrity.repaired", 0),
            "counters": counts,
            "scrub_reports": [
                {
                    "rank": r.rank,
                    "extents": r.extents,
                    "bytes_scrubbed": r.bytes_scrubbed,
                    "mismatches": r.mismatches,
                    "repaired": r.repaired,
                }
                for r in self.scrub_reports
            ],
        }

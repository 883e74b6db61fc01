"""Configuration surface of the end-to-end integrity layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.specbase import SpecBase

__all__ = ["IntegritySpec", "INTEGRITY_MODES"]

#: Valid values of :attr:`IntegritySpec.mode`.
INTEGRITY_MODES = ("off", "detect", "repair")


@dataclass(frozen=True)
class IntegritySpec(SpecBase):
    """How a collective write checksums, verifies and repairs its data.

    ``mode`` selects the overall posture:

    ``"off"``
        No checksums anywhere; every code path is byte-identical to a
        build without the integrity subsystem (the golden suite pins
        this).  Injected corruption then lands silently — only a
        ``verify=True`` run's byte-exact file comparison would notice.
    ``"detect"``
        Per-extent CRC-32 computed at the producing rank and verified at
        every hop (message receive, RMA landing, burst-buffer drain,
        PFS read-back, end-of-job scrub).  The first mismatch raises
        :class:`~repro.errors.CorruptDataError` — fail-stop, no silent
        corruption.
    ``"repair"``
        Like ``detect``, but each verify point first tries to restore
        the extent — message/RMA retransmission from the (pristine)
        source buffer, re-ingest on the drain path and rewrite on the
        scrub path from bytes composed afresh from the producing ranks'
        still-stable buffers (the layer keeps no copy of its own),
        rewrite from the caller buffer on the storage path — up to
        ``max_repair_attempts`` times before giving up with
        :class:`~repro.errors.CorruptDataError`.

    Attach it to a run via the collective configuration::

        RunSpec(..., config=CollectiveConfig(integrity=IntegritySpec(mode="detect")))
    """

    mode: str = "off"
    #: Run the post-write scrub pass: after the final flush every
    #: aggregator re-reads its own extents from the striped file and
    #: verifies them against the plan's checksum manifest, producing a
    #: :class:`~repro.integrity.report.ScrubReport`.
    scrub: bool = True
    #: Verify every PFS write by reading it back and comparing checksums
    #: before the write's completion event fires.  Disable to exercise
    #: the scrub pass on its own (storage corruption then surfaces only
    #: at scrub time).
    readback: bool = True
    #: Bounded repair attempts per extent per verify point (repair mode).
    max_repair_attempts: int = 3

    def __post_init__(self) -> None:
        if self.mode not in INTEGRITY_MODES:
            raise ConfigurationError(
                f"integrity mode must be one of {INTEGRITY_MODES}, got {self.mode!r}"
            )
        if self.max_repair_attempts < 1:
            raise ConfigurationError(
                f"max_repair_attempts must be >= 1, got {self.max_repair_attempts}"
            )

    @property
    def enabled(self) -> bool:
        """True when the checksummed datapath is active at all."""
        return self.mode != "off"

    @property
    def repairs(self) -> bool:
        """True when verify points attempt restoration before failing."""
        return self.mode == "repair"

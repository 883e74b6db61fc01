"""End-to-end data integrity: checksummed datapath, repair and scrub.

The collective-write pipeline moves every byte through several hops —
shuffle (two-sided messages or RMA puts), intra-node gather, burst-buffer
staging, striped PFS writes — and each hop is a silent-data-corruption
surface.  This package adds the defense:

* :mod:`~repro.integrity.checksum` — the one CRC-32 extent-checksum
  implementation (also used by the recovery journal);
* :mod:`~repro.integrity.spec` — :class:`IntegritySpec`
  (``mode="off"|"detect"|"repair"``, scrub/read-back knobs);
* :mod:`~repro.integrity.layer` — :class:`IntegrityLayer`, the
  per-world manifest + repair sources + counter surface the datapath hooks
  talk to, and the one verify policy (``checksum`` / ``verdict``) they
  share;
* :mod:`~repro.integrity.report` — :class:`ScrubReport`.

With ``mode="off"`` (the default) nothing here is ever constructed and
every simulated byte and event is identical to a build without the
package — the golden fingerprint suite pins that.
"""

from repro.integrity.checksum import extent_checksum
from repro.integrity.layer import IntegrityLayer, Verdict
from repro.integrity.report import ScrubReport
from repro.integrity.spec import INTEGRITY_MODES, IntegritySpec

__all__ = [
    "INTEGRITY_MODES",
    "IntegrityLayer",
    "IntegritySpec",
    "ScrubReport",
    "Verdict",
    "extent_checksum",
]

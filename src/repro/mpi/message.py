"""Message envelope and wire constants for the two-sided protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Message", "MatchKey", "MESSAGE_HEADER_SIZE", "CONTROL_MESSAGE_SIZE", "Protocol"]

#: Bytes of envelope shipped with every message (tag, source, length, ...).
MESSAGE_HEADER_SIZE: int = 64
#: Size of RTS/CTS control messages of the rendezvous protocol.
CONTROL_MESSAGE_SIZE: int = 64


class Protocol:
    """Wire protocol chosen for a message (by size against the threshold)."""

    EAGER = "eager"
    RENDEZVOUS = "rendezvous"


@dataclass(frozen=True)
class MatchKey:
    """The (context, source, tag) triple receives are matched on.

    ``context`` separates communication planes (point-to-point traffic vs.
    internal traffic) like MPI communicator context ids do.
    """

    context: str
    source: int
    tag: int


@dataclass
class Message:
    """One in-flight point-to-point message."""

    src: int
    dst: int
    tag: int
    context: str
    size: int
    payload: np.ndarray | None = None
    protocol: str = Protocol.EAGER
    #: CRC-32 of the payload, stamped at post time when the world runs
    #: with an integrity layer (None otherwise / in size-only mode).
    #: Valid for both protocols: eager either snapshots the payload or
    #: holds a ``readonly``-contracted reference, and rendezvous senders
    #: must keep the buffer stable until the data transfer completes.
    checksum: int | None = None
    #: Per-pack-piece ``(nbytes, crc)`` tuples in stream order, shipped as
    #: metadata so the receiver can file verified piece CRCs without
    #: re-reading payload bytes (the whole-message verify transitively
    #: validates them: the carried checksum equals their crc-combine).
    piece_checksums: tuple | None = None
    #: True when ``payload`` is a borrowed buffer-pool block (the eager
    #: snapshot); the runtime releases it at terminal delivery.
    pooled: bool = False
    #: Set for eager messages once the payload is fully at the receiver.
    arrived: bool = False
    #: The sender's completion event (succeeded at rendezvous delivery).
    #: Not the SendOp itself: that would tie message and op into a cycle
    #: holding the payload until the cyclic collector runs.
    sent: Any = None

    @property
    def key(self) -> MatchKey:
        return MatchKey(self.context, self.src, self.tag)

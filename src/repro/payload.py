"""The one payload value: real bytes, or a size-only :class:`Sized` descriptor.

Every transfer, file and buffer call takes a payload and reads its byte
count from it.  Every simulated cost derives from byte counts, so a run
that passes descriptors takes the same steps while no byte moves.  Each
operation below is a no-op or returns a ``Sized`` on a descriptor: this
module alone decides whether bytes move.
"""

from __future__ import annotations

import numpy as np

from repro.integrity.checksum import extent_checksum

__all__ = ["Sized", "as_payload", "crc", "empty", "flip", "gather", "grow",
           "place", "snapshot", "zeros"]


class Sized:
    """``nbytes`` bytes that are not there: a size-only payload."""

    __slots__ = ("size",)
    dtype = np.dtype(np.uint8)
    base = None  # owns no memory (a buffer pool treats it as foreign)

    def __init__(self, nbytes: int) -> None:
        self.size = int(nbytes)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: slice) -> "Sized":
        start, stop, _ = index.indices(self.size)
        return Sized(max(0, stop - start))


def as_payload(x) -> np.ndarray | Sized:
    """A ``Sized`` as is; any array or bytes-like object as flat ``uint8``."""
    if isinstance(x, Sized):
        return x
    if isinstance(x, np.ndarray):
        return x.reshape(-1).view(np.uint8)
    return np.frombuffer(x, dtype=np.uint8)


def empty(n: int, like=None, alloc=None) -> np.ndarray | Sized:
    """``n`` bytes shaped like ``like``, of undefined content (from ``alloc``)."""
    if isinstance(like, Sized):
        return Sized(n)
    return alloc(n) if alloc is not None else np.empty(n, dtype=np.uint8)


def zeros(n: int, like=None) -> np.ndarray | Sized:
    """``n`` zero bytes shaped like ``like``."""
    return Sized(n) if isinstance(like, Sized) else np.zeros(n, dtype=np.uint8)


def grow(buf: np.ndarray, n: int, like=None) -> np.ndarray:
    """``buf`` zero-extended to ``n`` bytes (calloc + copy keeps untouched
    pages out of RSS); as is for a descriptor ``like``."""
    if isinstance(like, Sized) or n <= len(buf):
        return buf
    grown = np.zeros(n, dtype=np.uint8)
    grown[: len(buf)] = buf
    return grown


def gather(src, spans) -> np.ndarray | Sized:
    """``src``'s ``(start, length)`` spans end to end (one span: a view)."""
    if isinstance(src, Sized):
        return Sized(sum(n for _, n in spans))
    parts = [src[lo : lo + n] for lo, n in spans]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def place(dst, spans, src) -> None:
    """Copy ``src`` front to back into ``dst``'s ``(start, length)`` spans."""
    if isinstance(dst, Sized) or isinstance(src, Sized):
        return
    pos = 0
    for lo, n in spans:
        dst[lo : lo + n] = src[pos : pos + n]
        pos += n


def snapshot(p, alloc=None):
    """A private copy of ``p`` (into ``alloc(n)`` if given); a descriptor as is."""
    if isinstance(p, Sized):
        return p
    out = empty(p.size, alloc=alloc)
    out[:] = p
    return out


def flip(p, pos: int, bit: int | None = None) -> None:
    """Flip bit ``bit`` (default ``pos % 8``) of byte ``pos``: an injected fault."""
    if not isinstance(p, Sized):
        p[pos] ^= 1 << (pos & 7 if bit is None else bit)


def crc(p) -> int | None:
    """CRC-32 of ``p``'s bytes; None for a descriptor, which has none."""
    return None if isinstance(p, Sized) else extent_checksum(p)

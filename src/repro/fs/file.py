"""Byte-accurate file contents for the simulated file system."""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.errors import FileSystemError
from repro.payload import as_payload, grow, place, zeros

__all__ = ["SimFile"]


class SimFile:
    """The data of one simulated file.

    Contents are held in a numpy ``uint8`` array.  A caller that knows the
    final extent sizes the store once with :meth:`reserve` (what
    ``fallocate`` is to a real stack); a file nobody sized grows
    geometrically on writes past the current end.  Either way it behaves
    like a sparse file: holes read as zero and only writes move
    :attr:`size`.  A size-only write (a :class:`~repro.payload.Sized`
    payload) moves :attr:`size` and stores nothing.  This class is pure
    data — timing lives in :class:`repro.fs.pfs.ParallelFileSystem`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._data = np.zeros(0, dtype=np.uint8)
        self._size = 0
        #: CRC-32 of committed extents, keyed by ``(offset, nbytes)`` —
        #: recorded by the PFS at commit time when the write carried a
        #: producer checksum (see repro.fs.pfs).  This is the stored-CRC
        #: metadata a real checksumming file system keeps per block; the
        #: integrity scrub verifies against it instead of re-reading
        #: every extent.  Empty (zero-cost) without an integrity layer.
        self._stored_crcs: dict[tuple[int, int], int] = {}
        #: The same keys ordered by offset, and the longest extent ever
        #: recorded: a write bisects the keys it can overlap instead of
        #: scanning them all.
        self._crc_keys: list[tuple[int, int]] = []
        self._crc_span = 0

    @property
    def size(self) -> int:
        """Current file size in bytes (highest written offset + 1)."""
        return self._size

    def _ensure_capacity(self, end: int, like=None) -> None:
        if end > len(self._data):
            self._data = grow(self._data, max(end, 2 * len(self._data), 4096), like=like)

    def reserve(self, end: int) -> None:
        """Size the store for bytes up to ``end`` in one allocation.

        Changes nothing a reader can see: ``size`` stays, the reserved
        range reads as a hole, stored CRCs survive.
        """
        if end < 0:
            raise FileSystemError(f"negative size: {end}")
        self._ensure_capacity(end)

    def release(self) -> None:
        """Back to an empty file (the run that owned the bytes is over)."""
        self.__init__(self.path)

    def write(self, offset: int, data) -> None:
        """Store payload ``data`` at ``offset`` (extends the file as needed)."""
        if offset < 0:
            raise FileSystemError(f"negative write offset: {offset}")
        buf = as_payload(data)
        end = offset + len(buf)
        self._ensure_capacity(end, like=buf)
        place(self._data, ((offset, len(buf)),), buf)
        self._size = max(self._size, end)
        if self._stored_crcs:
            # Any overlapping write invalidates previously recorded CRCs
            # (the commit path re-records the exact extent afterwards).
            # No extent is longer than ``_crc_span``, so the overlapping
            # ones start in ``(offset - _crc_span, end)``.
            keys = self._crc_keys
            lo = bisect_left(keys, (offset - self._crc_span + 1,))
            hi = bisect_left(keys, (end,), lo)
            stale = [key for key in keys[lo:hi] if offset < key[0] + key[1]]
            if stale:
                for key in stale:
                    del self._stored_crcs[key]
                keys[lo:hi] = [key for key in keys[lo:hi] if offset >= key[0] + key[1]]

    def read(self, offset: int, size: int) -> np.ndarray:
        """Return ``size`` bytes at ``offset``; holes/EOF read as zeros."""
        if size < 0:
            raise FileSystemError(f"invalid read: offset={offset} size={size}")
        out = np.empty(size, dtype=np.uint8)
        self.read_into(offset, out)
        return out

    def read_into(self, offset: int, dest) -> None:
        """Fill ``dest`` with the bytes at ``offset``; holes/EOF read as zeros.

        A size-only descriptor ``dest`` receives nothing.
        """
        n = len(dest)
        if offset < 0:
            raise FileSystemError(f"invalid read: offset={offset} size={n}")
        avail = max(0, min(n, len(self._data) - offset))
        place(dest, ((0, avail),), self._data[offset : offset + avail])
        if avail < n:
            place(dest, ((avail, n - avail),), zeros(n - avail, like=dest))

    def stored(self, offset: int, size: int) -> np.ndarray:
        """The same bytes as :meth:`read`, as a read-only view of the store.

        For the host-side passes over whole files (verification); it is
        only valid until the next write or :meth:`release`.
        """
        if offset < 0 or size < 0:
            raise FileSystemError(f"invalid read: offset={offset} size={size}")
        self._ensure_capacity(offset + size)
        view = self._data[offset : offset + size]
        view.flags.writeable = False
        return view

    def note_stored_crc(self, offset: int, nbytes: int, crc: int) -> None:
        """Record the CRC-32 of the committed extent at ``offset``."""
        key = (int(offset), int(nbytes))
        if key not in self._stored_crcs:
            insort(self._crc_keys, key)
            self._crc_span = max(self._crc_span, key[1])
        self._stored_crcs[key] = int(crc)

    def stored_crc(self, offset: int, nbytes: int) -> int | None:
        """The recorded CRC of exactly this extent, or None (unknown)."""
        return self._stored_crcs.get((int(offset), int(nbytes)))

    def contents(self) -> np.ndarray:
        """The full file contents as a uint8 array (a copy)."""
        return self.read(0, self._size)

"""Per-rank file views: sorted, coalesced byte-extent lists.

A :class:`FileView` is what ``MPI_File_set_view`` + a write call reduce to:
the list of file byte ranges this rank writes, in file order.  The rank's
local buffer maps onto the extents in order (MPI's canonical pack order),
so ``local_offsets[i]`` is where extent ``i``'s bytes live in the local
buffer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.mpi.datatypes import Datatype

__all__ = ["FileView", "compose"]


class FileView:
    """The file footprint of one rank in a collective write."""

    __slots__ = (
        "offsets", "lengths", "local_offsets", "total_bytes", "ends", "_cumlens",
        "required_buffer_bytes",
    )

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if offsets.shape != lengths.shape or offsets.ndim != 1:
            raise WorkloadError("offsets and lengths must be equal-length 1-D arrays")
        ends = offsets + lengths
        if len(offsets):
            if (lengths <= 0).any():
                raise WorkloadError("extent lengths must be positive")
            if (offsets < 0).any():
                raise WorkloadError("extent offsets must be >= 0")
            if (offsets[1:] < ends[:-1]).any():
                raise WorkloadError("extents must be sorted and non-overlapping")
        self.offsets = offsets
        self.lengths = lengths
        #: Per-extent end offsets, precomputed once — :meth:`clip` and
        #: :meth:`bytes_in` run on every cycle of every rank.
        self.ends = ends
        cum = np.zeros(len(lengths) + 1, np.int64)
        if len(lengths):
            np.cumsum(lengths, out=cum[1:])
        self._cumlens = cum
        self.local_offsets = cum[:-1]
        self.total_bytes = int(cum[-1])
        #: Smallest local buffer that covers every extent's bytes:
        #: ``total_bytes`` for canonically packed views, larger for
        #: :meth:`from_pieces` replay views addressing a full-size buffer.
        self.required_buffer_bytes = self.total_bytes

    # ------------------------------------------------------------------
    @classmethod
    def from_datatype(cls, dtype: Datatype, disp: int = 0, count: int = 1) -> "FileView":
        """Build a view from an MPI datatype at file displacement ``disp``."""
        flat = dtype.flatten(offset=disp, count=count)
        return cls(flat[:, 0], flat[:, 1])

    @classmethod
    def contiguous(cls, offset: int, nbytes: int) -> "FileView":
        """A single contiguous range (the IOR 1-D pattern)."""
        if nbytes == 0:
            return cls(np.zeros(0, np.int64), np.zeros(0, np.int64))
        return cls(np.array([offset]), np.array([nbytes]))

    @classmethod
    def from_pieces(
        cls, offsets: np.ndarray, lengths: np.ndarray, local_offsets: np.ndarray
    ) -> "FileView":
        """A view with explicit (non-canonical) local buffer offsets.

        The recovery layer's replay views are built this way: the
        *remaining* file extents after subtracting journal-committed
        intervals, each still pointing at its original position in the
        rank's full buffer.  ``total_bytes`` is the remaining byte count,
        which may be smaller than the buffer the local offsets address
        (see :attr:`required_buffer_bytes`).
        """
        view = cls(offsets, lengths)
        local_offsets = np.asarray(local_offsets, dtype=np.int64)
        if local_offsets.shape != view.offsets.shape:
            raise WorkloadError("local_offsets must match offsets in shape")
        if len(local_offsets) and (local_offsets < 0).any():
            raise WorkloadError("local offsets must be >= 0")
        view.local_offsets = local_offsets
        if len(local_offsets):
            view.required_buffer_bytes = int((local_offsets + view.lengths).max())
        return view

    # ------------------------------------------------------------------
    @property
    def num_extents(self) -> int:
        return len(self.offsets)

    @property
    def file_range(self) -> tuple[int, int]:
        """``(min_offset, max_end)`` of the view; ``(0, 0)`` if empty."""
        if not len(self.offsets):
            return (0, 0)
        return int(self.offsets[0]), int(self.offsets[-1] + self.lengths[-1])

    def clip(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Intersect the view with ``[lo, hi)``.

        Returns ``(offsets, lengths, local_offsets)`` of the clipped
        pieces; extents straddling a boundary are trimmed and their local
        offsets adjusted so each piece still maps to the right local
        bytes.
        """
        n = len(self.offsets)
        if hi <= lo or not n:
            z = np.zeros(0, np.int64)
            return z, z, z
        if n == 1:
            # Merged-interval fast path: one contiguous extent (the IOR
            # 1-D pattern) clips with plain arithmetic.
            off = int(self.offsets[0])
            end = int(self.ends[0])
            a = max(off, lo)
            b = min(end, hi)
            if b <= a:
                z = np.zeros(0, np.int64)
                return z, z, z
            return (
                np.array([a], np.int64),
                np.array([b - a], np.int64),
                np.array([int(self.local_offsets[0]) + (a - off)], np.int64),
            )
        first = int(np.searchsorted(self.ends, lo, side="right"))
        last = int(np.searchsorted(self.offsets, hi, side="left"))
        if first >= last:
            z = np.zeros(0, np.int64)
            return z, z, z
        offs = self.offsets[first:last].copy()
        lens = self.lengths[first:last].copy()
        locs = self.local_offsets[first:last].copy()
        # Trim the first piece's head.
        head_cut = lo - offs[0]
        if head_cut > 0:
            offs[0] += head_cut
            lens[0] -= head_cut
            locs[0] += head_cut
        # Trim the last piece's tail.
        tail_cut = (offs[-1] + lens[-1]) - hi
        if tail_cut > 0:
            lens[-1] -= tail_cut
        return offs, lens, locs

    def bytes_in(self, lo: int, hi: int) -> int:
        """Total view bytes inside ``[lo, hi)``.

        Prefix-sum arithmetic over the precomputed cumulative lengths —
        no piece arrays are materialized (this runs per cycle per rank).
        """
        n = len(self.offsets)
        if hi <= lo or not n:
            return 0
        first = int(np.searchsorted(self.ends, lo, side="right"))
        last = int(np.searchsorted(self.offsets, hi, side="left"))
        if first >= last:
            return 0
        total = int(self._cumlens[last] - self._cumlens[first])
        head_cut = lo - int(self.offsets[first])
        if head_cut > 0:
            total -= head_cut
        tail_cut = int(self.ends[last - 1]) - hi
        if tail_cut > 0:
            total -= tail_cut
        return total

    def __eq__(self, other: object) -> bool:
        """Value equality: same extents mapping the same local bytes.

        Needed so specs holding views (e.g. ``RunSpec``) compare equal
        after a serialization round trip.
        """
        if not isinstance(other, FileView):
            return NotImplemented
        return (
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.local_offsets, other.local_offsets)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.offsets.tobytes(),
                self.lengths.tobytes(),
                self.local_offsets.tobytes(),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileView {self.num_extents} extents, {self.total_bytes} bytes>"


def compose(sources, lo: int, out: np.ndarray) -> np.ndarray:
    """The bytes a file written from ``sources`` holds at ``[lo, lo + len(out))``.

    ``sources`` yields ``(view, data)`` pairs in rank order; each view's
    pieces inside the range are laid over ``out`` in turn, so where views
    overlap the last rank wins, and holes stay zero.  Verification and
    integrity repair both ask this one function what the file should
    hold.  Fills and returns ``out``.
    """
    hi = lo + len(out)
    out.fill(0)
    for view, data in sources:
        offs, lens, locs = view.clip(lo, hi)
        for off, ln, loc in zip((offs - lo).tolist(), lens.tolist(), locs.tolist()):
            out[off : off + ln] = data[loc : loc + ln]
    return out

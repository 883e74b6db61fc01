"""Per-node buffer-pool arena for delivery-side receive copies.

The zero-copy send work (``readonly`` isend, rendezvous references) left
exactly one allocation per message on the hot path: the receive-side
copy — the eager snapshot a non-readonly sender pays for buffered
semantics, the bounce buffer an aggregator posts per expected sender,
and the gather leader's per-member stream buffer.  All of these are
short-lived, heavily size-repeating (cycle geometry fixes the shapes),
and single-owner — ideal pool fodder.

:class:`BufferPool` keeps power-of-two size-class freelists of ``uint8``
blocks.  :meth:`take` returns an exact-length *view* of a pooled block;
:meth:`release` maps the view back to its block via the view's ``base``
and returns it to the freelist.  Recycled blocks keep stale contents —
every pooled call site fully overwrites its view before reading it
(delivery copies the whole message, pack/scatter fill every byte), so no
zeroing pass is needed.

Lifetime rules (see DESIGN Appendix F):

* a block is owned by exactly one borrower between ``take`` and
  ``release``;
* the eager-snapshot block is the retransmission source, so the runtime
  releases it only at *terminal* delivery (success, unrepairable
  corruption, or dead source) — never between repair attempts;
* receive bounce buffers are released after their scatter/unpack
  consumed them;
* releasing a foreign (non-pooled) array is a harmless no-op, so
  callers need not track where a buffer came from.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """One node's arena of power-of-two ``uint8`` blocks."""

    def __init__(self, node: int) -> None:
        self.node = node
        #: block size -> free blocks of that size class
        self._free: dict[int, list[np.ndarray]] = {}
        #: id(block) -> block, for every block currently lent out
        self._lent: dict[int, np.ndarray] = {}
        # Counters (surfaced as ``bufpool.*`` run metrics).
        self.takes = 0
        self.hits = 0
        self.releases = 0
        self.bytes_allocated = 0

    @staticmethod
    def _size_class(nbytes: int) -> int:
        return 1 << (int(nbytes) - 1).bit_length() if nbytes > 1 else 1

    def take(self, nbytes: int) -> np.ndarray:
        """Borrow an exact-length ``uint8`` view (contents undefined)."""
        size = self._size_class(nbytes)
        self.takes += 1
        free = self._free.get(size)
        if free:
            block = free.pop()
            self.hits += 1
        else:
            block = np.empty(size, dtype=np.uint8)
            self.bytes_allocated += size
        self._lent[id(block)] = block
        return block[:nbytes]

    def release(self, view: np.ndarray | None) -> None:
        """Return a borrowed view's block; no-op for foreign arrays."""
        if view is None:
            return
        base = view.base if view.base is not None else view
        block = self._lent.pop(id(base), None)
        if block is None:
            return
        self._free.setdefault(block.size, []).append(block)
        self.releases += 1

    def close(self) -> None:
        """Drop every block, free or lent (the world is finished)."""
        self._free.clear()
        self._lent.clear()

    @property
    def outstanding(self) -> int:
        """Blocks currently lent out (should be 0 between collectives)."""
        return len(self._lent)

    def counters(self) -> dict[str, int]:
        return {
            "bufpool.takes": self.takes,
            "bufpool.hits": self.hits,
            "bufpool.releases": self.releases,
            "bufpool.bytes_allocated": self.bytes_allocated,
        }

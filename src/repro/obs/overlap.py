"""Overlap efficiency: how much write time hides under communication.

The paper's overlap algorithms (Sec. III) differ precisely in which
cycle's shuffle runs concurrently with which cycle's file write.  From
the recorded spans this module computes that directly:

* **io spans** (category ``"io"``) — intervals during which a rank has a
  file write being serviced (blocking call, or post → completion for
  the asynchronous variants);
* **comm spans** (category ``"comm"``) — intervals during which a
  rank's shuffle is in flight (``shuffle_init`` start → data placed).

For each rank, the comm intervals are merged into a union and every io
span is intersected with it; *overlap efficiency* is

    hidden_io_time / total_io_time

summed per rank (and overall).  ``no_overlap`` runs its shuffle and its
write strictly back to back, so its efficiency is ~0; ``write_comm2``
overlaps both neighbours' cycles and scores highest.  The per-pair
attribution (which *write* cycle overlapped which *comm* cycle) is kept
so benches can show the diagonal structure the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sim.trace import Span

__all__ = ["RankOverlap", "CyclePair", "OverlapReport", "overlap_report", "merge_intervals"]


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping ``(t0, t1)`` intervals, sorted."""
    merged: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def _intersection(t0: float, t1: float, union: Sequence[tuple[float, float]]) -> float:
    return sum(max(0.0, min(t1, b) - max(t0, a)) for a, b in union)


@dataclass(frozen=True)
class RankOverlap:
    """One rank's totals."""

    rank: int
    io_time: float
    hidden_time: float

    @property
    def efficiency(self) -> float:
        return self.hidden_time / self.io_time if self.io_time > 0 else 0.0


@dataclass(frozen=True)
class CyclePair:
    """Overlap attributed to one (write cycle, comm cycle) pair on a rank."""

    rank: int
    write_cycle: int
    comm_cycle: int
    seconds: float


@dataclass(frozen=True)
class OverlapReport:
    """Aggregated overlap-efficiency result computed from spans."""

    io_time: float
    hidden_time: float
    per_rank: tuple[RankOverlap, ...] = ()
    pairs: tuple[CyclePair, ...] = field(default=(), repr=False)

    @property
    def efficiency(self) -> float:
        """Fraction of total write time hidden under in-flight shuffles."""
        return self.hidden_time / self.io_time if self.io_time > 0 else 0.0


def overlap_report(spans: Iterable[Span]) -> OverlapReport:
    """Compute :class:`OverlapReport` from recorded spans.

    Uses closed ``"io"`` and ``"comm"`` spans of each rank; spans of
    other categories are ignored, so the report is stable under added
    instrumentation detail.
    """
    io_by_rank: dict[int, list[Span]] = {}
    comm_by_rank: dict[int, list[Span]] = {}
    for s in spans:
        if not s.closed or s.rank < 0:
            continue
        if s.category == "io":
            io_by_rank.setdefault(s.rank, []).append(s)
        elif s.category == "comm":
            comm_by_rank.setdefault(s.rank, []).append(s)

    per_rank: list[RankOverlap] = []
    pairs: list[CyclePair] = []
    total_io = 0.0
    total_hidden = 0.0
    for rank in sorted(io_by_rank):
        ios = io_by_rank[rank]
        comms = comm_by_rank.get(rank, [])
        union = merge_intervals((c.t0, c.t1) for c in comms)  # type: ignore[misc]
        io_time = sum(s.dur for s in ios)
        hidden = sum(_intersection(s.t0, s.t1, union) for s in ios)  # type: ignore[arg-type]
        per_rank.append(RankOverlap(rank=rank, io_time=io_time, hidden_time=hidden))
        total_io += io_time
        total_hidden += hidden
        for w in ios:
            for c in comms:
                seconds = w.overlap_with(c)
                if seconds > 0.0:
                    pairs.append(
                        CyclePair(
                            rank=rank,
                            write_cycle=w.cycle,
                            comm_cycle=c.cycle,
                            seconds=seconds,
                        )
                    )

    return OverlapReport(
        io_time=total_io,
        hidden_time=total_hidden,
        per_rank=tuple(per_rank),
        pairs=tuple(pairs),
    )

"""The run recorder: counters, gauges, histograms and span timelines.

One :class:`Recorder` holds everything a run reports about itself:

* **counters** — always on and exact: :meth:`Recorder.inc` is one dict
  bump, so tests and benchmarks assert on counts ("how many rendezvous
  handshakes happened?") without enabling anything;
* **gauges** — a last-written value (:meth:`~Recorder.set_gauge`) or a
  running maximum (:meth:`~Recorder.max_gauge`);
* **histograms** — fixed bucket boundaries chosen at creation, so
  snapshots of different runs always line up; ``counts[i]`` holds the
  observations ``<= boundaries[i]`` above the previous boundary, plus one
  overflow bucket;
* **spans** — named intervals of simulated time, stored only while
  ``active`` is True.  Hot call sites check that one flag and skip
  building a span's keyword arguments when it is off, the common
  benchmarking configuration.  ``max_records`` bounds span storage to
  the newest spans (a ring buffer); counters stay exact either way.

A :class:`Span` comes in two *flows*:

``sync``
    On the rank's call stack — spans of the same rank are properly
    nested (a ``fence`` inside a ``shuffle_init`` inside a ``cycle``).
    Exported as Chrome ``"X"`` (complete) events.

``async``
    An in-flight interval that outlives the posting call — an
    ``aio_write`` between submission and completion, a shuffle between
    ``shuffle_init`` and ``shuffle_wait``.  Async spans of one rank may
    overlap each other and any sync span; they are exported as Chrome
    ``"b"``/``"e"`` (async) event pairs.

:class:`repro.collio.api.RunPipeline` owns one recorder per run and hands
it to every attempt's world: :meth:`Recorder.start_attempt` moves the
clock origin, so span times are on the run's global clock, and
:meth:`Recorder.end_attempt` keeps only the spans that closed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["DURATION_BUCKETS", "SPAN_CATEGORIES", "Recorder", "Span"]

#: The categories the built-in instrumentation emits.
#:
#: ==============  =======================================================
#: ``algo``        one whole collective write on one rank
#: ``algo.cycle``  one internal-cycle iteration of an overlap algorithm
#: ``comm``        a cycle's shuffle *in flight* (init start → data placed)
#: ``comm.call``   time inside shuffle_init / shuffle_wait / wait_all calls
#: ``intranode``   a two-layer leader gathering its node's data
#: ``io``          a write being *serviced* (post/start → completion)
#: ``io.call``     time inside write_post / write_wait calls
#: ``io.aio``      an aio request inside the simulated OS (per client)
#: ``io.fs``       a striped write inside the parallel file system
#: ``sync``        fences, barriers and lock epochs of the RMA shuffles
#: ``retry``       one attempt of a retrying write (foreground or supervisor)
#: ``recovery``    a recovery attempt or failover gap (crash-fault runs)
#: ``staging``     the burst-buffer tier: per-node absorb/drain intervals
#:                 (async, on the staging track) and rank-side flush waits
#: ``integrity``   a write's storage read-back verify, an end-of-job scrub
#: ==============  =======================================================
SPAN_CATEGORIES = (
    "algo", "algo.cycle", "comm", "comm.call", "intranode", "io", "io.call",
    "io.aio", "io.fs", "sync", "retry", "recovery", "staging", "integrity",
)

#: Default histogram boundaries for simulated durations, seconds.
#: Decade ladder spanning sub-microsecond MPI call overheads up to whole
#: collective writes; the overflow bucket catches the rest.
DURATION_BUCKETS: tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


@dataclass
class Span:
    """One named interval of simulated time on one rank's timeline."""

    name: str
    category: str
    rank: int = -1
    cycle: int = -1
    t0: float = 0.0
    #: Completion time; ``None`` while the span is still open.
    t1: float | None = None
    #: Nesting depth among the rank's *sync* spans at open time.
    depth: int = 0
    #: ``"sync"`` (call-stack interval) or ``"async"`` (in-flight interval).
    flow: str = "sync"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def dur(self) -> float:
        """Duration in simulated seconds (0.0 while open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def overlap_with(self, other: "Span") -> float:
        """Length of the wall-clock intersection with ``other``, seconds."""
        if self.t1 is None or other.t1 is None:
            return 0.0
        return max(0.0, min(self.t1, other.t1) - max(self.t0, other.t0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.t1 is None else f"{self.t1:.9f}"
        return (
            f"Span({self.name!r}, {self.category!r}, rank={self.rank}, "
            f"cycle={self.cycle}, t0={self.t0:.9f}, t1={end})"
        )


class Recorder:
    """Counters, gauges, histograms and spans of one run (module docs)."""

    def __init__(self, active: bool = False, max_records: int | None = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1 or None, got {max_records}")
        #: Store spans; the one flag every span call site checks.
        self.active = active
        self.max_records = max_records
        self.counters: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        #: name -> ``{"boundaries", "counts", "count", "sum"}``.
        self.histograms: dict[str, dict] = {}
        self.spans: deque[Span] = deque(maxlen=max_records)
        #: Global time of the current attempt's local zero.
        self.origin = 0.0
        self._depths: dict[int, int] = {}

    # -- counters, gauges, histograms ------------------------------------
    def inc(self, name: str, by: int = 1) -> None:
        self.counters[name] += by

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self.counters[name]

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Keep the running maximum (a gauge starts at 0.0)."""
        if value > self.gauges.setdefault(name, 0.0):
            self.gauges[name] = value

    def observe(self, name: str, value: float,
                boundaries: Iterable[float] = DURATION_BUCKETS) -> None:
        """Add one observation to histogram ``name`` (created on first use)."""
        bounds = [float(b) for b in boundaries]
        hist = self.histograms.get(name)
        if hist is None:
            if not bounds or bounds != sorted(set(bounds)):
                raise ValueError(
                    f"histogram {name!r} needs strictly increasing boundaries, got {bounds}"
                )
            hist = self.histograms[name] = {
                "boundaries": bounds, "counts": [0] * (len(bounds) + 1), "count": 0, "sum": 0.0,
            }
        elif bounds != hist["boundaries"]:
            raise ValueError(f"histogram {name!r} already registered with different boundaries")
        hist["counts"][bisect_left(bounds, value)] += 1
        hist["count"] += 1
        hist["sum"] += value

    def snapshot(self) -> dict:
        """JSON-safe copy of every counter, gauge and histogram."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {**h, "boundaries": list(h["boundaries"]), "counts": list(h["counts"])}
                for name, h in sorted(self.histograms.items())
            },
        }

    # -- spans -------------------------------------------------------------
    def start_attempt(self, origin: float) -> None:
        """Put the next world's clock zero at global time ``origin``.

        Sync nesting restarts from zero: an aborted attempt leaves its
        ranks' spans open.
        """
        self.origin = origin
        self._depths.clear()

    def begin(
        self,
        time: float,
        name: str,
        category: str,
        rank: int = -1,
        cycle: int = -1,
        flow: str = "sync",
        **attrs: Any,
    ) -> Span | None:
        """Open (and store) a span; returns it as the handle for :meth:`end`.

        Returns ``None`` when the recorder is not active — :meth:`end`
        accepts that, so call sites never need their own guard.
        """
        if not self.active:
            return None
        depth = 0
        if flow == "sync":
            depth = self._depths.get(rank, 0)
            self._depths[rank] = depth + 1
        span = Span(
            name=name, category=category, rank=rank, cycle=cycle,
            t0=float(time) + self.origin, depth=depth, flow=flow, attrs=attrs,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span | None, time: float) -> Span | None:
        """Close ``span`` at ``time``.  ``None`` (inactive begin) is a no-op."""
        if span is None:
            return None
        span.t1 = float(time) + self.origin
        if span.flow == "sync":
            self._depths[span.rank] = max(0, self._depths.get(span.rank, 1) - 1)
        return span

    def end_attempt(self) -> None:
        """Drop the spans the attempt left open.  An aborted attempt's ranks
        never close theirs; tearing its world down may still close some,
        at a clock that no longer means anything."""
        self.spans = deque((s for s in self.spans if s.closed), maxlen=self.max_records)

    def clear(self) -> None:
        """Drop everything recorded."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self._depths.clear()

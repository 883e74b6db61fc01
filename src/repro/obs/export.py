"""Span exporters: Chrome ``trace_event`` JSON and CSV/summary tables.

The Chrome format (one JSON object with a ``traceEvents`` list) loads
directly in ``chrome://tracing`` and https://ui.perfetto.dev.  Mapping:

* pid 0 is the compute side — one tid (track) per MPI rank;
* pid 1 is the storage side — spans recorded with ``rank < 0`` (the
  parallel file system's stripe writes);
* pid 2 is the staging tier — ``staging``-category spans recorded with
  ``rank <= -2`` (per-node burst-buffer absorb/drain intervals; the
  encoded node id ``-rank - 2`` becomes the tid);
* sync spans become ``"X"`` (complete) events, which Chrome renders as
  a properly nested flame per track;
* async spans (in-flight shuffles, aio requests) become ``"b"``/``"e"``
  async event pairs with sequentially assigned ids, so partially
  overlapping intervals render on their own sub-tracks.

Timestamps are simulated seconds scaled to microseconds (the unit the
format mandates).  Serialization is deterministic — events are emitted
in recorded span order, ids are sequential, and ``json.dumps`` runs
with sorted keys and compact separators — so two runs with the same
seed produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.sim.trace import Span

__all__ = [
    "COMPUTE_PID",
    "STORAGE_PID",
    "STAGING_PID",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "spans_csv",
    "span_summary",
]

#: pid used for rank (compute) tracks and for storage-side spans.
COMPUTE_PID = 0
STORAGE_PID = 1
#: pid of the burst-buffer staging tier (one tid per node's buffer).
STAGING_PID = 2

_US = 1e6  # simulated seconds -> trace microseconds


def _track(span: Span) -> tuple[int, int]:
    """(pid, tid) placement: ranks pid 0, storage pid 1, staging pid 2."""
    if span.rank >= 0:
        return COMPUTE_PID, span.rank
    if span.category == "staging" and span.rank <= -2:
        return STAGING_PID, -span.rank - 2
    return STORAGE_PID, 0


def _json_safe_attrs(span: Span) -> dict[str, Any]:
    args: dict[str, Any] = {"cycle": span.cycle}
    for key, value in span.attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            args[key] = value
        else:
            args[key] = repr(value)
    return args


def chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Build the Chrome ``trace_event`` object for ``spans``.

    Open (unclosed) spans are skipped — a trace of intervals needs both
    endpoints.  Event order follows span-recording order, which is
    deterministic for a fixed seed.
    """
    events: list[dict[str, Any]] = []
    tracks_seen: set[tuple[int, int]] = set()
    body: list[dict[str, Any]] = []
    next_async_id = 1

    for span in spans:
        if not span.closed:
            continue
        pid, tid = _track(span)
        tracks_seen.add((pid, tid))
        common = {
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": tid,
            "ts": span.t0 * _US,
            "args": _json_safe_attrs(span),
        }
        if span.flow == "sync":
            body.append({**common, "ph": "X", "dur": span.dur * _US})
        else:
            async_id = next_async_id
            next_async_id += 1
            body.append({**common, "ph": "b", "id": async_id})
            body.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "pid": pid,
                    "tid": tid,
                    "ts": (span.t1 or span.t0) * _US,
                    "ph": "e",
                    "id": async_id,
                    "args": {},
                }
            )

    # Metadata first: names for the processes and one track per rank.
    process_labels = {COMPUTE_PID: "ranks", STORAGE_PID: "storage", STAGING_PID: "staging"}
    pids = sorted({pid for pid, _ in tracks_seen})
    for pid in pids:
        events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": process_labels[pid]}}
        )
    for pid, tid in sorted(tracks_seen):
        if pid == COMPUTE_PID:
            label = f"rank {tid}"
        elif pid == STAGING_PID:
            label = f"node {tid} buffer"
        else:
            label = "pfs"
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
             "args": {"name": label}}
        )
    events.extend(body)
    return {"displayTimeUnit": "ms", "traceEvents": events}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """Deterministic serialization: sorted keys, compact separators."""
    return json.dumps(chrome_trace(spans), sort_keys=True, separators=(",", ":"))


def write_chrome_trace(path: str, spans: Iterable[Span]) -> dict[str, Any]:
    """Validate, then write the Chrome trace to ``path``; returns the object."""
    obj = chrome_trace(spans)
    validate_chrome_trace(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return obj


# ----------------------------------------------------------------------
# Schema check
# ----------------------------------------------------------------------

_REQUIRED = {
    "X": ("name", "cat", "ph", "ts", "dur", "pid", "tid"),
    "b": ("name", "cat", "ph", "ts", "pid", "tid", "id"),
    "e": ("ph", "ts", "pid", "tid", "id"),
    "M": ("ph", "pid", "name", "args"),
}

#: The process tracks this exporter emits: compute ranks, the parallel
#: file system, and the burst-buffer staging tier.
_KNOWN_PROCESS_LABELS = ("ranks", "storage", "staging")


def validate_chrome_trace(trace: Any) -> int:
    """Check a Chrome ``trace_event`` object; returns the event count.

    Raises :class:`ValueError` describing the first violation:
    missing/ill-typed required fields, negative durations, unbalanced
    async begin/end pairs, or ``"X"`` events on one track that overlap
    without nesting (sync spans must form a proper flame).
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")

    sync_by_track: dict[tuple[int, int], list[tuple[float, float]]] = {}
    async_open: dict[tuple[int, Any], float] = {}

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        ph = ev.get("ph")
        if ph not in _REQUIRED:
            raise ValueError(f"event #{i} has unsupported ph={ph!r}")
        for key in _REQUIRED[ph]:
            if key not in ev:
                raise ValueError(f"event #{i} (ph={ph}) missing field {key!r}")
        if ph == "M":
            if ev["name"] == "process_name":
                label = ev.get("args", {}).get("name")
                if label not in _KNOWN_PROCESS_LABELS:
                    raise ValueError(
                        f"event #{i}: unknown process track {label!r}; "
                        f"known: {', '.join(_KNOWN_PROCESS_LABELS)}"
                    )
            continue
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event #{i} has invalid ts={ts!r}")
        track = (ev["pid"], ev["tid"])
        if ph == "X":
            dur = ev["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event #{i} has invalid dur={dur!r}")
            sync_by_track.setdefault(track, []).append((float(ts), float(ts) + float(dur)))
        elif ph == "b":
            key = (ev["pid"], ev["id"])
            if key in async_open:
                raise ValueError(f"event #{i}: async id {ev['id']!r} begun twice")
            async_open[key] = float(ts)
        elif ph == "e":
            key = (ev["pid"], ev["id"])
            if key not in async_open:
                raise ValueError(f"event #{i}: async end without begin (id={ev['id']!r})")
            if float(ts) < async_open.pop(key):
                raise ValueError(f"event #{i}: async end before its begin (id={ev['id']!r})")

    if async_open:
        dangling = sorted(str(k[1]) for k in async_open)
        raise ValueError(f"unbalanced async events, open ids: {', '.join(dangling)}")

    for track, intervals in sync_by_track.items():
        # Sorted by start (longest first at ties), each interval must either
        # nest inside the enclosing one or start at/after its end.
        stack: list[tuple[float, float]] = []
        for t0, t1 in sorted(intervals, key=lambda iv: (iv[0], -iv[1])):
            while stack and t0 >= stack[-1][1] - 1e-9:
                stack.pop()
            if stack and t1 > stack[-1][1] + 1e-9:
                raise ValueError(
                    f"track pid={track[0]} tid={track[1]}: sync span "
                    f"[{t0}, {t1}] overlaps [{stack[-1][0]}, {stack[-1][1]}] "
                    "without nesting"
                )
            stack.append((t0, t1))
    return len(events)


# ----------------------------------------------------------------------
# CSV / summary
# ----------------------------------------------------------------------

def _csv_escape(value: Any) -> str:
    text = str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def spans_csv(spans: Iterable[Span]) -> str:
    """Closed spans as RFC-4180 CSV (one row per span, recorded order)."""
    rows = ["name,category,rank,cycle,flow,depth,t0,t1,dur"]
    for s in spans:
        if not s.closed:
            continue
        rows.append(
            ",".join(
                _csv_escape(v)
                for v in (
                    s.name, s.category, s.rank, s.cycle, s.flow, s.depth,
                    f"{s.t0:.9f}", f"{s.t1:.9f}", f"{s.dur:.9f}",
                )
            )
        )
    return "\n".join(rows) + "\n"


def span_summary(spans: Sequence[Span]) -> list[dict[str, Any]]:
    """Per-(category, name) totals: count, total and mean duration."""
    agg: dict[tuple[str, str], list[float]] = {}
    for s in spans:
        if s.closed:
            agg.setdefault((s.category, s.name), []).append(s.dur)
    out = []
    for (category, name), durs in sorted(agg.items()):
        total = sum(durs)
        out.append(
            {
                "category": category,
                "name": name,
                "count": len(durs),
                "total": total,
                "mean": total / len(durs),
            }
        )
    return out

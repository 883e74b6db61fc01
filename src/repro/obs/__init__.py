"""Structured observability: exporters and overlap analysis over spans.

What a run records lives in one place, the run's
:class:`~repro.sim.trace.Recorder` (counters, gauges, histograms and
:class:`~repro.sim.trace.Span` timelines; re-exported here).  This
package turns what it recorded into output:

* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``) and CSV/summary exporters, plus the schema check;
* :mod:`repro.obs.overlap` — the overlap-efficiency derived metric
  (fraction of write time hidden under in-flight shuffles).

``python -m repro.obs validate trace.json`` runs the schema check from
the command line (used by CI on the bench smoke artifact).
"""

from repro.obs.export import (
    COMPUTE_PID,
    STORAGE_PID,
    chrome_trace,
    chrome_trace_json,
    span_summary,
    spans_csv,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.overlap import (
    CyclePair,
    OverlapReport,
    RankOverlap,
    merge_intervals,
    overlap_report,
)
from repro.sim.trace import DURATION_BUCKETS, SPAN_CATEGORIES, Recorder, Span

__all__ = [
    "Recorder",
    "Span",
    "SPAN_CATEGORIES",
    "DURATION_BUCKETS",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "spans_csv",
    "span_summary",
    "COMPUTE_PID",
    "STORAGE_PID",
    "OverlapReport",
    "RankOverlap",
    "CyclePair",
    "overlap_report",
    "merge_intervals",
]

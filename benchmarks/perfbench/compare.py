"""``compare A.json B.json``: did B get worse than A, by the benchmark's own bounds?

Per workload x end-to-end metric: both medians, the ratio B/A (base A),
the bound, and a verdict from the medians.  *unresolved* follows the
choosing-metrics rule: when the spread between a side's own samples exceeds
the bound, the medians settle it only if every sample of one side beats every
sample of the other; while the sides overlap the verdict is unresolved.
"""

from __future__ import annotations

import statistics

from benchmarks.perfbench.metrics import END_TO_END, FAIL_RATIO, Metric

__all__ = ["compare", "render"]


def _spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below 2 samples)."""
    if len(samples) < 2 or statistics.median(samples) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def _verdict(metric: Metric, a: float, b: float, sa: list[float], sb: list[float]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    if max(_spread(sa), _spread(sb)) > metric.bound:
        cost_a, cost_b = [sign * x for x in sa], [sign * x for x in sb]
        if min(cost_b) <= max(cost_a) and min(cost_a) <= max(cost_b):
            return "unresolved"
    # How much worse B's median is, as a share of A's (the base).
    worse_by = sign * (b - a) / a if a else sign * (b - a)
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "unchanged"


def compare(doc_a: dict, doc_b: dict) -> list[dict]:
    """One row per workload x end-to-end metric present in both documents."""
    rows = []
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            continue
        for metric in (*END_TO_END, FAIL_RATIO):
            va, vb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            sa = a["samples"].get(metric.name, [va])
            sb = b["samples"].get(metric.name, [vb])
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": va, "b": vb, "ratio_b_over_a": vb / va if va else None,
                "bound": metric.bound, "verdict": _verdict(metric, va, vb, sa, sb),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} {'B/A (base A)':>13} "
             f"{'bound':>7}  verdict"]
    for r in rows:
        ratio = "n/a" if r["ratio_b_over_a"] is None else f"{r['ratio_b_over_a']:.4f}"
        lines.append(
            f"{r['workload']:<16} {r['metric']:<14} {r['a']:>12.6g} {r['b']:>12.6g} "
            f"{ratio:>13} {r['bound']:>7g}  {r['verdict']}")
    return "\n".join(lines)

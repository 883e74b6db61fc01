"""Experiment harness reproducing the paper's evaluation (Sec. IV).

The harness runs *cases* — (benchmark, cluster, process count, problem
size) — with repeated measurements per (case, algorithm) series
(:func:`~repro.bench.runner.measure_all`: the one place that owns the
repetition methodology), and derives the paper's artifacts and the
extension studies.  Each is one entry of the campaign registry
``repro.bench.__main__.CAMPAIGNS`` (run -> tables -> gate), rendered
through the one :class:`~repro.bench.table.Table` type:

``table1``, ``fig1``-``fig4``, ``breakdown``, ``lustre``
    The paper's Table I, Figs. 1-4, the Sec. IV-A phase split and the
    Sec. V Lustre note (:mod:`repro.bench.experiments`).
``read``, ``overlap``, ``twolayer``, ``staging``, ``tune``
    Extension studies X4, X7, X9, X10 and the auto-tuner's ranking (X6)
    (:mod:`repro.bench.experiments`).
``ablations``, ``chaos``, ``integrity``, ``perf``
    :mod:`repro.bench.ablations` (X5), :mod:`repro.bench.chaos` (X8),
    :mod:`repro.bench.integrity` (X12), :mod:`repro.bench.perf` (X11).

``python -m repro.bench <experiment> [--mode full] [--reps N] [--scale N]
[--jobs N] [--csv-dir DIR] [--check]`` prints each artifact; the
``benchmarks/`` pytest suite runs reduced slices of the same code.
"""

from repro.bench.runner import Case, MatrixResult, run_case, run_matrix
from repro.bench.table import Column, Table
from repro.bench import experiments

__all__ = ["Case", "MatrixResult", "run_case", "run_matrix", "experiments",
           "Column", "Table"]

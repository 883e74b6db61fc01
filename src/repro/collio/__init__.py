"""Two-phase collective write — the paper's contribution.

This package reimplements Open MPI ``ompio``'s ``vulcan`` collective-write
component on the simulated substrate, with the paper's additions:

* :mod:`repro.collio.view` — per-rank file views (flat extent lists);
* :mod:`repro.collio.aggregation` — automatic aggregator selection;
* :mod:`repro.collio.domains` — contiguous file-domain partitioning;
* :mod:`repro.collio.plan` — cycle planning (who sends what to which
  aggregator in which internal cycle);
* :mod:`repro.collio.shuffle` — the three data-transfer primitives for the
  shuffle phase: two-sided non-blocking, one-sided with
  ``MPI_Win_fence`` (active target), one-sided with
  ``MPI_Win_lock``/``unlock`` + barrier (passive target);
* :mod:`repro.collio.context` — the per-rank context: sub-buffers,
  windows, cost model and the blocking / asynchronous file-access steps
  in both directions;
* :mod:`repro.collio.overlap` — the five algorithms: ``no_overlap``
  (baseline two-phase), ``comm_overlap`` (Alg. 1), ``write_overlap``
  (Alg. 2), ``write_comm`` (Alg. 3), ``write_comm2`` (Alg. 4);
* :mod:`repro.collio.api` — the public entry points
  :func:`~repro.collio.api.collective_write` (per-rank, MPI-style) and
  :func:`~repro.collio.api.run_collective_write` (one-call experiment),
  and the one run pipeline and result type behind both directions;
* :mod:`repro.collio.read` — collective reads: the scatter primitives
  and read loops, which is all that differs from a write, and
  :func:`~repro.collio.read.run_collective_read`.
"""

from repro.collio.config import CollectiveConfig
from repro.collio.view import FileView
from repro.collio.plan import TwoLayerPlan, TwoPhasePlan
from repro.collio.api import (
    CollectiveWriteResult,
    RunSpec,
    collective_write,
    run_collective_write,
)
from repro.collio.overlap import ALGORITHMS
from repro.collio.shuffle import SHUFFLE_PRIMITIVES
from repro.collio.read import (
    READ_ALGORITHMS,
    SCATTER_PRIMITIVES,
    run_collective_read,
)

__all__ = [
    "CollectiveConfig",
    "FileView",
    "TwoLayerPlan",
    "TwoPhasePlan",
    "CollectiveWriteResult",
    "RunSpec",
    "collective_write",
    "run_collective_write",
    "ALGORITHMS",
    "SHUFFLE_PRIMITIVES",
    "READ_ALGORITHMS",
    "SCATTER_PRIMITIVES",
    "run_collective_read",
]

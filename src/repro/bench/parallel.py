"""Shared parallel executor for campaign fan-out.

Every campaign in this package (and the auto-tuner's
:class:`~repro.tune.evaluate.Evaluator`) fans independent simulated runs
out over a ``multiprocessing`` pool through :func:`parallel_map`.  The
contract that makes ``--jobs 4`` output byte-identical to serial runs:

* **Tasks are pure module-level functions of plain data.**  Workers
  receive a picklable descriptor — usually the frozen ``RunSpec`` of the
  run itself — and return plain results; no live simulator object ever
  crosses the pool boundary, so fork/spawn differences cannot leak into
  results.
* **Order-preserving fold.**  ``parallel_map`` returns results in input
  order (``Pool.map``, not ``imap_unordered``), and the campaigns fold
  them into cells in exactly the order the serial loop would have; the
  rendered tables and CSVs come out byte-for-byte identical.
* **Content-hash seeds.**  Any seed a task needs is either an explicit
  arithmetic derivation carried inside the descriptor (``seed + rep``)
  or :func:`content_seed` of the descriptor itself — never a function of
  worker identity, scheduling order or Python's hash randomization.

``jobs=1`` runs inline (no processes spawned), which is also the
reference the parallel-determinism tests compare against.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["parallel_map", "content_seed", "pool_context"]


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits sys.path); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def content_seed(payload: dict, modulus: int = 2**31 - 1) -> int:
    """Deterministic seed from a stable content hash of ``payload``.

    ``payload`` must be plain data (the :func:`~repro.tune.cache.stable_key`
    contract).  Independent of evaluation order, worker count and hash
    randomization — the same descriptor always draws the same noise
    stream, so parallel and serial campaigns agree bit-for-bit.
    """
    # Imported lazily: repro.tune imports this module at package-init
    # time, so a module-level import here would be circular.
    from repro.tune.cache import stable_key

    return int(stable_key(payload)[:15], 16) % modulus


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Map ``fn`` over ``items``, preserving input order.

    ``fn`` must be a module-level function (picklable by reference) and
    ``items`` picklable plain data.  ``jobs=1`` — or a single item —
    evaluates inline in the calling process; ``jobs>1`` fans out over a
    pool of ``min(jobs, len(items))`` workers.  Either way the result
    list lines up index-for-index with ``items``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with pool_context().Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)

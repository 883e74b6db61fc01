"""Analytic collective operations with full synchronization semantics.

At the paper's scale (up to 704 ranks and >1000 internal cycles, each of
which may involve a barrier in the RMA variants), simulating every
dissemination-round message of every collective would multiply the event
count by orders of magnitude without affecting any effect the paper
studies — the paper's subject is the *point-to-point* shuffle traffic and
the file I/O.  Collectives therefore use LogP-style analytic cost models:

* every participating rank blocks until the last rank has entered,
* all ranks leave at ``max(entry times) + model_cost``, and
* data (for bcast/allgather) is exchanged as Python values.

The slight simplification that all ranks leave simultaneously (true for
barrier and allreduce; pessimistic by at most one tree depth for bcast)
is conservative and identical across all compared algorithms.

Cost formulas (``alpha`` = wire latency + per-call software overhead,
``beta`` = 1/bandwidth, ``P`` ranks, ``m`` message bytes):

=============  =====================================================
barrier        ``ceil(log2 P) * 2 * alpha``            (dissemination)
bcast          ``ceil(log2 P) * (alpha + m * beta)``   (binomial)
allreduce      ``ceil(log2 P) * 2 * (alpha + m*beta)`` (recursive dbl)
allgatherv     ``ceil(log2 P) * alpha + (M - m_min) * beta``
win_allocate   barrier + registration overhead
=============  =====================================================
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import MPIError
from repro.sim.engine import Engine, Event

__all__ = ["CollectiveModel", "CollectiveEngine"]

#: Fixed cost of registering an RMA window (memory pinning etc.), seconds.
WIN_ALLOCATE_OVERHEAD = 25e-6


class CollectiveModel:
    """LogP-style cost formulas for the analytic collectives."""

    def __init__(self, latency: float, bandwidth: float, call_overhead: float) -> None:
        if latency < 0 or bandwidth <= 0 or call_overhead < 0:
            raise ValueError("invalid collective model parameters")
        self.alpha = latency + call_overhead
        self.beta = 1.0 / bandwidth

    @staticmethod
    def _rounds(nprocs: int) -> int:
        """Tree/dissemination rounds for ``nprocs`` ranks."""
        return math.ceil(math.log2(nprocs)) if nprocs > 1 else 0

    def barrier(self, nprocs: int) -> float:
        return self._rounds(nprocs) * 2 * self.alpha

    def bcast(self, nprocs: int, nbytes: int) -> float:
        return self._rounds(nprocs) * (self.alpha + nbytes * self.beta)

    def allreduce(self, nprocs: int, nbytes: int) -> float:
        return self._rounds(nprocs) * 2 * (self.alpha + nbytes * self.beta)

    def allgatherv(self, nprocs: int, total_bytes: int, min_own_bytes: int) -> float:
        moved = max(0, total_bytes - min_own_bytes)
        return self._rounds(nprocs) * self.alpha + moved * self.beta


class _PendingCollective:
    """State of one in-flight collective instance."""

    __slots__ = ("kind", "entered", "exit", "payloads", "sizes", "root")

    def __init__(self, kind: str, exit: Event) -> None:
        self.kind = kind
        self.entered: dict[int, float] = {}
        #: The one event every rank waits on; ranks resume in entry order.
        self.exit = exit
        self.payloads: dict[int, Any] = {}
        self.sizes: dict[int, int] = {}
        self.root: int | None = None


class CollectiveEngine:
    """Coordinates collective instances across all ranks of a world.

    Ranks must invoke collectives in the same order (an MPI requirement);
    each collective instance is matched by its sequence number.  A kind
    mismatch raises :class:`MPIError` — catching real programming errors
    in the algorithms under test.
    """

    KINDS = ("barrier", "bcast", "allgather", "allreduce_sum", "allreduce_max", "win_allocate")

    def __init__(self, engine: Engine, nprocs: int, model: CollectiveModel) -> None:
        self.engine = engine
        self.nprocs = nprocs
        self.model = model
        self._pending: dict[int, _PendingCollective] = {}
        self.completed = 0

    def enter(
        self,
        seq: int,
        kind: str,
        rank: int,
        payload: Any = None,
        nbytes: int = 0,
        root: int | None = None,
    ) -> Event:
        """Record ``rank`` entering collective ``seq``; returns the exit event.

        All ranks of one instance get the same event and must wait on it
        right away, so its callback list is the entry order.  Its value
        is the collective's result: ``None`` for barrier, the root's
        payload for bcast, the list of payloads for allgather, the
        reduced value for allreduce.
        """
        if kind not in self.KINDS:
            raise MPIError(f"unknown collective kind {kind!r}")
        op = self._pending.get(seq)
        if op is None:
            op = _PendingCollective(kind, self.engine.event())
            self._pending[seq] = op
        if op.kind != kind:
            raise MPIError(
                f"collective mismatch at seq {seq}: rank {rank} called {kind!r}, "
                f"others called {op.kind!r}"
            )
        if rank in op.entered:
            raise MPIError(f"rank {rank} entered collective seq {seq} twice")
        if root is not None:
            if op.root is not None and op.root != root:
                raise MPIError(f"inconsistent root for collective seq {seq}")
            op.root = root
        op.entered[rank] = self.engine.now
        op.payloads[rank] = payload
        op.sizes[rank] = int(nbytes)
        if len(op.entered) == self.nprocs:
            self._complete(seq, op)
        return op.exit

    def _complete(self, seq: int, op: _PendingCollective) -> None:
        del self._pending[seq]
        self.completed += 1
        cost = self._cost_of(op)
        finish = max(op.entered.values()) + cost
        result = self._result_of(op)
        # Two stages (timer, then exit event) so the ranks resume behind
        # whatever else was already scheduled for the finish instant.
        trigger = self.engine.timeout(max(0.0, finish - self.engine.now))
        trigger.callbacks.append(lambda _e: op.exit.succeed(result))

    def _cost_of(self, op: _PendingCollective) -> float:
        model, nprocs = self.model, self.nprocs
        if op.kind == "barrier":
            return model.barrier(nprocs)
        if op.kind == "bcast":
            if op.root is None:
                raise MPIError("bcast without a root")
            return model.bcast(nprocs, op.sizes[op.root])
        if op.kind == "allgather":
            total = sum(op.sizes.values())
            return model.allgatherv(nprocs, total, min(op.sizes.values()))
        if op.kind in ("allreduce_sum", "allreduce_max"):
            return model.allreduce(nprocs, max(op.sizes.values()))
        if op.kind == "win_allocate":
            return model.barrier(nprocs) + WIN_ALLOCATE_OVERHEAD
        raise AssertionError(op.kind)

    def _result_of(self, op: _PendingCollective) -> Any:
        if op.kind in ("barrier", "win_allocate"):
            return None
        if op.kind == "bcast":
            return op.payloads[op.root]
        if op.kind == "allgather":
            return [op.payloads[r] for r in range(self.nprocs)]
        if op.kind == "allreduce_sum":
            total = None
            for r in range(self.nprocs):
                value = op.payloads[r]
                total = value if total is None else total + value
            return total
        if op.kind == "allreduce_max":
            return max(op.payloads[r] for r in range(self.nprocs))
        raise AssertionError(op.kind)

    @property
    def pending(self) -> int:
        return len(self._pending)

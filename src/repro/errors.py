"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single except clause while letting
programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting.

    Raised by :meth:`repro.sim.engine.Engine.run` when simulation time can
    no longer advance but at least one process has not terminated — the
    simulated program is deadlocked (e.g. a receive without a matching
    send, or an unmatched barrier).
    """


class MPIError(ReproError):
    """Violation of MPI semantics by the simulated program."""


class RMAError(MPIError):
    """Violation of one-sided communication (RMA) semantics."""


class DatatypeError(MPIError):
    """Invalid datatype construction or use."""


class FileSystemError(ReproError):
    """Error raised by the simulated parallel file system."""


class TransientWriteError(FileSystemError):
    """A storage target failed a write request transiently.

    Injected by the fault subsystem (:mod:`repro.faults`) to model media
    errors, dropped RPCs and storage-side restarts.  Retrying the same
    write is safe: the file system's writes are idempotent (same bytes at
    the same offset).
    """


class WriteTimeoutError(FileSystemError):
    """A write did not complete within its per-write timeout.

    The underlying request may still complete later; because writes are
    idempotent, callers reissue the write rather than cancel it.
    """


class AioSubmitError(FileSystemError):
    """The asynchronous I/O engine refused a submission (EAGAIN-style).

    Models degraded ``aio`` support (the paper's Lustre note taken to its
    failure extreme); callers fall back to the synchronous write path.
    """


class WriteRetryExhaustedError(FileSystemError):
    """A retried write failed on every attempt the policy allowed.

    ``__cause__`` carries the last underlying failure."""


class TargetDownError(FileSystemError):
    """A storage target is permanently down and rejected the request.

    Unlike :class:`TransientWriteError`, retrying against the *same*
    target cannot succeed; recovery requires remapping the target's
    stripes onto survivors (see :mod:`repro.fs.striping`), after which a
    reissued write lands on live targets.
    """


class CorruptDataError(FileSystemError):
    """A checksum verify caught corrupted extent bytes.

    Raised (or delivered through a failing event) by the integrity
    layer's verify points — message receive, RMA landing, burst-buffer
    drain, PFS read-back, post-write scrub — when an extent's CRC-32 no
    longer matches the checksum its producing rank recorded.  In
    ``detect`` mode it fires on the first mismatch; in ``repair`` mode
    only after every bounded restoration attempt failed.

    Deliberately a :class:`FileSystemError` so it flows through the
    existing event-failure plumbing (aio handles, drain processes), but
    the retry layers treat it as **non-retryable**: blind reissue cannot
    fix bytes that are already wrong at the source the retry would read
    from — repair is the integrity layer's job, and when *it* gives up,
    the run must fail loudly rather than loop.
    """


class RankCrashError(ReproError):
    """A simulated rank died mid-collective (injected permanent fault).

    Delivered by interrupting the rank's process generator; the engine
    run aborts at the crash instant.  ``rank`` and ``time`` identify the
    casualty for the recovery layer.
    """

    def __init__(self, rank: int, time: float) -> None:
        super().__init__(f"rank {rank} crashed at t={time:.9f}")
        self.rank = rank
        self.time = time


class RecoveryExhaustedError(ReproError):
    """Crash-fault recovery gave up after its attempt budget.

    ``__cause__`` carries the failure of the last attempt."""


class ConfigurationError(ReproError):
    """Invalid configuration of a cluster, file system or experiment."""


class WorkloadError(ReproError):
    """Invalid workload specification."""


class VerificationError(ReproError, AssertionError):
    """A ``verify=True`` run read back bytes that differ from its payloads.

    Also an :class:`AssertionError`, so ``except AssertionError`` oracles
    keep catching it."""

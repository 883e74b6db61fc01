"""Retrying writes: the recovery half of the fault subsystem.

:class:`RetryPolicy` is pure configuration; :class:`RetryingSink` is the
write sink (:mod:`repro.sink`) that applies it around one rank's
:class:`~repro.mpi.mpiio.MPIFile` during a collective write.  It changes
how the bytes travel, not when they count as durable: the sink's
``on_durable`` fires exactly where the plain sink's would.  The division
of labour mirrors a real I/O stack:

* the *first* submission of every write happens in the rank's own
  context (charging the usual MPI-call and client overheads, exactly as
  the plain sink does);
* *retries* of an asynchronous write are driven by a background
  supervisor process — the I/O stack's problem, progressing while the
  rank shuffles the next cycle — and surface through the request handle
  the rank waits on, which fails only after the policy is exhausted;
* repeated aio submission failures degrade the sink to the blocking
  path (sticky), modelling a client that gives up on broken ``aio``
  support the way the paper's Lustre note suggests one should.

Retrying is safe because the simulated file system's writes are
idempotent: reissuing the same bytes at the same offset converges to the
same file contents even when an earlier, timed-out attempt completes
later.  Every retry, timeout, degradation and recovery is emitted
through the world's recorder under a ``retry.*`` category.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.config import DEFAULT_RETRY_BACKOFF, DEFAULT_RETRY_LIMIT
from repro.errors import (
    AioSubmitError,
    ConfigurationError,
    CorruptDataError,
    FileSystemError,
    WriteRetryExhaustedError,
    WriteTimeoutError,
)
from repro.sim.primitives import any_of, defuse
from repro.sink import WriteSink

__all__ = ["RetryPolicy", "RetryingSink"]


def _posted_write(event, detail=None):
    # Imported lazily: repro.mpi pulls in the whole world (literally),
    # which would close an import cycle through fs.presets' re-export of
    # the fault presets.
    from repro.mpi.mpiio import PostedWrite

    return PostedWrite(event, detail)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry configuration for collective-write file access."""

    #: Retries allowed *after* the first attempt.  0 = fail fast, surfacing
    #: the underlying :class:`~repro.errors.FileSystemError` unchanged.
    max_retries: int = DEFAULT_RETRY_LIMIT
    #: First backoff delay, simulated seconds.
    backoff_base: float = DEFAULT_RETRY_BACKOFF
    #: Multiplier applied to the backoff on every further retry.
    backoff_factor: float = 2.0
    #: Per-attempt write timeout, simulated seconds (None = no timeout).
    #: A timed-out attempt counts as a failure and is reissued.
    write_timeout: float | None = None
    #: Consecutive aio submission failures before the sink degrades to
    #: blocking writes for the rest of the operation (None = never).
    degrade_after: int | None = 2
    #: Ceiling on any single backoff delay, seconds (None = uncapped —
    #: the pre-cap exponential behaviour, bit-identical by default).
    backoff_cap: float | None = None
    #: Jitter fraction in [0, 1]: each backoff is scaled by a
    #: deterministic uniform draw from ``[1 - jitter, 1]``, decorrelating
    #: retry storms across ranks without giving up reproducibility.
    #: 0 (the default) draws nothing and keeps delays bit-identical.
    jitter: float = 0.0
    #: Seed folded into the per-attempt jitter draws.
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ConfigurationError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.write_timeout is not None and self.write_timeout <= 0:
            raise ConfigurationError("write_timeout must be positive or None")
        if self.degrade_after is not None and self.degrade_after < 1:
            raise ConfigurationError("degrade_after must be >= 1 or None")
        if self.backoff_cap is not None and self.backoff_cap <= 0:
            raise ConfigurationError("backoff_cap must be positive or None")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_for(self, attempt: int, key: tuple = ()) -> float:
        """Backoff before retry number ``attempt`` (1-based), seconds.

        Capped exponential with deterministic jitter: the draw is seeded
        from ``(jitter_seed, attempt, key)`` — no shared RNG state, so
        adding jittered retries anywhere never perturbs other streams,
        and the same (rank, offset, attempt) always backs off the same
        amount within one policy.
        """
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.backoff_cap is not None:
            delay = min(delay, self.backoff_cap)
        if self.jitter:
            seed = zlib.crc32(f"{self.jitter_seed}:{attempt}:{key}".encode())
            u = random.Random(seed).random()
            delay *= 1.0 - self.jitter * u
        return delay

    def with_(self, **overrides) -> "RetryPolicy":
        return replace(self, **overrides)


class RetryingSink(WriteSink):
    """The plain sink with a :class:`RetryPolicy` around both verbs."""

    def __init__(self, fh, policy: RetryPolicy, on_durable=None) -> None:
        super().__init__(fh, on_durable)
        self.policy = policy
        self.engine = fh.comm.engine
        self.recorder = fh.comm.world.cluster.recorder
        self.rank = fh.comm.rank
        #: Sticky: once True, every write takes the blocking path.
        self.degraded = False
        self._submit_failures = 0  # consecutive aio submission refusals

    # ------------------------------------------------------------------
    def _write(self, offset: int, data, checksum):
        """Blocking write with retries (generator; run in rank context)."""
        policy = self.policy
        attempt = 0
        while True:
            span = self.recorder.begin(
                self.engine.now, "write_attempt", "retry",
                rank=self.rank, offset=offset, attempt=attempt,
            )
            try:
                yield from self.fh.write_at(
                    offset, data, timeout=policy.write_timeout,
                    checksum=checksum,
                )
                self.recorder.end(span, self.engine.now)
                if attempt:
                    self.recorder.inc("retry.recovered")
                return
            except CorruptDataError:
                # Not retryable here: the integrity layer already spent
                # its bounded repair attempts (or detect mode wants the
                # failure surfaced).  Reissuing the same bytes would just
                # burn the whole retry budget on a lost cause.
                self.recorder.end(span, self.engine.now)
                raise
            except FileSystemError as exc:
                self.recorder.end(span, self.engine.now)
                attempt += 1
                if policy.max_retries == 0:
                    raise
                if attempt > policy.max_retries:
                    self.recorder.inc("retry.exhausted")
                    raise WriteRetryExhaustedError(
                        f"write at offset {offset} failed on all {attempt} attempts"
                    ) from exc
                backoff = policy.backoff_for(attempt, key=(self.rank, offset))
                self.recorder.inc("retry.attempt")
                if backoff:
                    yield self.engine.timeout(backoff)

    # ------------------------------------------------------------------
    def _post(self, offset: int, data, checksum):
        """Asynchronous write with supervised retries (generator).

        Returns a :class:`~repro.mpi.mpiio.PostedWrite` whose event fails
        only once the policy is exhausted, so overlap algorithms can
        safely include it in a joint ``waitall``.  After repeated
        submission refusals the sink degrades (sticky) to the blocking
        path and returns an already-completed handle.
        """
        policy = self.policy
        if self.degraded:
            yield from self._write(offset, data, checksum)
            return self._completed_handle()
        try:
            req = yield from self.fh.iwrite_at(offset, data, checksum=checksum)
        except AioSubmitError:
            self._submit_failures += 1
            if (
                policy.degrade_after is not None
                and self._submit_failures >= policy.degrade_after
            ):
                self.degraded = True
                self.recorder.inc("retry.degraded")
            if policy.max_retries == 0:
                raise
            # This write falls back to the blocking path right away; the
            # rank loses this cycle's overlap but the pipeline stays
            # correct.
            self.recorder.inc("retry.sync_fallback")
            yield from self._write(offset, data, checksum)
            return self._completed_handle()
        self._submit_failures = 0
        outer = self.engine.event()
        self.engine.process(
            self._supervise(offset, data, req.event, outer, checksum),
            name=f"retry.r{self.rank}@{offset}",
        )
        return _posted_write(outer, req)

    def _completed_handle(self):
        done = self.engine.event()
        done.succeed(self.engine.now)
        return _posted_write(done)

    # ------------------------------------------------------------------
    def _supervise(self, offset, data, event, outer, checksum=None):
        """Background supervisor: await, time out, reissue (generator).

        Runs as its own process so retries progress while the rank is
        busy shuffling; the rank only observes ``outer``.
        """
        policy = self.policy
        engine = self.engine
        attempt = 0
        attempt_span = None  # span of the current *reissued* attempt
        while True:
            failure = None
            try:
                if policy.write_timeout is None:
                    yield event
                else:
                    timer = engine.timeout(policy.write_timeout)
                    yield any_of(engine, [event, timer])
                    if not event.triggered:
                        # The attempt may still complete (or fail) later;
                        # either way nobody waits on it any more.
                        defuse(event)
                        self.recorder.inc("retry.timeout")
                        failure = WriteTimeoutError(
                            f"write at offset {offset} timed out after "
                            f"{policy.write_timeout}s"
                        )
            except CorruptDataError as exc:
                # Non-retryable (see _write): surface it through the
                # handle without burning the retry budget.
                self.recorder.end(attempt_span, engine.now)
                outer.fail(exc)
                return
            except FileSystemError as exc:
                failure = exc
            self.recorder.end(attempt_span, engine.now)
            attempt_span = None
            if failure is None:
                if attempt:
                    self.recorder.inc("retry.recovered")
                outer.succeed(engine.now)
                return
            attempt += 1
            if policy.max_retries == 0:
                outer.fail(failure)
                return
            if attempt > policy.max_retries:
                self.recorder.inc("retry.exhausted")
                exhausted = WriteRetryExhaustedError(
                    f"write at offset {offset} failed on all {attempt} attempts"
                )
                exhausted.__cause__ = failure
                outer.fail(exhausted)
                return
            backoff = policy.backoff_for(attempt, key=(self.rank, offset))
            self.recorder.inc("retry.attempt")
            if backoff:
                yield engine.timeout(backoff)
            # Reissue inside the I/O stack (no rank involvement).  A
            # refused aio submission here forces the synchronous path for
            # this attempt — the OS writing through without aio.
            attempt_span = self.recorder.begin(
                engine.now, "retry_attempt", "retry",
                rank=self.rank, flow="async", offset=offset, attempt=attempt,
            )
            try:
                event = self.fh.aio.submit(
                    self.fh.file, offset, data, checksum=checksum
                ).event
            except AioSubmitError:
                self.recorder.inc("retry.sync_fallback")
                event = self.fh.pfs.write(
                    self.fh.file, offset, data, checksum=checksum
                )

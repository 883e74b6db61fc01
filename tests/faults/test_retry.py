"""RetryPolicy / RetryingSink semantics, including the regression pair
from the issue: a fault that kills a write a peer waits on must surface as
DeadlockError (not a hang or a silent pass), and ``max_retries=0`` must
surface the *underlying* FileSystemError unchanged."""

import numpy as np
import pytest

from repro.collio import CollectiveConfig, RunSpec, run_collective_write
from repro.collio.view import FileView
from repro.errors import (
    AioSubmitError,
    ConfigurationError,
    DeadlockError,
    TransientWriteError,
    WriteRetryExhaustedError,
    WriteTimeoutError,
)
from repro.faults import FaultSpec, RetryPolicy
from repro.mpi import World
from repro.payload import Sized

from tests.faults.conftest import small_cluster, small_fs


def contiguous_views(nprocs, per_rank):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


CFG = CollectiveConfig(cb_buffer_size=16 * 1024)


class TestRetryPolicy:
    def test_defaults(self):
        p = RetryPolicy()
        assert p.max_retries >= 1
        assert p.backoff_base > 0

    def test_backoff_is_geometric(self):
        p = RetryPolicy(backoff_base=1e-4, backoff_factor=2.0)
        assert p.backoff_for(1) == 1e-4
        assert p.backoff_for(2) == 2e-4
        assert p.backoff_for(4) == 8e-4

    @pytest.mark.parametrize(
        "kw",
        [
            dict(max_retries=-1),
            dict(backoff_base=-1.0),
            dict(backoff_factor=0.5),
            dict(write_timeout=0.0),
            dict(degrade_after=0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kw)

    def test_with_override(self):
        assert RetryPolicy().with_(max_retries=0).max_retries == 0


class TestErrorSurfacing:
    def run(self, algorithm, faults, retry):
        return run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 30_000),
            algorithm=algorithm,
            config=CFG, faults=faults, retry=retry,
        ))

    def test_no_policy_fails_directly(self):
        with pytest.raises(TransientWriteError):
            self.run("no_overlap", FaultSpec(write_fail_rate=1.0), None)

    @pytest.mark.parametrize("algorithm", ["no_overlap", "write_overlap"])
    def test_zero_retries_surfaces_underlying_error(self, algorithm):
        """Regression: max_retries=0 must re-raise the original
        FileSystemError, not wrap it in WriteRetryExhaustedError."""
        with pytest.raises(TransientWriteError):
            self.run(
                algorithm, FaultSpec(write_fail_rate=1.0), RetryPolicy(max_retries=0)
            )

    @pytest.mark.parametrize("algorithm", ["no_overlap", "write_overlap"])
    def test_exhaustion_wraps_with_cause(self, algorithm):
        with pytest.raises(WriteRetryExhaustedError) as excinfo:
            self.run(
                algorithm, FaultSpec(write_fail_rate=1.0), RetryPolicy(max_retries=2)
            )
        assert isinstance(excinfo.value.__cause__, TransientWriteError)

    def test_zero_retries_surfaces_aio_submit_error(self):
        with pytest.raises(AioSubmitError):
            self.run(
                "write_overlap",
                FaultSpec(aio_submit_fail_rate=1.0),
                RetryPolicy(max_retries=0),
            )

    def test_recovery_is_counted(self):
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 30_000), algorithm="no_overlap",
            config=CFG, verify=True,
            faults=FaultSpec(write_fail_rate=0.5),
            retry=RetryPolicy(max_retries=12),
        ))
        assert res.verified
        assert res.trace_counters["retry.recovered"] >= 1


def test_dead_peer_write_failure_raises_deadlock():
    """Regression: when a fault kills rank 0's write and it bails out,
    rank 1 — blocked on a receive from rank 0 — must see DeadlockError,
    not hang and not pass silently."""
    world = World(
        small_cluster(), 2, fs_spec=small_fs(),
        faults=FaultSpec(write_fail_rate=1.0),
    )

    def program(mpi):
        fh = yield from mpi.file_open("/dead")
        if mpi.rank == 0:
            try:
                yield from fh.write_at(0, np.ones(8192, dtype=np.uint8))
            except TransientWriteError:
                return "bailed"  # dies without sending
            yield from mpi.send(1, tag=9, data=Sized(64))
            return "sent"
        buf = np.zeros(64, dtype=np.uint8)
        yield from mpi.recv(0, tag=9, buffer=buf)
        return "received"

    with pytest.raises(DeadlockError):
        world.run(program)


class TestDegradation:
    def test_refused_submissions_degrade_to_blocking(self):
        """With aio permanently refusing, the writer falls back per-write,
        then turns sticky-degraded; the run still completes byte-exactly."""
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 60_000), algorithm="write_overlap",
            config=CollectiveConfig(cb_buffer_size=8 * 1024),
            verify=True,
            faults=FaultSpec(aio_submit_fail_rate=1.0),
            retry=RetryPolicy(max_retries=4, degrade_after=2),
        ))
        assert res.verified
        assert res.trace_counters["fault.aio_submit"] >= 2
        assert res.trace_counters["retry.sync_fallback"] >= 2
        assert res.trace_counters["retry.degraded"] >= 1

    def test_degradation_is_sticky(self):
        """After degrade_after refusals no further submissions are tried,
        so the refusal count stops growing."""
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=2,
            views=contiguous_views(2, 60_000), algorithm="write_overlap",
            config=CollectiveConfig(cb_buffer_size=8 * 1024),
            faults=FaultSpec(aio_submit_fail_rate=1.0),
            retry=RetryPolicy(degrade_after=1),
        ))
        # One aggregator, degrade_after=1: exactly one refusal ever fires.
        assert res.trace_counters["fault.aio_submit"] == res.trace_counters["retry.degraded"]


class TestWriteTimeout:
    def test_blocking_write_timeout_raises(self):
        world = World(small_cluster(), 1, fs_spec=small_fs())

        def program(mpi):
            fh = yield from mpi.file_open("/t")
            try:
                yield from fh.write_at(0, np.ones(100_000, dtype=np.uint8), timeout=1e-9)
            except WriteTimeoutError:
                return "timeout"
            return "completed"

        assert world.run(program) == ["timeout"]

    def test_abandoned_write_still_lands_harmlessly(self):
        """A timed-out write is abandoned (defused); when it completes
        later anyway, the run must not abort and the bytes land
        (idempotence makes the late landing safe)."""
        world = World(small_cluster(), 1, fs_spec=small_fs())

        def program(mpi):
            fh = yield from mpi.file_open("/late")
            data = np.full(4096, 9, dtype=np.uint8)
            try:
                yield from fh.write_at(0, data, timeout=1e-9)
            except WriteTimeoutError:
                pass
            # Outlive the abandoned write's completion.
            yield mpi.engine.timeout(1.0)
            return "ok"

        assert world.run(program) == ["ok"]
        assert (world.pfs.open("/late").contents()[:4096] == 9).all()

    def test_retry_exhaustion_from_timeouts(self):
        """Timeouts shorter than any possible service time exhaust the
        policy; the cause chain points at WriteTimeoutError."""
        with pytest.raises(WriteRetryExhaustedError) as excinfo:
            run_collective_write(RunSpec(
                cluster=small_cluster(), fs=small_fs(), nprocs=2,
                views=contiguous_views(2, 30_000), algorithm="no_overlap",
                config=CFG,
                faults=FaultSpec(straggler_rate=1.0, straggler_factor=100.0),
                retry=RetryPolicy(max_retries=1, write_timeout=1e-9),
            ))
        assert isinstance(excinfo.value.__cause__, WriteTimeoutError)

    def test_generous_timeout_never_fires(self):
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 30_000), algorithm="write_overlap",
            config=CFG, verify=True,
            faults=FaultSpec(write_fail_rate=0.2),
            retry=RetryPolicy(max_retries=10, write_timeout=10.0),
        ))
        assert res.verified
        assert "retry.timeout" not in res.trace_counters

"""End-to-end failover: crash/outage recovery, determinism, acceptance.

The acceptance criterion of the recovery subsystem: with crash-class
fault rates > 0, ``run_collective_write`` still completes for all five
overlap algorithms and the file bytes are identical to the fault-free
run of the same seed — and repeated same-seed runs produce identical
recovery traces.
"""

import json

import numpy as np
import pytest

from repro.collio.api import RunSpec, run_collective_write
from repro.collio.view import FileView
from repro.errors import RankCrashError, TargetDownError
from repro.faults import FaultSpec, RetryPolicy, fault_preset
from repro.units import MS

from tests.faults.conftest import small_cluster, small_fs

ALL_ALGORITHMS = ["no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"]


def contiguous_views(nprocs, per_rank):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


def base_spec(algorithm="write_overlap", nprocs=4, per_rank=64 * 1024, **kw):
    return RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=nprocs,
        views=contiguous_views(nprocs, per_rank), algorithm=algorithm,
        verify=True, **kw,
    )


def chaos_faults(**kw):
    defaults = dict(rank_crash_rate=0.9, ost_outage_rate=0.5, crash_window=2 * MS)
    defaults.update(kw)
    return FaultSpec(**defaults)


class TestCrashRecovery:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_acceptance_all_algorithms_survive_crash_and_outage(self, algorithm):
        # Crash AND outage rates > 0; verify=True asserts the file is
        # byte-identical to the fault-free expectation.
        run = run_collective_write(
            base_spec(algorithm, seed=7, faults=chaos_faults())
        )
        assert run.verified
        assert run.recovery is not None
        assert run.recovery.completed
        assert run.recovery.attempts >= 2
        assert run.recovery.crashed_ranks or run.recovery.down_targets

    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_journal_replay_matches_fault_free_bytes(self, seed):
        # Property: after an injected aggregator crash, the journal-driven
        # replay yields file bytes identical to the fault-free run of the
        # same seed.  verify=True reconstructs the expected bytes from
        # the original views/payloads — exactly the fault-free outcome.
        spec = base_spec("write_comm2", seed=seed,
                         faults=chaos_faults(ost_outage_rate=0.0))
        run = run_collective_write(spec)
        assert run.verified
        if run.recovery.crashed_ranks:
            assert run.recovery.attempts > 1
            assert run.recovery.journal_commits >= 0

    def test_crashed_rank_excluded_from_aggregators(self):
        run = run_collective_write(
            base_spec("write_overlap", seed=7,
                      faults=chaos_faults(ost_outage_rate=0.0))
        )
        assert run.recovery.crashed_ranks
        # The reported plan is the attempt-1 plan; the crash demotes the
        # rank in later attempts, visible through the re-election test
        # below and the successful completion here.
        assert run.recovery.completed

    def test_failover_charges_detection_and_overhead(self):
        from repro.recovery import RecoverySpec

        slow = RecoverySpec(detection_timeout=1e-3, failover_overhead=5e-4)
        fast = RecoverySpec(detection_timeout=1e-5, failover_overhead=1e-5)
        faults = chaos_faults(ost_outage_rate=0.0)
        run_slow = run_collective_write(
            base_spec("no_overlap", seed=7, faults=faults, recovery=slow))
        run_fast = run_collective_write(
            base_spec("no_overlap", seed=7, faults=faults, recovery=fast))
        assert run_slow.recovery.attempts == run_fast.recovery.attempts > 1
        failovers = run_slow.recovery.attempts - 1
        assert run_slow.elapsed - run_fast.elapsed == pytest.approx(
            failovers * (1e-3 + 5e-4 - 2e-5), rel=1e-6)

    def test_recovery_metrics_exposed(self):
        run = run_collective_write(base_spec("write_comm", seed=7,
                                             faults=chaos_faults()))
        counters = run.metrics["counters"]
        assert counters["recovery.attempts"] == run.recovery.attempts
        assert counters["recovery.rank_crashes"] == len(run.recovery.crashed_ranks)
        assert counters["recovery.ost_outages"] == len(run.recovery.down_targets)
        assert "fs.writes_rejected" in counters
        assert "fs.writes_failed" in counters
        assert run.metrics["gauges"]["fs.targets_down"] == len(run.recovery.down_targets)

    @pytest.mark.parametrize("staged", [False, True])
    def test_recovery_metrics_superset_of_fault_free(self, staged):
        # Both kinds of run leave through one builder, so a recovery run
        # reports every counter/gauge a fault-free run does.
        from repro.staging.spec import StagingSpec

        kw = {"staging": StagingSpec(policy="immediate", capacity=1 << 20)} if staged else {}
        clean = run_collective_write(base_spec("write_overlap", seed=7, **kw))
        faults = fault_preset("flaky_aggregator").with_(
            crash_window=0.8 * clean.elapsed)
        run = run_collective_write(
            base_spec("write_overlap", seed=7, faults=faults, **kw))
        assert run.recovery.attempts > 1
        for kind in ("counters", "gauges"):
            assert set(run.metrics[kind]) >= set(clean.metrics[kind])
        counters = run.metrics["counters"]
        assert (counters["comm.messages_intra_node"]
                + counters["comm.messages_inter_node"]) > 0
        if staged:
            assert "staging.capacity" in run.metrics["gauges"]

    def test_fault_free_run_reports_no_recovery(self):
        run = run_collective_write(base_spec("write_overlap", seed=7))
        assert run.recovery is None


class TestOutageRecovery:
    def test_outage_recovers_and_remaps(self):
        # Window ~80% of the fault-free duration so an outage fires mid-run.
        baseline = run_collective_write(base_spec("write_overlap", seed=7))
        run = run_collective_write(base_spec(
            "write_overlap", seed=7,
            faults=FaultSpec(ost_outage_rate=0.9,
                             crash_window=0.8 * baseline.elapsed),
        ))
        assert run.verified
        assert run.recovery.down_targets
        assert run.elapsed > baseline.elapsed

    def test_outage_with_retry_recovers_inline(self):
        # With a retry policy the rejected write is reissued after the
        # remap and succeeds without a restart attempt (attempts == 1).
        baseline = run_collective_write(base_spec("no_overlap", seed=7))
        run = run_collective_write(base_spec(
            "no_overlap", seed=7, retry=RetryPolicy(max_retries=3),
            faults=FaultSpec(ost_outage_rate=0.4,
                             crash_window=0.8 * baseline.elapsed),
        ))
        assert run.verified
        assert run.recovery.completed
        assert run.recovery.attempts == 1
        assert run.recovery.down_targets


class TestDeterminism:
    @staticmethod
    def fingerprint(run):
        spans = [
            (s.name, s.category, s.rank, s.cycle, round(s.t0, 15), round(s.t1, 15))
            for s in run.spans
        ]
        return json.dumps(
            {"events": run.recovery.events, "spans": spans,
             "elapsed": run.elapsed,
             "crashed": run.recovery.crashed_ranks,
             "down": run.recovery.down_targets},
            sort_keys=True,
        )

    def test_same_seed_same_recovery_trace(self):
        spec = base_spec("write_comm2", seed=11, trace=True, faults=chaos_faults())
        a = run_collective_write(spec)
        b = run_collective_write(spec)
        assert a.recovery.attempts > 1
        assert self.fingerprint(a) == self.fingerprint(b)

    def test_same_seed_same_successor(self):
        # Deterministic re-election: repeated runs pick the same
        # replacement aggregators after the same crash.
        spec = base_spec("write_overlap", seed=7,
                         faults=chaos_faults(ost_outage_rate=0.0))
        a = run_collective_write(spec)
        b = run_collective_write(spec)
        assert a.recovery.crashed_ranks == b.recovery.crashed_ranks
        assert a.recovery.events == b.recovery.events

    def test_different_seed_different_schedule(self):
        faults = chaos_faults(rank_crash_rate=0.5, ost_outage_rate=0.5)
        outcomes = {
            (tuple(run.recovery.crashed_ranks), tuple(run.recovery.down_targets))
            for run in (
                run_collective_write(base_spec("no_overlap", seed=s, faults=faults))
                for s in range(6)
            )
        }
        assert len(outcomes) > 1


class TestTargetDownError:
    def test_undetected_down_target_rejects_and_is_learned(self):
        from repro.fs.pfs import ParallelFileSystem
        from repro.sim.engine import Engine

        engine = Engine()
        pfs = ParallelFileSystem(engine, small_fs())
        f = pfs.open("/f")
        pfs.targets[0].go_down()
        ev = pfs.write(f, 0, np.zeros(4096, dtype=np.uint8))
        ev.defused = True
        engine.run()
        assert isinstance(ev.value, TargetDownError)
        assert pfs.targets[0].writes_rejected == 1
        assert 0 in pfs.known_down

    def test_zero_retries_surfaces_target_down(self):
        # Regression: TargetDownError must pass through a zero-retry
        # policy unchanged (it is a FileSystemError subclass).
        from repro.faults.retry import RetryingSink
        from repro.mpi.world import World

        world = World(small_cluster(), 1, fs_spec=small_fs())
        world.pfs.targets[0].go_down()

        def program(mpi):
            fh = yield from mpi.file_open("/f")
            sink = RetryingSink(fh, RetryPolicy(max_retries=0))
            yield from sink.write(0, np.zeros(4096, dtype=np.uint8))

        with pytest.raises(TargetDownError):
            world.run(program)

    def test_retry_remaps_onto_survivors(self):
        # With retries the rejection teaches the client the target is
        # down; the reissued write lands on the remap survivor inline.
        from repro.faults.retry import RetryingSink
        from repro.mpi.world import World

        world = World(small_cluster(), 1, fs_spec=small_fs())
        world.pfs.targets[0].go_down()

        def program(mpi):
            fh = yield from mpi.file_open("/f")
            sink = RetryingSink(fh, RetryPolicy(max_retries=3))
            yield from sink.write(0, np.arange(4096, dtype=np.int64).astype(np.uint8))

        world.run(program)
        assert 0 in world.pfs.known_down
        assert world.pfs.open("/f").size == 4096

    def test_rank_crash_error_carries_rank_and_time(self):
        err = RankCrashError(3, 1.5)
        assert err.rank == 3
        assert err.time == 1.5
        assert "rank 3" in str(err)


class TestReElection:
    @staticmethod
    def cluster():
        from repro.hardware.cluster import Cluster
        from repro.sim.engine import Engine

        return Cluster(Engine(), small_cluster())

    def test_exclude_removes_rank_from_duty(self):
        from repro.collio.aggregation import select_aggregators

        cluster = self.cluster()
        before = select_aggregators(cluster, 8, 1 << 20, 1 << 16)
        victim = before[0]
        after = select_aggregators(cluster, 8, 1 << 20, 1 << 16,
                                   exclude=frozenset({victim}))
        assert victim not in after
        assert after  # someone took over

    def test_exclude_is_deterministic(self):
        from repro.collio.aggregation import select_aggregators

        cluster = self.cluster()
        a = select_aggregators(cluster, 8, 1 << 20, 1 << 16,
                               exclude=frozenset({0, 5}))
        b = select_aggregators(cluster, 8, 1 << 20, 1 << 16,
                               exclude=frozenset({0, 5}))
        assert a == b

    def test_all_excluded_falls_back_to_all_ranks(self):
        from repro.collio.aggregation import select_aggregators

        cluster = self.cluster()
        out = select_aggregators(cluster, 4, 1 << 20, 1 << 16,
                                 exclude=frozenset(range(4)))
        assert out  # degenerate case: no survivors -> use everyone


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["flaky_aggregator", "ost_outage", "degraded_cluster"]
    )
    def test_crash_presets_have_permanent_faults(self, name):
        spec = fault_preset(name)
        assert spec.enabled
        assert spec.has_permanent

    def test_flaky_aggregator_preset_run_completes(self):
        baseline = run_collective_write(base_spec("write_overlap", seed=7))
        faults = fault_preset("flaky_aggregator").with_(
            crash_window=0.8 * baseline.elapsed)
        run = run_collective_write(base_spec("write_overlap", seed=7, faults=faults))
        assert run.verified
        assert run.recovery.completed

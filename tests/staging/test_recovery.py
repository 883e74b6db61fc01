"""Staging under crash faults: the buffer is volatile, the journal is not.

A journal entry for a staged cycle commits only once the drain has made
the bytes durable on the PFS — so a crash that destroys buffered (not
yet drained) data leaves those cycles uncommitted and the recovery
replay re-drives them.  These tests assert the end-to-end consequence:
crashy staged runs still complete with byte-perfect files, and the
metrics expose what the crash destroyed.
"""

import pytest

from repro.collio.api import RunSpec, run_collective_write
from repro.collio.view import FileView
from repro.faults import FaultSpec
from repro.payload import Sized
from repro.staging import DRAIN_POLICIES, StagingSpec
from repro.units import MS

from tests.faults.conftest import small_cluster, small_fs

NPROCS = 4
PER_RANK = 64 * 1024


def crashy_spec(policy, **kw):
    views = {r: FileView.contiguous(r * PER_RANK, PER_RANK) for r in range(NPROCS)}
    defaults = dict(
        cluster=small_cluster(), fs=small_fs(), nprocs=NPROCS, views=views,
        algorithm="write_overlap", seed=7, verify=True,
        faults=FaultSpec(rank_crash_rate=0.9, ost_outage_rate=0.5,
                         crash_window=2 * MS),
        staging=StagingSpec.for_scale(policy=policy),
    )
    defaults.update(kw)
    return RunSpec(**defaults)


class TestCrashRecoveryWithStaging:
    @pytest.mark.parametrize("policy", DRAIN_POLICIES)
    def test_staged_run_survives_crashes_with_correct_bytes(self, policy):
        run = run_collective_write(crashy_spec(policy))
        assert run.verified is True
        assert run.recovery is not None and run.recovery.completed
        assert run.recovery.attempts >= 2

    def test_volatile_buffer_loss_is_accounted(self):
        run = run_collective_write(crashy_spec("end_of_job"))
        counters = run.metrics["counters"]
        # Counters accumulate over all attempts; the final attempt's
        # drain completes, so drains never exceed absorbs.
        assert counters["staging.absorbed_bytes"] >= \
            counters["staging.drained_bytes"] >= NPROCS * PER_RANK
        assert counters["staging.lost_bytes"] >= 0

    def test_staged_file_matches_direct_crashy_file(self):
        staged = run_collective_write(crashy_spec("immediate"))
        direct = run_collective_write(crashy_spec("immediate", staging=None))
        assert staged.verified is True and direct.verified is True
        assert staged.file_sha256 == direct.file_sha256

    def test_journal_commits_deferred_to_drain(self):
        # Fault-free staged run with a journal: every committed cycle
        # was committed by its drain completion, and all cycles commit.
        from repro.mpi.world import World
        from repro.recovery.journal import CycleJournal
        from repro.collio.api import collective_write, build_plan
        from repro.collio.config import CollectiveConfig
        from repro.collio.overlap import make_algorithm

        views = {r: FileView.contiguous(r * PER_RANK, PER_RANK)
                 for r in range(NPROCS)}
        journal = CycleJournal()
        world = World(small_cluster(), NPROCS, fs_spec=small_fs(),
                      journal=journal)
        config = CollectiveConfig(
            cb_buffer_size=8192,
            staging=StagingSpec(policy="immediate", capacity=1 << 20),
        )
        algo = make_algorithm("write_overlap")
        plan = build_plan(
            world.cluster, NPROCS, views, config,
            algo.cycle_bytes(config.cb_buffer_size),
            stripe_size=small_fs().stripe_size,
        )

        def program(mpi):
            fh = yield from mpi.file_open("/scratch/staged")
            return (yield from collective_write(
                mpi, fh, views[mpi.rank], Sized(PER_RANK), plan,
                algorithm="write_overlap", config=config,
            ))

        world.run(program)
        tier = world.staging
        assert tier is not None
        assert journal.commits > 0
        assert tier.undrained_bytes() == 0

"""The write-sink contract (``repro.sink``).

Every sink kind — plain, retrying, staged under each drain policy, and
staged on a faulty PFS whose drains retry — fires ``on_durable`` exactly
once per extent and never before the extent's bytes are on the PFS, for
blocking and posted writes alike.  The context picks one sink per rank,
and the journal commit counts of the crash-recovery runs are pinned in
the open.
"""

import numpy as np
import pytest

from repro.collio.api import build_plan, collective_write, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.context import AlgoContext
from repro.collio.overlap import make_algorithm
from repro.collio.view import FileView
from repro.faults import FaultSpec, RetryingSink, RetryPolicy
from repro.mpi import World
from repro.mpi.mpiio import MPIFile
from repro.mpi.request import Request
from repro.payload import Sized
from repro.recovery.journal import CycleJournal
from repro.sink import WriteSink
from repro.staging import DRAIN_POLICIES, StagingSpec, StagingTier
from repro.staging.tier import StagedSink

from tests.faults.conftest import small_cluster, small_fs
from tests.golden.scenario import timing_specs
from tests.staging.test_recovery import crashy_spec

#: (file offset, bytes) of the extents every contract run writes.
EXTENTS = [(0, 4096), (8192, 4096), (20000, 3000), (40960, 16384)]


def plain(fh, on_durable, world):
    return WriteSink(fh, on_durable)


def retrying(fh, on_durable, world):
    return RetryingSink(fh, RetryPolicy(max_retries=12), on_durable)


def staged(policy):
    def make(fh, on_durable, world):
        tier = StagingTier.ensure(world, StagingSpec(policy=policy, capacity=1 << 20))
        return StagedSink(fh, tier.scheduler_for_rank(0), on_durable)

    make.__name__ = f"staged_{policy}"
    return make


#: Sink factory and the write-fault rate its PFS runs under: the retrying
#: sink and the last staged sink see failures (foreground retries, drain
#: retries respectively).
SINKS = [(plain, 0.0), (retrying, 0.5)] + [(staged(p), 0.0) for p in DRAIN_POLICIES] + [
    (staged("immediate"), 0.5)
]


def run_contract(make_sink, fault_rate, verb):
    faults = FaultSpec(write_fail_rate=fault_rate) if fault_rate else None
    world = World(small_cluster(), 1, fs_spec=small_fs(), faults=faults)
    fired = []  # (extent index, simulated time, bytes on the PFS then)
    settled = []

    def program(mpi):
        fh = yield from mpi.file_open("/sink")

        def on_durable(token):
            index, offset, data = token
            on_pfs = bool((fh.file.read(offset, len(data)) == data).all())
            fired.append((index, mpi.now, on_pfs))

        sink = make_sink(fh, on_durable, world)
        handles = []
        for index, (offset, nbytes) in enumerate(EXTENTS):
            data = np.full(nbytes, index + 1, dtype=np.uint8)
            token = (index, offset, data)
            if verb == "blocking":
                yield from sink.write(offset, data, cycle=index, token=token)
            else:
                handles.append((yield from sink.post(offset, data, cycle=index, token=token)))
        for handle in handles:
            yield from mpi.wait(handle)
            before = len(fired)
            handle.settle(mpi.world.cluster.recorder, mpi.now)
            settled.append(len(fired) - before)
        drained = sink.flush()
        if drained is not None:
            yield from mpi.wait(Request(drained, "flush"))

    world.run(program)
    return world, fired, settled


@pytest.mark.parametrize("verb", ["blocking", "posted"])
@pytest.mark.parametrize("make_sink,fault_rate", SINKS, ids=lambda x: getattr(x, "__name__", x))
def test_on_durable_fires_once_per_extent_after_it_is_durable(make_sink, fault_rate, verb):
    world, fired, settled = run_contract(make_sink, fault_rate, verb)
    assert sorted(index for index, _, _ in fired) == list(range(len(EXTENTS)))
    assert all(on_pfs for _, _, on_pfs in fired), fired
    staged_sink = make_sink.__name__.startswith("staged")
    if verb == "posted":
        # A direct posted write is durable when the rank settles it (one
        # commit each); a staged one when its drain lands it (none then).
        assert settled == [0 if staged_sink else 1] * len(EXTENTS)
    counters = world.cluster.recorder.counters
    if fault_rate and staged_sink:
        assert world.staging.counter_totals()["staging.drain_retries"] > 0
    elif fault_rate:
        assert counters["retry.attempt"] > 0


class TestSinkChoice:
    """The context builds one sink per rank from the world and config."""

    @staticmethod
    def ctx(rank, staging, retry):
        world = World(small_cluster(), 2, fs_spec=small_fs())
        views = {0: FileView.contiguous(0, 4096), 1: FileView.contiguous(4096, 4096)}
        config = CollectiveConfig(cb_buffer_size=4096, retry=retry, staging=staging)
        if staging is not None:
            StagingTier.ensure(world, staging)
        plan = build_plan(world.cluster, 2, views, config, 4096, stripe_size=4096)
        comm = world.comm(rank)
        return AlgoContext(comm, MPIFile(comm, "/x"), plan, views[rank],
                           Sized(4096), config, nsub=1)

    @pytest.mark.parametrize("staging,retry,kind", [
        (None, None, WriteSink),
        (None, RetryPolicy(), RetryingSink),
        (StagingSpec(policy="immediate"), None, StagedSink),
        (StagingSpec(policy="immediate"), RetryPolicy(), StagedSink),
    ])
    def test_aggregator_sink(self, staging, retry, kind):
        ctx = self.ctx(0, staging, retry)
        assert ctx.is_aggregator
        assert type(ctx.sink) is kind

    def test_non_aggregators_never_stage(self):
        ctx = self.ctx(1, StagingSpec(policy="immediate"), None)
        assert not ctx.is_aggregator
        assert type(ctx.sink) is WriteSink


class TestJournalCommitCounts:
    """How often the journal commits in runs whose commit instants the
    recovery fixed points pin (one commit per durable cycle)."""

    def test_recovery_golden(self):
        result = run_collective_write(timing_specs()["recovery/write_comm2/two_sided"])
        assert (result.recovery.attempts, result.recovery.journal_commits) == (3, 1)
        assert result.metrics["counters"]["recovery.journal_commit"] == 1

    @pytest.mark.parametrize("policy", [*DRAIN_POLICIES, None])
    def test_staging_recovery_runs(self, policy):
        spec = crashy_spec(policy or "immediate")
        if policy is None:
            spec = spec.replace(staging=None)
        result = run_collective_write(spec)
        attempts = 2 if policy is None else 3
        assert (result.recovery.attempts, result.recovery.journal_commits) == (attempts, 1)

    @pytest.mark.parametrize("algorithm", ["no_overlap", "write_overlap", "write_comm"])
    @pytest.mark.parametrize("policy", [None, "immediate", "end_of_job"])
    def test_fault_free_journaled_run_commits_every_cycle(self, algorithm, policy):
        nprocs, per_rank = 4, 64 * 1024
        views = {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}
        journal = CycleJournal()
        world = World(small_cluster(), nprocs, fs_spec=small_fs(), journal=journal)
        config = CollectiveConfig(
            cb_buffer_size=8192, retry=RetryPolicy(),
            staging=None if policy is None else StagingSpec(policy=policy, capacity=1 << 20),
        )
        algo = make_algorithm(algorithm)
        plan = build_plan(world.cluster, nprocs, views, config,
                          algo.cycle_bytes(config.cb_buffer_size),
                          stripe_size=small_fs().stripe_size)

        def program(mpi):
            fh = yield from mpi.file_open("/journaled")
            yield from collective_write(mpi, fh, views[mpi.rank], Sized(per_rank), plan,
                                        algorithm=algorithm, config=config)

        world.run(program)
        assert plan.num_cycles == (32 if algorithm == "no_overlap" else 64)
        assert journal.commits == plan.num_cycles
        assert world.cluster.recorder.count("recovery.journal_commit") == plan.num_cycles

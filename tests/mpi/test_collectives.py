"""Tests for the analytic collectives."""

import pytest

from repro.errors import MPIError, RankCrashError
from repro.mpi.collops import CollectiveEngine, CollectiveModel
from repro.sim import Engine
from repro.sim.primitives import defuse

from tests.mpi.conftest import make_world


class TestBarrier:
    def test_no_rank_exits_before_last_enters(self):
        def program(mpi):
            yield from mpi.compute(0.1 * mpi.rank)  # staggered arrival
            yield from mpi.barrier()
            return mpi.now

        res = make_world(nprocs=4).run(program)
        assert min(res) >= 0.3  # slowest entered at 0.3
        assert max(res) - min(res) < 1e-12  # all leave together

    def test_barrier_cost_grows_with_ranks(self):
        def program(mpi):
            yield from mpi.barrier()
            return mpi.now

        t4 = make_world(nprocs=4).run(program)[0]
        t16 = make_world(nprocs=16).run(program)[0]
        assert t16 > t4

    def test_repeated_barriers(self):
        def program(mpi):
            for _ in range(5):
                yield from mpi.barrier()
            return mpi.now

        res = make_world(nprocs=3).run(program)
        assert len(set(res)) == 1


class TestDataCollectives:
    def test_bcast(self):
        def program(mpi):
            obj = {"x": 42} if mpi.rank == 2 else None
            got = yield from mpi.bcast(obj, root=2, nbytes=64)
            return got

        res = make_world(nprocs=4).run(program)
        assert all(r == {"x": 42} for r in res)

    def test_allgather_ordered_by_rank(self):
        def program(mpi):
            got = yield from mpi.allgather(f"r{mpi.rank}", nbytes=16)
            return got

        res = make_world(nprocs=4).run(program)
        assert all(r == ["r0", "r1", "r2", "r3"] for r in res)

    def test_allreduce_sum(self):
        def program(mpi):
            total = yield from mpi.allreduce_sum(mpi.rank + 1)
            return total

        assert make_world(nprocs=4).run(program) == [10, 10, 10, 10]

    def test_allreduce_max(self):
        def program(mpi):
            result = yield from mpi.allreduce_max(mpi.rank * 3)
            return result

        assert make_world(nprocs=4).run(program) == [9, 9, 9, 9]

    def test_larger_payload_costs_more(self):
        def program(mpi, nbytes):
            yield from mpi.bcast("x", root=0, nbytes=nbytes)
            return mpi.now

        small = make_world(nprocs=4).run(program, 10)[0]
        large = make_world(nprocs=4).run(program, 10_000_000)[0]
        assert large > small


class TestOrderingErrors:
    def test_kind_mismatch_detected(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.barrier()
            else:
                yield from mpi.allreduce_sum(1)

        with pytest.raises(MPIError, match="mismatch"):
            make_world(nprocs=2).run(program)


class TestModel:
    def test_single_rank_collectives_free(self):
        m = CollectiveModel(latency=1e-6, bandwidth=1e9, call_overhead=1e-7)
        assert m.barrier(1) == 0.0
        assert m.bcast(1, 100) == 0.0

    def test_log_scaling(self):
        m = CollectiveModel(latency=1e-6, bandwidth=1e9, call_overhead=0)
        assert m.barrier(4) == pytest.approx(2 * m.barrier(2))
        assert m.barrier(17) == pytest.approx(m.barrier(32))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CollectiveModel(latency=-1, bandwidth=1e9, call_overhead=0)
        with pytest.raises(ValueError):
            CollectiveModel(latency=1e-6, bandwidth=0, call_overhead=0)

    def test_allgatherv_excludes_own_bytes(self):
        m = CollectiveModel(latency=0, bandwidth=100.0, call_overhead=0)
        assert m.allgatherv(4, total_bytes=400, min_own_bytes=100) == pytest.approx(3.0)


class TestSharedExitEvent:
    """All ranks of one collective instance wait on one exit event."""

    def test_ranks_resume_in_entry_order(self):
        order = []

        def program(mpi):
            yield from mpi.compute(0.1 * (3 - mpi.rank))  # rank 3 enters first
            yield from mpi.barrier()
            order.append(mpi.rank)

        world = make_world(nprocs=4)
        world.run(program)
        assert order == [3, 2, 1, 0]
        assert world.coll.completed == 1 and world.coll.pending == 0

    def test_crash_of_a_waiting_rank_leaves_the_others_waking_in_order(self):
        eng = Engine()
        coll = CollectiveEngine(eng, 3, CollectiveModel(1e-6, 1e9, 1e-7))
        woke = []

        def rank(r, arrival):
            yield eng.timeout(arrival)
            got = yield coll.enter(1, "allgather", r, payload=r, nbytes=8)
            woke.append((r, got))

        procs = [eng.process(rank(r, t)) for r, t in enumerate((0.0, 0.1, 1.0))]
        # Rank 0 has entered and waits on the shared event when it dies.
        eng.timeout(0.5).callbacks.append(
            lambda _e: procs[0].interrupt(RankCrashError(0, eng.now))
        )
        defuse(procs[0])
        eng.run()
        assert woke == [(1, [0, 1, 2]), (2, [0, 1, 2])]
        assert not procs[0].ok and procs[1].ok and procs[2].ok
        assert eng.now == pytest.approx(1.0 + coll.model.allgatherv(3, 24, 8))

"""Edge-path tests for the communicator and collective engine."""

import numpy as np
import pytest

from repro.errors import MPIError, RMAError

from tests.mpi.conftest import make_world


class TestCollectiveEdges:
    def test_bcast_inconsistent_root_detected(self):
        def program(mpi):
            yield from mpi.bcast("x", root=mpi.rank % 2)

        with pytest.raises(MPIError, match="root"):
            make_world(nprocs=2).run(program)

    def test_collective_engine_rejects_unknown_kind(self):
        world = make_world(nprocs=2)
        with pytest.raises(MPIError, match="unknown collective"):
            world.coll.enter(1, "alltoallw", 0)

    def test_double_entry_detected(self):
        world = make_world(nprocs=2)
        world.coll.enter(1, "barrier", 0)
        with pytest.raises(MPIError, match="twice"):
            world.coll.enter(1, "barrier", 0)

    def test_pending_counter(self):
        world = make_world(nprocs=2)
        assert world.coll.pending == 0
        world.coll.enter(1, "barrier", 0)
        assert world.coll.pending == 1

    def test_allgather_preserves_arbitrary_objects(self):
        def program(mpi):
            payload = {"rank": mpi.rank, "data": [mpi.rank] * 3}
            got = yield from mpi.allgather(payload, nbytes=32)
            return got

        res = make_world(nprocs=3).run(program)
        assert res[0][2] == {"rank": 2, "data": [2, 2, 2]}


class TestWindowEdges:
    def test_double_attach_rejected(self):
        world = make_world(nprocs=2)
        world.window_registry.attach(5, 0, 64)
        with pytest.raises(RMAError, match="twice"):
            world.window_registry.attach(5, 0, 64)

    def test_window_local_size(self):
        def program(mpi):
            win = yield from mpi.win_allocate(128 if mpi.rank == 0 else 0)
            yield from mpi.barrier()
            return win.local_size

        res = make_world(nprocs=2).run(program)
        assert res == [128, 0]

    def test_lock_queue_length_observable(self):
        def program(mpi):
            win = yield from mpi.win_allocate(64 if mpi.rank == 0 else 0)
            yield from mpi.barrier()
            queued = None
            if mpi.rank != 0:
                yield from win.lock(0, exclusive=True)
                if mpi.rank == 1:
                    # while rank 1 holds, others queue
                    yield from mpi.compute(0.05)
                    queued = win.window.lock_state(0).queue_length
                yield from win.unlock(0, exclusive=True)
            yield from mpi.barrier()
            return queued

        res = make_world(nprocs=4).run(program)
        assert res[1] == 2  # ranks 2 and 3 were waiting


class TestComputeAndMisc:
    def test_negative_compute_rejected(self):
        def program(mpi):
            yield from mpi.compute(-1.0)

        with pytest.raises(ValueError):
            make_world(nprocs=1).run(program)

    def test_zero_compute_is_free(self):
        def program(mpi):
            yield from mpi.compute(0.0)
            return mpi.now

        assert make_world(nprocs=1).run(program) == [0.0]

    def test_now_and_node_properties(self):
        def program(mpi):
            yield from mpi.compute(0.5)
            return (mpi.now, mpi.node)

        res = make_world(nprocs=8).run(program)
        assert res[0] == (0.5, 0)
        assert res[7] == (0.5, 1)  # 4 cores/node in the test cluster

    def test_blocking_send_recv_roundtrip_values(self):
        def program(mpi):
            buf = np.zeros(10, dtype=np.uint8)
            if mpi.rank == 0:
                yield from mpi.send(1, tag=4, data=np.arange(10, dtype=np.uint8))
                return None
            got = yield from mpi.recv(0, tag=4, buffer=buf)
            assert got is buf
            return got.tolist()

        res = make_world(nprocs=2).run(program)
        assert res[1] == list(range(10))


class TestFsEdges:
    def test_aio_read_fills_buffer_in_background(self):
        from repro.fs import AioEngine, FsSpec, ParallelFileSystem
        from repro.sim import Engine
        from repro.units import MB

        eng = Engine()
        pfs = ParallelFileSystem(
            eng,
            FsSpec(name="x", num_targets=2, target_bandwidth=100 * MB,
                   target_latency=1e-4, stripe_size=1024),
        )
        f = pfs.open("f")
        f.write(0, np.arange(5000, dtype=np.int16).view(np.uint8))
        aio = AioEngine(eng, pfs)

        def proc(eng):
            out = np.zeros(400, dtype=np.uint8)
            req = aio.submit_read(f, 100, out)
            assert not req.done
            assert not out.any()  # lands when the read completes
            yield req.event
            return out

        p = eng.process(proc(eng))
        eng.run()
        expected = np.arange(5000, dtype=np.int16).view(np.uint8)[100:500]
        assert np.array_equal(p.value, expected)

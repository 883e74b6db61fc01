"""Tests for MPI-IO handles: blocking vs asynchronous writes and progress."""

import numpy as np
import pytest

from repro.payload import Sized

from tests.mpi.conftest import make_world


class TestBlockingWrite:
    def test_data_lands_in_file(self):
        def program(mpi):
            fh = yield from mpi.file_open("/data")
            data = np.full(1000, mpi.rank + 1, dtype=np.uint8)
            yield from fh.write_at(1000 * mpi.rank, data)
            yield from mpi.barrier()
            return None

        world = make_world(nprocs=4, fs=True)
        world.run(program)
        contents = world.pfs.open("/data").contents()
        for r in range(4):
            assert (contents[1000 * r : 1000 * (r + 1)] == r + 1).all()

    def test_blocking_write_blocks_mpi_progress(self):
        """A rendezvous message to a rank inside write_at stalls until it returns."""
        size = 500_000  # rendezvous

        def program(mpi):
            handle = yield from mpi.file_open("/x")
            if mpi.rank == 0:
                t0 = mpi.now
                yield from mpi.send(1, tag=1, data=Sized(size))
                return mpi.now - t0
            req = yield from mpi.irecv(0, tag=1, buffer=Sized(size))
            # long blocking write: no MPI progress for its duration
            yield from handle.write_at(0, np.zeros(50_000_000, dtype=np.uint8))
            yield from mpi.wait(req)
            return mpi.now

        world = make_world(nprocs=2, fs=True)
        res = world.run(program)
        write_time = 50_000_000 / world.pfs.spec.aggregate_bandwidth
        # Sender could not complete until the receiver's write finished.
        assert res[0] > 0.5 * write_time

    def test_file_open_is_collective(self):
        def program(mpi):
            yield from mpi.compute(0.1 * mpi.rank)
            fh = yield from mpi.file_open("/y")
            return mpi.now

        res = make_world(nprocs=3, fs=True).run(program)
        assert min(res) >= 0.2


class TestAsyncWrite:
    def test_iwrite_progresses_in_background(self):
        def program(mpi):
            fh = yield from mpi.file_open("/bg")
            req = yield from fh.iwrite_at(0, np.ones(10_000_000, dtype=np.uint8))
            posted = mpi.now
            yield from mpi.compute(10.0)  # plenty of time
            assert req.done
            yield from mpi.wait(req)
            return posted

        world = make_world(nprocs=1, fs=True)
        res = world.run(program)
        assert res[0] < 0.01  # posting is cheap
        assert world.pfs.open("/bg").size == 10_000_000

    def test_iwrite_then_wait_equals_data(self):
        def program(mpi):
            fh = yield from mpi.file_open("/d")
            data = np.arange(5000, dtype=np.uint16).view(np.uint8)
            req = yield from fh.iwrite_at(100, data)
            yield from mpi.wait(req)
            out = np.zeros(data.size, dtype=np.uint8)
            yield from fh.read_at(100, out)
            return out

        world = make_world(nprocs=1, fs=True)
        res = world.run(program)
        expected = np.arange(5000, dtype=np.uint16).view(np.uint8)
        assert np.array_equal(res[0], expected)

    def test_wait_on_iwrite_gives_mpi_progress(self):
        """Waiting on an iwrite request still serves rendezvous handshakes."""
        size = 500_000

        def program(mpi):
            fh = yield from mpi.file_open("/z")
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(size))
                return mpi.now
            req_recv = yield from mpi.irecv(0, tag=1, buffer=Sized(size))
            req_io = yield from fh.iwrite_at(0, np.zeros(50_000_000, dtype=np.uint8))
            yield from mpi.wait(req_io)  # progress active here
            yield from mpi.wait(req_recv)
            return mpi.now

        world = make_world(nprocs=2, fs=True)
        res = world.run(program)
        write_time = 50_000_000 / world.pfs.spec.aggregate_bandwidth
        # The handshake completed during the I/O wait: sender finished early.
        assert res[0] < 0.5 * write_time

    def test_accounting(self):
        def program(mpi):
            fh = yield from mpi.file_open("/acc")
            yield from fh.write_at(0, np.zeros(100, dtype=np.uint8))
            req = yield from fh.iwrite_at(100, np.zeros(200, dtype=np.uint8))
            yield from mpi.wait(req)
            return (fh.sync_writes, fh.async_writes, fh.bytes_written)

        res = make_world(nprocs=1, fs=True).run(program)
        assert res[0] == (1, 1, 300)


class TestWorld:
    def test_aio_engine_requires_fs(self):
        from repro.errors import ConfigurationError

        world = make_world(nprocs=1, fs=False)
        with pytest.raises(ConfigurationError):
            world.aio_engine(0)

    def test_nprocs_capacity_check(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_world(nprocs=100)  # 4 nodes x 4 cores = 16

    def test_run_returns_rank_ordered_results(self):
        def program(mpi):
            yield from mpi.compute(0.001 * (mpi.size - mpi.rank))
            return mpi.rank

        assert make_world(nprocs=4).run(program) == [0, 1, 2, 3]

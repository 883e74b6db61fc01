"""Tests for one-sided Get (the read path's RMA primitive)."""

import numpy as np
import pytest

from repro.errors import RMAError
from repro.payload import Sized

from tests.mpi.conftest import make_world


class TestGetFence:
    def test_get_reads_remote_window(self):
        def program(mpi):
            win = yield from mpi.win_allocate(256 if mpi.rank == 0 else 0)
            if mpi.rank == 0:
                win.local_buffer[:] = np.arange(256, dtype=np.uint8)
            yield from win.fence()
            out = np.zeros(16, dtype=np.uint8)
            if mpi.rank == 1:
                yield from win.get(0, out, 32)
            yield from win.fence()
            return out if mpi.rank == 1 else None

        res = make_world(nprocs=2).run(program)
        assert np.array_equal(res[1], np.arange(32, 48, dtype=np.uint8))

    def test_get_needs_no_target_progress(self):
        def program(mpi):
            win = yield from mpi.win_allocate(64 if mpi.rank == 0 else 0)
            if mpi.rank == 0:
                win.local_buffer[:] = 5
            yield from win.fence()
            if mpi.rank == 1:
                evt = yield from win.get(0, np.zeros(64, np.uint8), 0)
                yield evt
                done = mpi.now
                yield from win.fence()
                return done
            yield from mpi.compute(0.5)  # target computes: no MPI calls
            yield from win.fence()
            return None

        res = make_world(nprocs=2).run(program)
        assert res[1] < 0.01

    def test_get_bounds_checked(self):
        def program(mpi):
            win = yield from mpi.win_allocate(64 if mpi.rank == 0 else 0)
            yield from win.fence()
            if mpi.rank == 1:
                yield from win.get(0, np.zeros(65, np.uint8), 0)
            yield from win.fence()

        with pytest.raises(RMAError):
            make_world(nprocs=2).run(program)

    def test_size_only_get(self):
        def program(mpi):
            win = yield from mpi.win_allocate(64 if mpi.rank == 0 else 0)
            yield from win.fence()
            if mpi.rank == 1:
                yield from win.get(0, Sized(32), 0)
            yield from win.fence()
            return win.window.gets_issued

        res = make_world(nprocs=2).run(program)
        assert res[0] == 1

    def test_fence_flushes_gets(self):
        """After the closing fence, all gets have landed."""

        def program(mpi):
            win = yield from mpi.win_allocate(1024 if mpi.rank == 0 else 0)
            if mpi.rank == 0:
                win.local_buffer[:] = 9
            yield from win.fence()
            out = np.zeros(1024, dtype=np.uint8)
            if mpi.rank != 0:
                yield from win.get(0, out, 0)
            yield from win.fence()
            if mpi.rank != 0:
                assert (out == 9).all()

        make_world(nprocs=4).run(program)

    def test_concurrent_gets_share_target_tx(self):
        """Many remote origins getting from one target contend on its NIC."""
        size = 1_000_000
        getters = (4, 8, 12)  # first rank of nodes 1, 2, 3

        def program(mpi):
            win = yield from mpi.win_allocate(size if mpi.rank == 0 else 0)
            yield from win.fence()
            if mpi.rank in getters:
                yield from win.get(0, Sized(size), 0)
            yield from win.fence()
            return mpi.now

        world = make_world(nprocs=16)
        res = world.run(program)
        bw = world.cluster.spec.network_bandwidth
        # 3 getters of 1 MB each drain through node 0's tx port serially.
        assert res[0] > 2.5 * size / bw

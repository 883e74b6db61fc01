"""Tests for the high-level MPI-IO collectives: set_view / write_all / read_all."""

import numpy as np
import pytest

from repro.collio.view import FileView
from repro.mpi.datatypes import contiguous, resized, subarray
from repro.payload import Sized

from tests.mpi.conftest import make_world


def run_world(program, nprocs=4):
    world = make_world(nprocs=nprocs, fs=True)
    return world, world.run(program)


class TestSetView:
    def test_requires_view_before_collective(self):
        def program(mpi):
            fh = yield from mpi.file_open("/f")
            yield from fh.write_all(np.zeros(4, np.uint8))

        with pytest.raises(ValueError, match="set_view"):
            run_world(program)

    def test_accepts_datatype_or_fileview(self):
        def program(mpi):
            fh = yield from mpi.file_open("/f")
            fh.set_view(contiguous(100), disp=mpi.rank * 100)
            fh.set_view(view=FileView.contiguous(mpi.rank * 100, 100))
            yield from mpi.barrier()

        run_world(program)

    def test_rejects_neither(self):
        def program(mpi):
            fh = yield from mpi.file_open("/f")
            fh.set_view()
            yield from mpi.barrier()

        with pytest.raises(ValueError):
            run_world(program)


class TestWriteAllReadAll:
    def test_contiguous_roundtrip(self):
        def program(mpi):
            fh = yield from mpi.file_open("/rt")
            fh.set_view(contiguous(1000), disp=mpi.rank * 1000)
            data = np.full(1000, mpi.rank + 1, dtype=np.uint8)
            yield from fh.write_all(data)
            out = np.zeros(1000, dtype=np.uint8)
            yield from fh.read_all(out)
            assert np.array_equal(out, data)

        world, _ = run_world(program)
        contents = world.pfs.open("/rt").contents()
        for r in range(4):
            assert (contents[1000 * r : 1000 * (r + 1)] == r + 1).all()

    def test_strided_view_with_count(self):
        """A resized datatype replicated `count` times interleaves ranks."""

        def program(mpi):
            fh = yield from mpi.file_open("/strided")
            elem = resized(contiguous(64), extent=4 * 64)
            fh.set_view(elem, disp=mpi.rank * 64, count=10)
            data = np.full(640, mpi.rank + 1, dtype=np.uint8)
            yield from fh.write_all(data, algorithm="write_comm2")
            out = np.zeros(640, dtype=np.uint8)
            yield from fh.read_all(out, algorithm="no_overlap")
            assert np.array_equal(out, data)

        world, _ = run_world(program)
        contents = world.pfs.open("/strided").contents()
        # Byte blocks of 64 cycle through ranks 1,2,3,4.
        for block in range(40):
            expected = (block % 4) + 1
            assert (contents[block * 64 : (block + 1) * 64] == expected).all()

    def test_2d_subarray_views(self):
        def program(mpi):
            fh = yield from mpi.file_open("/grid")
            ty, tx = divmod(mpi.rank, 2)
            dtype = subarray([8, 8], [4, 4], [ty * 4, tx * 4], elem_size=2)
            fh.set_view(dtype)
            data = np.full(32, mpi.rank + 10, dtype=np.uint8)
            yield from fh.write_all(data)
            out = np.zeros(32, dtype=np.uint8)
            yield from fh.read_all(out)
            assert np.array_equal(out, data)

        world, _ = run_world(program)
        grid = world.pfs.open("/grid").contents().reshape(8, 16)
        assert (grid[0, 0] == 10) and (grid[0, 8] == 11)
        assert (grid[4, 0] == 12) and (grid[7, 15] == 13)

    def test_plan_cache_shared_across_ranks(self):
        def program(mpi):
            fh = yield from mpi.file_open("/c")
            fh.set_view(contiguous(500), disp=mpi.rank * 500)
            yield from fh.write_all(np.zeros(500, np.uint8))
            return None

        world, _ = run_world(program)
        assert len(world.plan_cache) == 1  # one plan for all four ranks

    def test_repeated_collectives_get_fresh_plans(self):
        def program(mpi):
            fh = yield from mpi.file_open("/multi")
            fh.set_view(contiguous(500), disp=mpi.rank * 500)
            yield from fh.write_all(np.full(500, 1, np.uint8))
            fh.set_view(contiguous(500), disp=(3 - mpi.rank) * 500)
            yield from fh.write_all(np.full(500, mpi.rank + 1, np.uint8))

        world, _ = run_world(program)
        contents = world.pfs.open("/multi").contents()
        # Second write reversed the rank order.
        for r in range(4):
            assert (contents[(3 - r) * 500 : (4 - r) * 500] == r + 1).all()
        assert len(world.plan_cache) == 2

    def test_size_only_write_all(self):
        """write_all(Sized(n)) runs the timing without payload bytes."""

        def program(mpi):
            fh = yield from mpi.file_open("/timing")
            fh.set_view(contiguous(10_000), disp=mpi.rank * 10_000)
            stats = yield from fh.write_all(Sized(10_000))
            return stats.time_in("total")

        _, res = run_world(program)
        assert all(t > 0 for t in res)

"""Cross-module integration tests: whole simulated applications."""

import numpy as np
import pytest

from repro.collio import CollectiveConfig
from repro.fs import FsSpec, lustre_like
from repro.hardware import ClusterSpec, crill, ibex
from repro.fs import beegfs_crill, beegfs_ibex
from repro.mpi import World, contiguous
from repro.mpi.datatypes import subarray
from repro.units import MB


def small_world(nprocs=8, **kw):
    spec = ClusterSpec(
        name="t", num_nodes=4, cores_per_node=4,
        network_bandwidth=1000 * MB, eager_threshold=2048, **kw,
    )
    fs = FsSpec(name="f", num_targets=4, target_bandwidth=200 * MB,
                target_latency=1e-4, stripe_size=4096)
    return World(spec, nprocs=nprocs, fs_spec=fs)


class TestCheckpointRestartCycle:
    """A classic HPC pattern: iterate, checkpoint collectively, restart."""

    def test_write_then_read_roundtrip_across_worlds(self):
        nprocs = 8
        per_rank = 5000

        def writer(mpi):
            fh = yield from mpi.file_open("/ckpt")
            fh.set_view(contiguous(per_rank), disp=mpi.rank * per_rank)
            data = ((np.arange(per_rank) * (mpi.rank + 3)) % 251).astype(np.uint8)
            yield from fh.write_all(data, algorithm="write_comm2")
            return data

        world = small_world(nprocs)
        written = world.run(writer)
        # "Restart": read back in the same world through a new handle.

        def reader(mpi):
            fh = yield from mpi.file_open("/ckpt")
            fh.set_view(contiguous(per_rank), disp=mpi.rank * per_rank)
            out = np.zeros(per_rank, dtype=np.uint8)
            yield from fh.read_all(out, algorithm="read_ahead")
            return out

        read_back = world.run(reader)
        for w, r in zip(written, read_back):
            assert np.array_equal(w, r)

    def test_multiple_checkpoints_interleaved_with_compute(self):
        nprocs = 4

        def program(mpi):
            fh = yield from mpi.file_open("/multi_ckpt")
            for step in range(3):
                yield from mpi.compute(0.001)
                fh.set_view(
                    contiguous(1000), disp=(step * nprocs + mpi.rank) * 1000
                )
                data = np.full(1000, 10 * step + mpi.rank, dtype=np.uint8)
                yield from fh.write_all(data)
            return mpi.now

        world = small_world(nprocs)
        world.run(program)
        contents = world.pfs.open("/multi_ckpt").contents()
        assert contents.size == 12_000
        for step in range(3):
            for r in range(nprocs):
                chunk = contents[(step * nprocs + r) * 1000 : (step * nprocs + r + 1) * 1000]
                assert (chunk == 10 * step + r).all()


class TestMixedTraffic:
    def test_collective_write_with_concurrent_p2p(self):
        """Application p2p traffic shares the fabric with a collective write."""
        nprocs = 4

        def program(mpi):
            fh = yield from mpi.file_open("/out")
            fh.set_view(contiguous(4000), disp=mpi.rank * 4000)
            # A halo exchange before the checkpoint.
            nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
            halo = np.full(512, mpi.rank, dtype=np.uint8)
            recv = np.zeros(512, dtype=np.uint8)
            s = yield from mpi.isend(nxt, tag=99, data=halo)
            r = yield from mpi.irecv(prv, tag=99, buffer=recv)
            yield from mpi.waitall([s, r])
            assert recv[0] == prv
            data = np.full(4000, mpi.rank + 1, dtype=np.uint8)
            yield from fh.write_all(data)
            return True

        world = small_world(nprocs)
        assert all(world.run(program))

    def test_two_files_two_collectives(self):
        def program(mpi):
            fa = yield from mpi.file_open("/a")
            fb = yield from mpi.file_open("/b")
            fa.set_view(contiguous(2000), disp=mpi.rank * 2000)
            fb.set_view(contiguous(1000), disp=mpi.rank * 1000)
            yield from fa.write_all(np.full(2000, 1, np.uint8))
            yield from fb.write_all(np.full(1000, 2, np.uint8))

        world = small_world(4)
        world.run(program)
        assert world.pfs.open("/a").size == 8000
        assert world.pfs.open("/b").size == 4000
        assert (world.pfs.open("/a").contents() == 1).all()
        assert (world.pfs.open("/b").contents() == 2).all()


class TestPresetsEndToEnd:
    @pytest.mark.parametrize(
        "cluster_fs",
        [(crill, beegfs_crill), (ibex, beegfs_ibex), (crill, lustre_like)],
        ids=["crill", "ibex", "crill+lustre"],
    )
    def test_2d_grid_on_paper_platforms(self, cluster_fs):
        cluster_factory, fs_factory = cluster_fs
        world = World(cluster_factory(), nprocs=16, fs_spec=fs_factory())

        def program(mpi):
            fh = yield from mpi.file_open("/grid")
            ty, tx = divmod(mpi.rank, 4)
            dtype = subarray([16, 16], [4, 4], [ty * 4, tx * 4], elem_size=8)
            fh.set_view(dtype)
            data = np.full(128, mpi.rank, dtype=np.uint8)
            yield from fh.write_all(data)
            out = np.zeros(128, dtype=np.uint8)
            yield from fh.read_all(out)
            assert np.array_equal(out, data)
            return mpi.now

        times = world.run(program)
        assert len(set(times)) == 1  # final barrier aligns everyone


class TestDeterminism:
    def test_same_seed_identical_timing(self):
        from repro.collio import RunSpec, run_collective_write
        from repro.collio.view import FileView

        views = {r: FileView.contiguous(r * 10_000, 10_000) for r in range(8)}
        times = [
            run_collective_write(RunSpec(
                cluster=crill(), fs=beegfs_crill(), nprocs=8, views=views,
                algorithm="write_comm2", seed=123, carry_data=False,
                config=CollectiveConfig(cb_buffer_size=32 * 1024),
            )).elapsed
            for _ in range(2)
        ]
        assert times[0] == times[1]

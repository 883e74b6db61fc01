"""Tests for the parallel file system and the aio engine."""

import numpy as np
import pytest

from repro.errors import FileSystemError
from repro.fs import AioEngine, FsSpec, ParallelFileSystem, beegfs_crill, beegfs_ibex, fs_preset, lustre_like
from repro.sim import Engine
from repro.units import MB


def small_spec(**kw):
    base = dict(
        name="tiny",
        num_targets=4,
        target_bandwidth=100 * MB,
        target_latency=1e-4,
        stripe_size=1024,
        client_overhead=0.0,
    )
    base.update(kw)
    return FsSpec(**base)


def run_write(pfs, offset, data):
    eng = pfs.engine
    f = pfs.open("f")

    def proc(eng):
        yield pfs.write(f, offset, data)
        return eng.now

    p = eng.process(proc(eng))
    eng.run()
    return p.value, f


class TestWrite:
    def test_contents_stored(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        data = np.arange(5000, dtype=np.uint32).view(np.uint8)
        _, f = run_write(pfs, 100, data)
        assert np.array_equal(f.read(100, data.size), data)

    def test_single_target_write_time(self):
        spec = small_spec(num_targets=1, target_latency=0.5)
        pfs = ParallelFileSystem(Engine(), spec)
        data = np.zeros(100 * MB, dtype=np.uint8)[: 10_000_000]
        t, _ = run_write(pfs, 0, data)
        expected = 0.5 + 10_000_000 / spec.target_bandwidth
        assert t == pytest.approx(expected, rel=1e-6)

    def test_striped_write_faster_than_single_target(self):
        data = np.zeros(4 * 1024 * 1024, dtype=np.uint8)
        t4, _ = run_write(ParallelFileSystem(Engine(), small_spec()), 0, data)
        t1, _ = run_write(
            ParallelFileSystem(Engine(), small_spec(num_targets=1)), 0, data
        )
        assert t4 < t1 / 2  # 4 targets give close to 4x

    def test_zero_size_write_completes(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        t, f = run_write(pfs, 0, np.zeros(0, dtype=np.uint8))
        assert t == 0.0 and f.size == 0

    def test_non_uint8_rejected(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        f = pfs.open("f")
        with pytest.raises(FileSystemError):
            pfs.write(f, 0, np.zeros(4, dtype=np.float64))

    def test_contention_between_writers(self):
        """Two writers to the same stripes take ~2x one writer."""
        spec = small_spec(num_targets=1, target_latency=0.0)
        eng = Engine()
        pfs = ParallelFileSystem(eng, spec)
        f = pfs.open("f")
        data = np.zeros(1_000_000, dtype=np.uint8)
        times = []

        def writer(eng, off):
            yield pfs.write(f, off, data)
            times.append(eng.now)

        eng.process(writer(eng, 0))
        eng.process(writer(eng, 1_000_000))
        eng.run()
        single = 1_000_000 / spec.target_bandwidth
        assert max(times) == pytest.approx(2 * single, rel=0.01)

    def test_buffer_sampled_at_completion(self):
        """Reusing a buffer before completion corrupts the file (by design)."""
        spec = small_spec(num_targets=1, target_latency=1.0)
        eng = Engine()
        pfs = ParallelFileSystem(eng, spec)
        f = pfs.open("f")
        buf = np.full(10, 1, dtype=np.uint8)

        def bad_program(eng):
            done = pfs.write(f, 0, buf)
            buf[:] = 2  # illegal: reuse before completion
            yield done

        eng.process(bad_program(eng))
        eng.run()
        assert bytes(f.read(0, 10)) == b"\x02" * 10


class TestNamespace:
    def test_open_is_idempotent(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        assert pfs.open("a") is pfs.open("a")

    def test_delete(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        pfs.open("a")
        assert pfs.exists("a")
        pfs.delete("a")
        assert not pfs.exists("a")
        with pytest.raises(FileSystemError):
            pfs.delete("a")

    def test_files_listing(self):
        pfs = ParallelFileSystem(Engine(), small_spec())
        pfs.open("b")
        pfs.open("a")
        assert pfs.files() == ["a", "b"]


class TestRead:
    def test_read_returns_written_data(self):
        eng = Engine()
        pfs = ParallelFileSystem(eng, small_spec())
        f = pfs.open("f")
        data = np.arange(100, dtype=np.uint8)

        def proc(eng):
            yield pfs.write(f, 0, data)
            out = np.zeros(100, dtype=np.uint8)
            yield pfs.read(f, 0, out)
            return out

        p = eng.process(proc(eng))
        eng.run()
        assert np.array_equal(p.value, data)


class TestAio:
    def test_aio_completes_in_background(self):
        """The issuing process computes while the aio write progresses."""
        spec = small_spec(num_targets=1, target_latency=0.0)
        eng = Engine()
        pfs = ParallelFileSystem(eng, spec)
        aio = AioEngine(eng, pfs)
        f = pfs.open("f")
        data = np.ones(1_000_000, dtype=np.uint8)
        write_time = 1_000_000 / spec.target_bandwidth

        def proc(eng):
            req = aio.submit(f, 0, data)
            yield eng.timeout(10 * write_time)  # compute, no I/O waiting
            assert req.done  # finished in the background
            yield req.event
            return eng.now

        p = eng.process(proc(eng))
        eng.run()
        assert p.value == pytest.approx(10 * write_time)
        assert np.array_equal(f.read(0, 10), data[:10])

    def test_aio_slot_limit_serializes(self):
        """aio_slots=1 (Lustre-like) forces one write in flight at a time."""
        spec = small_spec(num_targets=4, target_latency=0.0, aio_slots=1)
        eng = Engine()
        pfs = ParallelFileSystem(eng, spec)
        aio = AioEngine(eng, pfs)
        f = pfs.open("f")
        size = 1_000_000
        per_write = size / (4 * spec.target_bandwidth) * 4  # striped over 4 targets

        def proc(eng):
            reqs = [
                aio.submit(f, i * size, np.ones(size, dtype=np.uint8)) for i in range(3)
            ]
            for r in reqs:
                yield r.event
            return eng.now

        p = eng.process(proc(eng))
        eng.run()
        # With a single slot the three writes serialize: ~3x a single write.
        single = size / spec.aggregate_bandwidth
        assert p.value == pytest.approx(3 * single, rel=0.01)

    def test_aio_extra_overhead_charged(self):
        spec = small_spec(num_targets=1, target_latency=0.0, aio_extra_overhead=5.0)
        eng = Engine()
        pfs = ParallelFileSystem(eng, spec)
        aio = AioEngine(eng, pfs)
        f = pfs.open("f")

        def proc(eng):
            req = aio.submit(f, 0, np.ones(100, dtype=np.uint8))
            yield req.event
            return eng.now

        p = eng.process(proc(eng))
        eng.run()
        assert p.value >= 5.0


class TestPresets:
    def test_presets_exist_and_scale(self):
        assert beegfs_crill().num_targets == 16
        assert beegfs_ibex().target_bandwidth > beegfs_crill().target_bandwidth
        assert beegfs_crill(scale=1).stripe_size == 1024 * 1024
        assert beegfs_crill(scale=64).stripe_size == 16 * 1024

    def test_lustre_has_poor_aio(self):
        spec = lustre_like()
        assert spec.aio_slots == 1
        assert spec.aio_extra_overhead > 0

    def test_preset_lookup(self):
        assert fs_preset("beegfs-crill").name == "beegfs-crill"
        with pytest.raises(KeyError):
            fs_preset("gpfs")

    def test_aggregate_bandwidth(self):
        spec = small_spec()
        assert spec.aggregate_bandwidth == 4 * 100 * MB

"""Tests for the time-compression scaling of specs (DESIGN.md 6.0.1)."""

import pytest

from repro.fs import FsSpec, beegfs_crill, lustre_like
from repro.hardware import ClusterSpec, crill
from repro.sim import Engine
from repro.hardware import Cluster
from repro.units import MB, US


class TestClusterTimeScale:
    def test_all_time_fields_divided(self):
        spec = ClusterSpec(
            name="t", num_nodes=2, cores_per_node=2,
            network_bandwidth=1000 * MB, network_latency=64 * US,
            mpi_call_overhead=6.4e-6, rma_lock_overhead=6.4e-5,
        )
        scaled = spec.with_time_scale(64)
        assert scaled.network_latency == pytest.approx(1 * US)
        assert scaled.mpi_call_overhead == pytest.approx(1e-7)
        assert scaled.rma_lock_overhead == pytest.approx(1e-6)
        # Non-time fields untouched.
        assert scaled.network_bandwidth == spec.network_bandwidth
        assert scaled.num_nodes == spec.num_nodes

    def test_scale_one_identity(self):
        spec = crill(scale=1)
        assert spec.with_time_scale(1) == spec

    def test_invalid_scale(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            crill().with_time_scale(0)

    def test_presets_apply_scaling(self):
        full = crill(scale=1)
        scaled = crill(scale=64)
        assert scaled.network_latency == pytest.approx(full.network_latency / 64)
        assert scaled.mpi_call_overhead == pytest.approx(full.mpi_call_overhead / 64)
        # Bandwidths are physical, not scaled.
        assert scaled.network_bandwidth == full.network_bandwidth


class TestFsTimeScale:
    def test_fields_divided(self):
        full = beegfs_crill(scale=1)
        scaled = beegfs_crill(scale=64)
        assert scaled.target_latency == pytest.approx(full.target_latency / 64)
        assert scaled.client_overhead == pytest.approx(full.client_overhead / 64)
        assert scaled.target_bandwidth == full.target_bandwidth

    def test_lustre_aio_overhead_scales(self):
        full = lustre_like(scale=1)
        scaled = lustre_like(scale=64)
        assert scaled.aio_extra_overhead == pytest.approx(full.aio_extra_overhead / 64)
        assert scaled.aio_throughput_factor == full.aio_throughput_factor

    def test_aio_throughput_factor_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FsSpec(name="x", num_targets=1, target_bandwidth=MB,
                   target_latency=0, stripe_size=64, aio_throughput_factor=0.0)
        with pytest.raises(ConfigurationError):
            FsSpec(name="x", num_targets=1, target_bandwidth=MB,
                   target_latency=0, stripe_size=64, aio_throughput_factor=1.5)


class TestNetworkNoise:
    def test_noise_stretches_transfers(self):
        """With noise, repeated identical transfers vary; without, they don't."""

        def one_run(sigma, seed):
            spec = ClusterSpec(
                name="t", num_nodes=2, cores_per_node=1,
                network_bandwidth=1000 * MB, network_latency=0,
                network_noise_sigma=sigma,
            )
            eng = Engine()
            cl = Cluster(eng, spec, seed=seed)

            def proc(eng):
                yield cl.fabric.transfer(0, 1, 1_000_000)
                return eng.now

            p = eng.process(proc(eng))
            eng.run()
            return p.value

        quiet = {one_run(0.0, s) for s in range(5)}
        noisy = {one_run(0.5, s) for s in range(5)}
        assert len(quiet) == 1
        assert len(noisy) > 1

    def test_ratio_preservation_under_scale(self):
        """A scaled run is the full run with a compressed time unit: the
        elapsed-time *ratio* between two algorithms is scale-invariant."""
        from repro.collio import CollectiveConfig, RunSpec, run_collective_write
        from repro.collio.view import FileView
        from repro.fs import beegfs_crill
        from repro.hardware import crill

        def ratio(scale):
            per_rank = (4 << 20) // scale
            views = {r: FileView.contiguous(r * per_rank, per_rank) for r in range(8)}
            cfg = CollectiveConfig.for_scale(scale)
            times = {}
            for algo in ("no_overlap", "write_overlap"):
                times[algo] = run_collective_write(RunSpec(
                    cluster=crill(scale=scale), fs=beegfs_crill(scale=scale), nprocs=8, views=views,
                    algorithm=algo, config=cfg, carry_data=False, seed=3,
                )).elapsed
            return times["write_overlap"] / times["no_overlap"]

        # Not bit-identical (noise draws differ per stream consumption),
        # but the ratios must agree closely across scales.
        assert ratio(64) == pytest.approx(ratio(128), rel=0.08)

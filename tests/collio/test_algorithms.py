"""End-to-end correctness of all algorithm x primitive combinations.

The golden invariant: every combination produces a byte-identical file
equal to the union of the ranks' views scattered with their payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collio import (
    ALGORITHMS,
    CollectiveConfig,
    RunSpec,
    SHUFFLE_PRIMITIVES,
    run_collective_write,
)
from repro.collio.view import FileView
from repro.fs import FsSpec
from repro.hardware import ClusterSpec
from repro.units import MB

ALL_ALGORITHMS = sorted(ALGORITHMS)
ALL_SHUFFLES = sorted(SHUFFLE_PRIMITIVES)


def small_cluster(**kw):
    base = dict(
        name="t",
        num_nodes=4,
        cores_per_node=4,
        network_bandwidth=1000 * MB,
        network_latency=1e-6,
        eager_threshold=1024,
    )
    base.update(kw)
    return ClusterSpec(**base)


def small_fs(**kw):
    base = dict(
        name="tfs",
        num_targets=4,
        target_bandwidth=300 * MB,
        target_latency=5e-5,
        stripe_size=4096,
    )
    base.update(kw)
    return FsSpec(**base)


def contiguous_views(nprocs, per_rank):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


def interleaved_views(nprocs, tile, ntiles):
    views = {}
    for r in range(nprocs):
        offs = np.arange(ntiles, dtype=np.int64) * (tile * nprocs) + r * tile
        views[r] = FileView(offs, np.full(ntiles, tile, dtype=np.int64))
    return views


CFG = CollectiveConfig(cb_buffer_size=32 * 1024)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("shuffle", ALL_SHUFFLES)
def test_contiguous_views_byte_exact(algorithm, shuffle):
    res = run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 20_000),
        algorithm=algorithm, shuffle=shuffle, config=CFG, verify=True,
    ))
    assert res.verified
    assert res.total_bytes == 8 * 20_000


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("shuffle", ALL_SHUFFLES)
def test_interleaved_views_byte_exact(algorithm, shuffle):
    res = run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=4,
        views=interleaved_views(4, 512, 32),
        algorithm=algorithm, shuffle=shuffle, config=CFG, verify=True,
    ))
    assert res.verified


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_rendezvous_sized_messages(algorithm):
    """Per-cycle contributions above the eager threshold (rendezvous path)."""
    res = run_collective_write(RunSpec(
        cluster=small_cluster(eager_threshold=512), fs=small_fs(), nprocs=4,
        views=contiguous_views(4, 64 * 1024),
        algorithm=algorithm, shuffle="two_sided",
        config=CollectiveConfig(cb_buffer_size=64 * 1024), verify=True,
    ))
    assert res.verified


class TestStructure:
    def test_overlap_algorithms_have_double_cycles(self):
        base = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="no_overlap", config=CFG, verify=True,
        ))
        over = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="write_overlap", config=CFG, verify=True,
        ))
        assert over.cycle_bytes == CFG.cb_buffer_size // 2
        assert base.cycle_bytes == CFG.cb_buffer_size
        assert over.num_cycles >= 2 * base.num_cycles - 1

    def test_async_algorithms_use_aio(self):
        for name, expect_async in [("write_overlap", True), ("comm_overlap", False)]:
            res = run_collective_write(RunSpec(
                cluster=small_cluster(), fs=small_fs(), nprocs=4,
                views=contiguous_views(4, 50_000),
                algorithm=name, config=CFG,
            ))
            # stats: write posts happen only for async algorithms
            posts = sum(s.times.get("write_post", 0) > 0 for s in res.per_rank_stats)
            assert (posts > 0) == expect_async

    def test_single_rank_world(self):
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=1,
            views=contiguous_views(1, 10_000),
            algorithm="write_comm2", config=CFG, verify=True,
        ))
        assert res.verified and res.num_aggregators == 1

    def test_single_cycle_case(self):
        """Total data fits one cycle: the pipelines' drain paths still work."""
        for algorithm in ALL_ALGORITHMS:
            res = run_collective_write(RunSpec(
                cluster=small_cluster(), fs=small_fs(), nprocs=2,
                views=contiguous_views(2, 1000),
                algorithm=algorithm, config=CFG, verify=True,
            ))
            assert res.verified, algorithm

    def test_stats_phases_recorded(self):
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="no_overlap", config=CFG,
        ))
        agg_stats = res.per_rank_stats[0]  # rank 0 is an aggregator
        assert agg_stats.time_in("shuffle") > 0
        assert agg_stats.time_in("write") > 0
        assert agg_stats.time_in("total") > 0

    def test_views_must_cover_all_ranks(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_collective_write(RunSpec(
                cluster=small_cluster(), fs=small_fs(), nprocs=4,
                views=contiguous_views(3, 1000),
            ))

    def test_result_bandwidth_consistent(self):
        res = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000), config=CFG,
        ))
        assert res.write_bandwidth == pytest.approx(res.total_bytes / res.elapsed)


@settings(deadline=None, max_examples=12)
@given(
    nprocs=st.integers(1, 8),
    per_rank=st.integers(1, 40_000),
    algorithm=st.sampled_from(ALL_ALGORITHMS),
    shuffle=st.sampled_from(ALL_SHUFFLES),
    cb=st.sampled_from([4 * 1024, 32 * 1024, 512 * 1024]),
)
def test_any_shape_byte_exact(nprocs, per_rank, algorithm, shuffle, cb):
    """Property: arbitrary sizes/buffers never corrupt the file."""
    res = run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=nprocs,
        views=contiguous_views(nprocs, per_rank),
        algorithm=algorithm, shuffle=shuffle,
        config=CollectiveConfig(cb_buffer_size=cb), verify=True,
    ))
    assert res.verified

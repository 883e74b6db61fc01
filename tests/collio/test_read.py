"""End-to-end correctness of the two-phase collective read."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collio import CollectiveConfig
from repro.collio.read import (
    READ_ALGORITHMS,
    SCATTER_PRIMITIVES,
    run_collective_read,
)
from repro.collio.view import FileView

from tests.collio.test_algorithms import interleaved_views, small_cluster, small_fs

ALL_READ_ALGOS = sorted(READ_ALGORITHMS)
ALL_SCATTERS = sorted(SCATTER_PRIMITIVES)
CFG = CollectiveConfig(cb_buffer_size=32 * 1024)


def contiguous_views(nprocs, per_rank):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


@pytest.mark.parametrize("algorithm", ALL_READ_ALGOS)
@pytest.mark.parametrize("scatter", ALL_SCATTERS)
def test_contiguous_read_byte_exact(algorithm, scatter):
    res = run_collective_read(
        small_cluster(), small_fs(), nprocs=8,
        views=contiguous_views(8, 20_000),
        algorithm=algorithm, scatter=scatter, config=CFG, verify=True,
    )
    assert res.verified
    assert res.total_bytes == 8 * 20_000


@pytest.mark.parametrize("algorithm", ALL_READ_ALGOS)
@pytest.mark.parametrize("scatter", ALL_SCATTERS)
def test_interleaved_read_byte_exact(algorithm, scatter):
    res = run_collective_read(
        small_cluster(), small_fs(), nprocs=4,
        views=interleaved_views(4, 512, 32),
        algorithm=algorithm, scatter=scatter, config=CFG, verify=True,
    )
    assert res.verified


class TestStructure:
    def test_read_ahead_uses_async_reads(self):
        res = run_collective_read(
            small_cluster(), small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="read_ahead", config=CFG,
        )
        posts = sum(s.times.get("read_post", 0) > 0 for s in res.per_rank_stats)
        assert posts > 0

    def test_no_overlap_uses_blocking_reads(self):
        res = run_collective_read(
            small_cluster(), small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="no_overlap", config=CFG,
        )
        assert all(s.times.get("read_post", 0) == 0 for s in res.per_rank_stats)

    def test_gets_counted_for_one_sided(self):
        res = run_collective_read(
            small_cluster(), small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000),
            algorithm="no_overlap", scatter="one_sided_get", config=CFG,
        )
        gets = sum(s.counters.get("gets_issued", 0) for s in res.per_rank_stats)
        assert gets > 0

    def test_unknown_names_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown algorithm 'bogus'.*read_ahead"):
            run_collective_read(
                small_cluster(), small_fs(), nprocs=2,
                views=contiguous_views(2, 1000), algorithm="bogus",
            )
        with pytest.raises(ConfigurationError, match="unknown shuffle 'bogus'.*one_sided_get"):
            run_collective_read(
                small_cluster(), small_fs(), nprocs=2,
                views=contiguous_views(2, 1000), scatter="bogus",
            )

    def test_verify_requires_data(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_collective_read(
                small_cluster(), small_fs(), nprocs=2,
                views=contiguous_views(2, 1000), verify=True, carry_data=False,
            )

    def test_size_only_mode_matches_data_mode_timing(self):
        views = contiguous_views(4, 30_000)
        a = run_collective_read(
            small_cluster(), small_fs(), 4, views,
            algorithm="read_ahead", config=CFG, carry_data=True,
        )
        b = run_collective_read(
            small_cluster(), small_fs(), 4, views,
            algorithm="read_ahead", config=CFG, carry_data=False,
        )
        assert a.elapsed == b.elapsed

    def test_single_cycle_drain(self):
        for algorithm in ALL_READ_ALGOS:
            res = run_collective_read(
                small_cluster(), small_fs(), nprocs=2,
                views=contiguous_views(2, 1000),
                algorithm=algorithm, config=CFG, verify=True,
            )
            assert res.verified, algorithm

    def test_bandwidth_reported(self):
        res = run_collective_read(
            small_cluster(), small_fs(), nprocs=4,
            views=contiguous_views(4, 50_000), config=CFG,
        )
        assert res.read_bandwidth == pytest.approx(res.total_bytes / res.elapsed)


@settings(deadline=None, max_examples=8)
@given(
    nprocs=st.integers(1, 6),
    per_rank=st.integers(1, 30_000),
    algorithm=st.sampled_from(ALL_READ_ALGOS),
    scatter=st.sampled_from(ALL_SCATTERS),
)
def test_any_shape_read_byte_exact(nprocs, per_rank, algorithm, scatter):
    res = run_collective_read(
        small_cluster(), small_fs(), nprocs=nprocs,
        views=contiguous_views(nprocs, per_rank),
        algorithm=algorithm, scatter=scatter,
        config=CollectiveConfig(cb_buffer_size=16 * 1024), verify=True,
    )
    assert res.verified

"""Tests for phase aggregation."""

import pytest

from repro.analysis.breakdown import PhaseBreakdown, aggregate_phases
from repro.collio.context import PhaseStats


def stats(**times):
    s = PhaseStats()
    for phase, t in times.items():
        s.add_time(phase, t)
    return s


class TestAggregate:
    def test_max_and_mean(self):
        per_rank = [stats(write=1.0, shuffle=0.2), stats(write=3.0, shuffle=0.4)]
        b = aggregate_phases(per_rank)
        assert b.max_times["write"] == 3.0
        assert b.mean_times["write"] == 2.0
        assert b.ranks_considered == 2

    def test_rank_selection(self):
        per_rank = [stats(write=1.0), stats(write=9.0)]
        b = aggregate_phases(per_rank, ranks=[0])
        assert b.max_times["write"] == 1.0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            aggregate_phases([])

    def test_shares(self):
        per_rank = [stats(write=0.9, shuffle=0.1)]
        b = aggregate_phases(per_rank)
        assert b.io_share == pytest.approx(0.9)
        assert b.communication_share == pytest.approx(0.1)
        assert b.communication_share + b.io_share == pytest.approx(1.0)

    def test_read_phases_count_as_io(self):
        per_rank = [stats(read=0.6, scatter=0.4)]
        b = aggregate_phases(per_rank)
        assert b.io_time == pytest.approx(0.6)
        assert b.communication_time == pytest.approx(0.4)

    def test_no_phases_zero_shares(self):
        b = PhaseBreakdown({}, {}, 1)
        assert b.io_share == 0.0 and b.communication_share == 0.0


class TestEndToEnd:
    def test_matches_bench_breakdown(self):
        """aggregate_phases on a real run reproduces the IV-A split."""
        from repro.bench.runner import specs_for
        from repro.collio import CollectiveConfig, RunSpec, run_collective_write
        from repro.workloads import make_workload

        cluster, fs = specs_for("crill", 64)
        w = make_workload("tile_1m", 96, element_size=4096)
        run = run_collective_write(RunSpec(
            cluster=cluster, fs=fs, nprocs=96, views=w.views(), algorithm="no_overlap",
            config=CollectiveConfig.for_scale(64), carry_data=False,
        ))
        b = aggregate_phases(run.per_rank_stats, ranks=[0])  # an aggregator
        assert b.io_share > 0.5  # crill is I/O dominated
        assert 0 < b.communication_share < 0.5

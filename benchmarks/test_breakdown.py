"""Regenerates the Sec. IV-A phase breakdown (no-overlap, Tile-1M).

Paper shape: at 576 processes the aggregator spends ~93% of the
collective write in file access on crill vs ~77% on Ibex — which is why
overlap buys little on crill and a lot on Ibex.
"""

import pytest

from repro.bench import experiments


@pytest.fixture(scope="module")
def breakdown_result():
    return experiments.breakdown(mode="quick")


def test_breakdown_regenerates(breakdown_result, print_artifact):
    print_artifact(experiments.breakdown_tables(breakdown_result)[0].text())
    assert len(breakdown_result) == 4


def test_crill_is_io_dominated(breakdown_result):
    """Paper: 93% file access on crill at 576 procs."""
    for (cluster, _nprocs), (comm, io) in breakdown_result.items():
        if cluster == "crill":
            assert io >= 0.75


def test_ibex_has_larger_communication_share(breakdown_result):
    """Paper: ~23% communication on Ibex vs ~7% on crill."""
    crill_comm = max(
        comm for (cl, _n), (comm, _io) in breakdown_result.items() if cl == "crill"
    )
    ibex_comm = max(
        comm for (cl, _n), (comm, _io) in breakdown_result.items() if cl == "ibex"
    )
    assert ibex_comm > crill_comm


def test_shares_sum_to_one(breakdown_result):
    for (comm, io) in breakdown_result.values():
        assert comm + io == pytest.approx(1.0)


def test_bench_breakdown_point(benchmark):
    from repro.bench.runner import specs_for
    from repro.collio import CollectiveConfig, RunSpec, run_collective_write
    from repro.workloads import make_workload

    cluster, fs = specs_for("ibex", 64)
    workload = make_workload("tile_1m", 100, element_size=4096)
    views = workload.views()
    config = CollectiveConfig.for_scale(64)
    spec = RunSpec(
        cluster=cluster, fs=fs, nprocs=100, views=views,
        algorithm="no_overlap", config=config, carry_data=False,
    )

    def run():
        return run_collective_write(spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.elapsed > 0

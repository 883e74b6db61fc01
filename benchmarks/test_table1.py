"""Regenerates Table I — winner counts per overlap algorithm.

Paper shape: algorithms using asynchronous writes win the large majority
of cases (251/352 = 71%); even the no-overlap baseline keeps a nontrivial
share (59/352 = 17%); Comm Overlap alone wins least (42/352 = 12%).
"""

import pytest

from repro.bench import experiments
from repro.bench.runner import run_matrix
from repro.collio.overlap import ASYNC_WRITE_ALGORITHMS

from benchmarks.conftest import micro_case

ALGOS = experiments.ALGORITHM_ORDER


@pytest.fixture(scope="module")
def table1_micro():
    cases = [
        micro_case(benchmark, cluster)
        for benchmark in ("ior", "tile_256", "tile_1m", "flash")
        for cluster in ("crill", "ibex")
    ]
    matrix = run_matrix(cases, ALGOS, reps=2)
    return experiments.table1(matrix=matrix)


def test_table1_regenerates(table1_micro, print_artifact):
    print_artifact(experiments.table1_tables(table1_micro)[0].text())
    assert table1_micro.total_cases == 8
    assert set(table1_micro.rows) == {"ior", "tile_256", "tile_1m", "flash"}


def test_async_write_algorithms_dominate(table1_micro):
    """Paper: 71% of series won by an algorithm with asynchronous writes."""
    assert table1_micro.async_write_share() >= 0.5


def test_comm_overlap_is_not_the_winner_overall(table1_micro):
    """Paper: Comm Overlap wins the fewest cases (42/352)."""
    totals = table1_micro.totals
    async_total = sum(totals[a] for a in ASYNC_WRITE_ALGORITHMS)
    assert totals["comm_overlap"] <= async_total


def test_bench_one_table1_case(benchmark):
    """Host-time benchmark of a single Table-I case (all five algorithms)."""
    from repro.bench.runner import run_case

    case = micro_case("flash", "ibex")

    def run():
        return run_case(case, ALGOS, reps=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.series) == 5

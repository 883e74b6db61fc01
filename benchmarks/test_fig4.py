"""Regenerates Fig. 4 — shuffle-primitive winner counts on Write-Comm-2.

Paper shape: two-sided communication wins ~75% of cases overall; the
exception is Tile I/O with 256-byte tiles (many small discontiguous
extents), where fence-based one-sided wins ~37% of cases with 27-30%
average gains; on crill, one-sided only starts helping at >= 256
processes.
"""

import pytest

from repro.bench import experiments
from repro.bench.runner import run_matrix

from benchmarks.conftest import micro_case

SHUFFLES = tuple(experiments.SHUFFLE_ORDER)


@pytest.fixture(scope="module")
def fig4_micro():
    cases = [
        micro_case(benchmark, cluster)
        for benchmark in ("ior", "tile_256", "tile_1m")
        for cluster in ("crill", "ibex")
    ]
    matrix = run_matrix(cases, ["write_comm2"], shuffles=SHUFFLES, reps=2)
    return experiments.fig4(matrix=matrix)


def test_fig4_regenerates(fig4_micro, print_artifact):
    print_artifact(experiments.fig4_tables(fig4_micro)[0].text())
    assert sum(fig4_micro.totals.values()) == 6


def test_two_sided_wins_contiguous_benchmarks(fig4_micro):
    """Paper: two-sided is best for IOR and Tile-1M on both clusters."""
    for benchmark in ("ior", "tile_1m"):
        row = fig4_micro.rows[benchmark]
        assert row["two_sided"] >= row["one_sided_fence"]
        assert row["two_sided"] >= row["one_sided_lock"]


def test_one_sided_wins_tile_256_somewhere(fig4_micro):
    """Paper: the Tile-256 exception — one-sided fence wins there."""
    row = fig4_micro.rows["tile_256"]
    assert row["one_sided_fence"] + row["one_sided_lock"] >= 1


def test_crill_small_scale_prefers_two_sided(fig4_micro):
    """Paper Sec. IV-B: below 256 processes, crill almost never benefits
    from one-sided communication."""
    for (benchmark, cluster, nprocs), winner in fig4_micro.winners.items():
        if cluster == "crill" and nprocs < 256 and benchmark != "tile_256":
            assert winner == "two_sided", (benchmark, cluster, nprocs, winner)


def test_bench_fig4_case(benchmark):
    from repro.bench.runner import run_case

    case = micro_case("tile_256", "ibex")

    def run():
        return run_case(case, ["write_comm2"], shuffles=SHUFFLES, reps=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.series) == 3

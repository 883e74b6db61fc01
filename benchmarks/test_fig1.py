"""Regenerates Fig. 1 — Tile-1M execution times on both clusters.

Paper shape: Ibex is faster in absolute terms and gains much more from
overlap (34%/17% at 256/576 procs) than crill (~0%/6%), because crill's
collective write is ~93% file access.
"""

import pytest

from repro.bench import experiments


@pytest.fixture(scope="module")
def fig1_result():
    return experiments.fig1(mode="quick", reps=2)


def test_fig1_regenerates(fig1_result, print_artifact):
    print_artifact(experiments.fig1_tables(fig1_result)[0].text())
    assert len(fig1_result.points) == 2 * 2 * 5  # clusters x counts x algorithms


def test_ibex_faster_than_crill(fig1_result):
    for nprocs in fig1_result.nprocs_list:
        crill_t = fig1_result.points[("crill", nprocs, "no_overlap")]
        ibex_t = fig1_result.points[("ibex", nprocs, "no_overlap")]
        assert ibex_t < crill_t


def test_ibex_gains_more_from_overlap(fig1_result):
    """The paper's central Fig. 1 observation."""
    for nprocs in fig1_result.nprocs_list:
        assert fig1_result.improvement("ibex", nprocs) > fig1_result.improvement(
            "crill", nprocs
        ) - 0.02  # allow noise slack


def test_ibex_improvement_positive(fig1_result):
    assert max(
        fig1_result.improvement("ibex", n) for n in fig1_result.nprocs_list
    ) > 0.03


def test_bench_fig1_single_point(benchmark):
    from repro.bench.runner import Case, run_case

    case = Case("tile_1m", "ibex", 100, (("element_size", 4096),))

    def run():
        return run_case(case, ["no_overlap", "write_overlap"], reps=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.num_cycles > 0

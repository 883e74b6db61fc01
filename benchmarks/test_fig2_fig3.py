"""Regenerates Figs. 2-3 — average positive improvement per algorithm and
benchmark, on crill (Fig. 2) and Ibex (Fig. 3).

Paper shape: crill improvements 3.7-9.2% with the asynchronous-write
algorithms ahead of Comm Overlap in every benchmark; Ibex improvements
larger, 8.6-22.3%.
"""

import pytest

from repro.bench import experiments
from repro.bench.runner import run_matrix

from benchmarks.conftest import micro_case

ALGOS = experiments.ALGORITHM_ORDER


@pytest.fixture(scope="module")
def matrix():
    cases = [
        micro_case(benchmark, cluster, nprocs)
        for benchmark in ("ior", "tile_256", "tile_1m", "flash")
        for cluster in ("crill", "ibex")
        for nprocs in ((96, 144) if benchmark in ("ior", "flash") else (64, 100))
    ]
    return run_matrix(cases, ALGOS, reps=2)


@pytest.fixture(scope="module")
def fig2_result(matrix):
    return experiments.improvements("crill", matrix)


@pytest.fixture(scope="module")
def fig3_result(matrix):
    return experiments.improvements("ibex", matrix)


def test_fig2_fig3_regenerate(fig2_result, fig3_result, print_artifact):
    print_artifact(experiments.improvement_tables(fig2_result)[0].text())
    print_artifact(experiments.improvement_tables(fig3_result)[0].text())
    assert fig2_result.cluster == "crill"
    assert fig3_result.cluster == "ibex"


def test_ibex_improvements_exceed_crill(fig2_result, fig3_result):
    """Paper: crill 3.7-9.2%, Ibex 8.6-22.3%."""
    _, crill_hi = fig2_result.range_over_all()
    _, ibex_hi = fig3_result.range_over_all()
    assert ibex_hi > crill_hi


def test_ibex_has_double_digit_gains(fig3_result):
    _, ibex_hi = fig3_result.range_over_all()
    assert ibex_hi >= 0.08


def test_write_async_beats_comm_overlap_on_average(fig2_result, fig3_result):
    """Paper: overlap with asynchronous I/O outperforms communication-only
    overlap in most scenarios."""
    wins = 0
    comparisons = 0
    for result in (fig2_result, fig3_result):
        for benchmark in experiments.BENCHMARK_ORDER:
            comm = result.values.get(("comm_overlap", benchmark))
            best_async = max(
                (result.values.get((a, benchmark)) or 0.0)
                for a in ("write_overlap", "write_comm", "write_comm2")
            )
            comparisons += 1
            if comm is None or best_async >= comm - 0.01:
                wins += 1
    assert wins >= comparisons * 0.6

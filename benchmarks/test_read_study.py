"""Extension bench: two-phase collective READ (paper Sec. V future work).

Expected shape (mirroring the write results): overlap driven by
asynchronous file access (read-ahead) beats both the baseline and
scatter-only overlap; and — unlike the write case — one-sided *Get*
scatter can help, because it offloads the aggregator, which in a read is
the single data *source* of every cycle.
"""

import pytest

from repro.bench import experiments


@pytest.fixture(scope="module")
def read_result():
    return experiments.read_study(mode="quick", reps=2)


def test_read_study_regenerates(read_result, print_artifact):
    print_artifact(experiments.read_tables(read_result)[0].text())
    assert len(read_result.points) == 12  # 2 clusters x 3 algorithms x 2 scatters


def test_read_ahead_beats_baseline(read_result):
    for cluster in ("crill", "ibex"):
        assert read_result.gain(cluster, "read_ahead") > 0.0


def test_read_ahead_beats_scatter_overlap(read_result):
    """Async file access > communication-only overlap, for reads too."""
    for cluster in ("crill", "ibex"):
        assert read_result.gain(cluster, "read_ahead") >= read_result.gain(
            cluster, "scatter_overlap"
        )


def test_one_sided_get_helps_read_ahead(read_result):
    """Gets pull from the aggregator without consuming its CPU."""
    t_get = read_result.points[("ibex", "read_ahead", "one_sided_get")]
    t_two = read_result.points[("ibex", "read_ahead", "two_sided")]
    assert t_get <= t_two * 1.05


def test_bench_read_case(benchmark):
    def run():
        return experiments.read_study(mode="quick", reps=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.points

"""Regenerates the Sec. V Lustre note.

Paper shape: on a file system with poor ``aio_write`` support
(Lustre-like), the advantage of asynchronous-write overlap disappears.
"""

import pytest

from repro.bench import experiments


@pytest.fixture(scope="module")
def lustre_result():
    return experiments.lustre_note(mode="quick", reps=2)


def test_lustre_regenerates(lustre_result, print_artifact):
    print_artifact(experiments.lustre_tables(lustre_result)[0].text())
    assert set(lustre_result.entries) == {"beegfs", "lustre"}


def test_write_overlap_gains_on_beegfs(lustre_result):
    assert lustre_result.gain("beegfs") > 0.05


def test_gain_disappears_on_lustre(lustre_result):
    """The paper's closing observation."""
    assert lustre_result.gain("lustre") < lustre_result.gain("beegfs") - 0.05
    assert lustre_result.gain("lustre") < 0.05


def test_bench_lustre_case(benchmark):
    def run():
        return experiments.lustre_note(mode="quick", reps=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert "lustre" in result.entries

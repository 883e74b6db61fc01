"""Ablation benches: the model's causal mechanisms, each flipped once.

These turn the paper's *explanations* into testable predictions (see
repro.bench.ablations).  Smaller settings than the CLI versions so the
file runs in a couple of minutes.
"""

import pytest

from repro.bench.ablations import run_ablation


class TestProgressThread:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation("progress_thread", nprocs=96, reps=2)

    def test_renders(self, result, print_artifact):
        print_artifact(result.table().text())

    def test_progress_thread_rescues_comm_overlap(self, result):
        """Paper III-A1: background progress is Comm-Overlap's lifeline."""
        without = result.gain("off", "comm_overlap")
        with_thread = result.gain("on", "comm_overlap")
        assert with_thread > without + 0.02

    def test_write_overlap_indifferent_to_progress_thread(self, result):
        """aio progress comes from the OS, not the MPI library."""
        assert result.rows["off"]["write_overlap"] == pytest.approx(
            result.rows["on"]["write_overlap"], rel=0.02
        )


class TestEagerThreshold:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation("eager_threshold", nprocs=96, reps=2)

    def test_renders(self, result, print_artifact):
        print_artifact(result.table().text())

    def test_full_eager_decouples_the_baseline(self, result):
        """With everything eager, senders never couple to busy
        aggregators and the baseline self-overlaps through the
        unexpected queue."""
        rendezvous_base = result.rows["512 B"]["no_overlap"]
        eager_base = result.rows["1048576 B"]["no_overlap"]
        assert eager_base < rendezvous_base


class TestBufferSize:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation("buffer_size", nprocs=96, reps=2)

    def test_renders(self, result, print_artifact):
        print_artifact(result.table().text())

    def test_tiny_buffers_pay_cycle_overhead(self, result):
        assert result.rows["64 KiB"]["write_overlap"] > result.rows["512 KiB"][
            "write_overlap"
        ]


class TestAggregatorCount:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation("aggregators", nprocs=96, reps=2)

    def test_renders(self, result, print_artifact):
        print_artifact(result.table().text())

    def test_single_aggregator_bottlenecks(self, result):
        assert result.rows["1"]["write_overlap"] > result.rows["auto"]["write_overlap"]

    def test_auto_selection_near_best(self, result):
        best = min(row["write_overlap"] for row in result.rows.values())
        assert result.rows["auto"]["write_overlap"] <= best * 1.2


class TestStorageNoise:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation("storage_noise", nprocs=96, reps=2)

    def test_renders(self, result, print_artifact):
        print_artifact(result.table().text())

    def test_noiseless_storage_kills_the_crill_gain(self, result):
        """Without per-request variance there is (almost) nothing for
        pipelined writes to hide on an I/O-dominated system."""
        assert abs(result.gain("0.00", "write_overlap")) < 0.05

    def test_gain_grows_with_variance(self, result):
        assert result.gain("0.60", "write_overlap") > result.gain(
            "0.15", "write_overlap"
        )


def test_bench_one_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: run_ablation("progress_thread", nprocs=96, reps=1), rounds=1, iterations=1
    )
    assert "on" in result.rows

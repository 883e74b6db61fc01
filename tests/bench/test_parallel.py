"""The parallel campaign executor's determinism contract.

``repro.bench.parallel`` promises that ``--jobs N`` output is
byte-identical to serial for any ``N``: tasks are pure functions of
plain descriptors, seeds live in the descriptors (never in worker
identity), and results fold back in input order.  These tests pin the
primitive (``parallel_map``, ``content_seed``) and the contract at the
campaign level — a real integrity campaign, an ablation (one of the
campaigns that fan out through ``measure_all``) and an experiment matrix
run serial and fanned-out must render identical CSVs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import runner
from repro.bench.ablations import run_ablation
from repro.bench.integrity import integrity_campaign, integrity_tables
from repro.bench.parallel import content_seed, parallel_map
from repro.bench.runner import Case, run_matrix


def _matrix_samples(matrix):
    """Every elapsed sample of every series, keyed for exact comparison."""
    return {
        (result.case.label, algorithm, shuffle): series.times
        for result in matrix.results
        for (algorithm, shuffle), series in result.series.items()
    }


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_fanned_out_matches_serial(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=3) == parallel_map(
            _square, items, jobs=1)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], jobs=0)

    def test_empty_and_singleton_inputs(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [5], jobs=4) == [25]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_fail_on_three, [1, 2, 3], jobs=2)


class TestContentSeed:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=8)),
            max_size=4,
        )
    )
    def test_deterministic_and_in_range(self, payload):
        seed = content_seed(payload)
        assert seed == content_seed(payload)
        assert 0 <= seed < 2**31 - 1

    def test_sensitive_to_every_field(self):
        base = {"seed": 0, "rep": 0}
        assert content_seed(base) != content_seed({"seed": 0, "rep": 1})
        assert content_seed(base) != content_seed({"seed": 1, "rep": 0})

    def test_independent_of_key_order(self):
        assert content_seed({"a": 1, "b": 2}) == content_seed({"b": 2, "a": 1})


class TestCampaignDeterminism:
    """--jobs N must be byte-identical to serial at the CSV level."""

    def test_integrity_campaign_csv_identical(self):
        serial = integrity_campaign(nprocs=4, reps=1, scale=64, seed=5)
        fanned = integrity_campaign(nprocs=4, reps=1, scale=64, seed=5, jobs=2)
        assert integrity_tables(fanned)[0].csv() == integrity_tables(serial)[0].csv()

    @pytest.mark.parametrize("reps", [1, 2])
    def test_measured_series_campaign_csv_identical(self, reps, monkeypatch):
        """``--jobs`` is honoured by the campaigns built on ``measure_all``
        (they used to accept the flag and run serially): every
        (spec, rep) task reaches the pool, and the CSV does not change."""
        fanned_out = []

        def recording_map(fn, items, jobs=1):
            fanned_out.append((len(items), jobs))
            return parallel_map(fn, items, jobs=jobs)

        monkeypatch.setattr(runner, "parallel_map", recording_map)
        serial = run_ablation("aggregators", nprocs=8, reps=reps)
        assert fanned_out == []
        fanned = run_ablation("aggregators", nprocs=8, reps=reps, jobs=2)
        assert fanned_out == [(4 * reps, 2)]
        assert fanned.table().csv() == serial.table().csv()
        assert len(serial.table().csv().splitlines()) == 1 + 4

    def test_run_matrix_samples_identical(self):
        cases = [Case("ior", "crill", 4), Case("ior", "ibex", 4)]
        serial = run_matrix(cases, ["no_overlap", "write_comm2"],
                            reps=2, scale=64)
        fanned = run_matrix(cases, ["no_overlap", "write_comm2"],
                            reps=2, scale=64, jobs=2)
        assert _matrix_samples(fanned) == _matrix_samples(serial)

    def test_run_matrix_progress_replayed_in_serial_order(self):
        cases = [Case("ior", "crill", 4), Case("ior", "ibex", 4)]
        calls: dict[int, list] = {1: [], 2: []}
        for jobs in (1, 2):
            run_matrix(
                cases, ["no_overlap", "write_comm2"], reps=1, scale=64,
                jobs=jobs,
                progress=lambda case, algorithm, shuffle, series, jobs=jobs:
                    calls[jobs].append((case.label, algorithm, shuffle)),
            )
        assert calls[2] == calls[1]

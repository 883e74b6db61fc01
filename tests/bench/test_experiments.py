"""Unit tests for experiment derivation logic (synthetic matrices; no sims)."""

import pytest

from repro.analysis.stats import Series
from repro.bench.experiments import (
    Fig1Result,
    Fig4Result,
    Table1Result,
    improvements,
    table1,
)
from repro.bench.runner import Case, CaseResult, MatrixResult


def case_result(benchmark, cluster, nprocs, times_by_algo, shuffle="two_sided"):
    cr = CaseResult(Case(benchmark, cluster, nprocs))
    for algo, t in times_by_algo.items():
        s = Series(key=(benchmark,), algorithm=algo)
        s.add(t)
        cr.series[(algo, shuffle)] = s
    return cr


def synthetic_matrix():
    m = MatrixResult()
    # crill: no_overlap wins; ibex: write_overlap wins.
    m.results.append(case_result("ior", "crill", 96, {
        "no_overlap": 1.0, "comm_overlap": 1.1, "write_overlap": 1.05,
        "write_comm": 1.2, "write_comm2": 1.06,
    }))
    m.results.append(case_result("ior", "ibex", 96, {
        "no_overlap": 1.0, "comm_overlap": 0.9, "write_overlap": 0.8,
        "write_comm": 0.85, "write_comm2": 0.82,
    }))
    m.results.append(case_result("flash", "ibex", 96, {
        "no_overlap": 1.0, "comm_overlap": 1.2, "write_overlap": 0.95,
        "write_comm": 0.99, "write_comm2": 0.97,
    }))
    return m


class TestTable1Derivation:
    def test_winner_counting(self):
        result = table1(matrix=synthetic_matrix())
        assert result.rows["ior"]["no_overlap"] == 1
        assert result.rows["ior"]["write_overlap"] == 1
        assert result.rows["flash"]["write_overlap"] == 1
        assert result.total_cases == 3

    def test_async_share(self):
        result = table1(matrix=synthetic_matrix())
        assert result.async_write_share() == pytest.approx(2 / 3)

    def test_totals_sum_rows(self):
        result = table1(matrix=synthetic_matrix())
        assert sum(result.totals.values()) == 3


class TestImprovementDerivation:
    def test_positive_only_average(self):
        res = improvements("ibex", synthetic_matrix())
        # write_overlap on ior@ibex: +20%; on flash@ibex: +5%.
        assert res.values[("write_overlap", "ior")] == pytest.approx(0.2)
        assert res.values[("write_overlap", "flash")] == pytest.approx(0.05)
        # comm_overlap lost on flash -> excluded; ior gain 10%.
        assert res.values[("comm_overlap", "ior")] == pytest.approx(0.1)
        assert res.values[("comm_overlap", "flash")] is None

    def test_crill_losses_excluded_entirely(self):
        res = improvements("crill", synthetic_matrix())
        assert res.values[("comm_overlap", "ior")] is None
        assert res.range_over_all() == (0.0, 0.0)


class TestResultHelpers:
    def test_fig1_improvement(self):
        r = Fig1Result(nprocs_list=[100])
        for algo, t in (("no_overlap", 2.0), ("comm_overlap", 1.9),
                        ("write_overlap", 1.5), ("write_comm", 1.8),
                        ("write_comm2", 1.6)):
            r.points[("crill", 100, algo)] = t
        assert r.improvement("crill", 100) == pytest.approx(0.25)

    def test_fig4_shares_and_trend(self):
        r = Fig4Result()
        r.rows["ior"] = {"two_sided": 3, "one_sided_fence": 1, "one_sided_lock": 0}
        r.rows["tile_256"] = {"two_sided": 1, "one_sided_fence": 3, "one_sided_lock": 0}
        r.winners = {
            ("tile_256", "crill", 100): "two_sided",
            ("tile_256", "crill", 400): "one_sided_fence",
            ("tile_256", "ibex", 100): "one_sided_fence",
        }
        assert r.two_sided_share() == pytest.approx(4 / 8)
        assert r.crill_onesided_wins(min_procs=256) == 1
        assert r.crill_onesided_wins(max_procs=255) == 0

    def test_table1_empty(self):
        r = Table1Result()
        assert r.total_cases == 0
        assert r.async_write_share() == 0.0

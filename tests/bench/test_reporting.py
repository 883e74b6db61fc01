"""Tests for the one table type and the campaigns' table declarations."""

import csv
import io

import pytest

from repro.bench.__main__ import CAMPAIGNS
from repro.bench.ablations import AblationResult
from repro.bench.chaos import ChaosCampaignResult, ChaosCell
from repro.bench.experiments import (
    Fig1Result,
    Fig4Result,
    ImprovementResult,
    LustreResult,
    OverlapStudyResult,
    ReadStudyResult,
    StagingRow,
    StagingStudyResult,
    Table1Result,
    TwoLayerRow,
    TwoLayerStudyResult,
    breakdown_tables,
    fig1_tables,
    fig4_tables,
    improvement_tables,
    lustre_tables,
    read_tables,
    table1_tables,
    tuning_tables,
)
from repro.bench.integrity import IntegrityCampaignResult, IntegrityCell
from repro.bench.table import Column, Table, csv_columns, pivot
from repro.tune.search import CandidateResult, TuningResult
from repro.tune.space import Candidate, ScenarioSpec

ALGOS = ("no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2")


def _tuning_result():
    return TuningResult(
        scenario=ScenarioSpec("ior", "crill", 2, scale=512),
        search="halving", reps=3, base_seed=2020, screen_reps=1,
        ranked=[CandidateResult(Candidate("write_comm2"), [0.005, 0.006], 2e9, 2, 8)],
        pruned=[CandidateResult(Candidate("no_overlap"), [0.010], 1e9, 2, 4,
                                stage="screened")],
        counters={"tune.cache_hit": 3, "tune.sim_run": 7},
    )


def test_render_table1_contains_rows_and_totals():
    r = Table1Result()
    r.rows = {
        b: {a: 1 for a in ALGOS}
        for b in ("ior", "tile_256", "tile_1m", "flash")
    }
    text = table1_tables(r)[0].text()
    assert "TABLE I" in text
    assert "Tile I/O 256" in text
    assert "Total:" in text
    assert "20" not in text.split("Total:")[0]  # totals only in the total row
    assert text.split("Total:")[1].split("\n")[0].split() == ["|", "4"] * 5


def test_render_fig1():
    r = Fig1Result(nprocs_list=[100])
    for cluster in ("crill", "ibex"):
        for algo in ALGOS:
            r.points[(cluster, 100, algo)] = 0.5
    text = fig1_tables(r)[0].text()
    assert "FIG. 1" in text and "crill" in text and "ibex" in text
    assert "Write-Comm 2" in text and "500.000 ms" in text and "+0.0%" in text


def test_render_improvements_handles_missing_values():
    r = ImprovementResult("crill")
    r.values[("write_overlap", "ior")] = 0.092
    r.values[("comm_overlap", "ior")] = None
    text = improvement_tables(r)[0].text()
    assert text.startswith("FIG. 2 — ")
    assert "9.2%" in text
    assert "—" in text
    assert improvement_tables(ImprovementResult("ibex"))[0].text().startswith("FIG. 3 — ")


def test_render_fig4():
    r = Fig4Result()
    r.rows = {
        "ior": {"two_sided": 4, "one_sided_fence": 0, "one_sided_lock": 0},
        "tile_256": {"two_sided": 1, "one_sided_fence": 3, "one_sided_lock": 0},
        "tile_1m": {"two_sided": 3, "one_sided_fence": 1, "one_sided_lock": 0},
    }
    text = fig4_tables(r)[0].text()
    assert "FIG. 4" in text
    assert "two-sided share: 67%" in text


def test_render_breakdown():
    text = breakdown_tables({("crill", 576): (0.07, 0.93)})[0].text()
    assert "93%" in text and "7%" in text


def test_render_tuning():
    text = tuning_tables(_tuning_result())[0].text()
    assert "TUNE — ior@crill:beegfs-crill P=2" in text
    assert "recommendation: write_comm2" in text
    assert "pruned after screening: 1 of 2 candidates" in text
    assert "cache: 3 hits, 7 simulations run (30% cache hits)" in text
    assert "screened" in text and "full" in text


def test_render_lustre():
    r = LustreResult()
    r.entries["beegfs"] = (1.0, 0.8, 0.2)
    r.entries["lustre"] = (1.0, 1.01, -0.01)
    text = lustre_tables(r)[0].text()
    assert "+20.0%" in text and "-1.0%" in text


class TestTableText:
    def test_columns_fit_their_widest_cell_right_aligned(self):
        table = Table("T", [Column("a"), Column("long header")], [("wide cell", 1)],
                      "foot")
        assert table.text().split("\n") == [
            "T",
            "        a | long header",
            "----------+------------",
            "wide cell |           1",
            "foot",
        ]

    def test_fixed_width_left_aligned_space_separated(self):
        """The read study's layout: fixed widths that cells may overflow."""
        r = ReadStudyResult({("crill", "no_overlap", "two_sided"): 0.25,
                             ("crill", "read_ahead", "two_sided"): 0.2})
        assert read_tables(r)[0].text().split("\n")[1:] == [
            "cluster  algorithm         scatter                 time  vs no_overlap",
            "-" * 70,
            "crill    no_overlap        two_sided          250.00 ms         +0.0%",
            "crill    read_ahead        two_sided          200.00 ms        +20.0%",
        ]

    def test_pivot_spreads_a_mapping_and_formats_missing_keys(self):
        table = Table("", [Column("k", get=lambda row: row[0]),
                           *pivot(("x", "y"), str.upper, lambda v: v or "-")],
                      [("r", {"x": 3})])
        assert table.text().split("\n")[1:] == ["k | X | Y", "--+---+--", "r | 3 | -"]

    def test_title_only_table(self):
        assert Table("just text").text() == "just text"
        assert Table("just text").csv() == ""

    def test_ablation_table_has_minimum_width_12(self):
        r = AblationResult("knob", "setting", {"on": {"no_overlap": 0.001}})
        assert r.table().text().split("\n") == [
            "ABLATION — knob",
            "     setting |   no_overlap",
            "-------------+-------------",
            "          on |      1.00 ms",
        ]
        assert r.table().csv() == (
            "parameter,setting,algorithm,seconds\nsetting,on,no_overlap,0.001000000\n")


class TestCsvExports:
    def test_table1_csv(self):
        r = Table1Result()
        r.rows = {"ior": {"no_overlap": 2, "write_overlap": 3}}
        out = table1_tables(r)[0].csv()
        assert out.splitlines()[0] == "benchmark,algorithm,wins"
        assert "ior,write_overlap,3" in out

    def test_fig1_csv(self):
        r = Fig1Result(nprocs_list=[100])
        for algo in ALGOS:
            r.points[("crill", 100, algo)] = 0.123456789
            r.points[("ibex", 100, algo)] = 0.5
        assert "crill,100,no_overlap,0.123456789" in fig1_tables(r)[0].csv()

    def test_improvements_csv_handles_none(self):
        r = ImprovementResult("ibex")
        r.values[("write_overlap", "ior")] = 0.25
        r.values[("comm_overlap", "ior")] = None
        out = improvement_tables(r)[0].csv()
        assert "ibex,write_overlap,ior,0.250000\n" in out
        assert "ibex,comm_overlap,ior,\n" in out

    def test_fig4_csv(self):
        r = Fig4Result()
        r.rows = {"tile_256": {"two_sided": 1, "one_sided_fence": 3}}
        assert "tile_256,one_sided_fence,3" in fig4_tables(r)[0].csv()

    def test_csv_quotes_commas(self):
        assert '"x,y"' in Table("", csv_columns("a"), [["x,y"]]).csv()

    def test_csv_escapes_embedded_quotes(self):
        """RFC 4180: quoted cells double their internal quotes."""
        out = Table("", csv_columns("a", "b"), [['say "hi"', 'both, "kinds"']]).csv()
        assert '"say ""hi"""' in out
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed == [["a", "b"], ['say "hi"', 'both, "kinds"']]

    def test_csv_quotes_newlines(self):
        out = Table("", csv_columns("a"), [["two\nlines"]]).csv()
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed == [["a"], ["two\nlines"]]

    def test_csv_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            Table("", csv_columns("a", "b"), [["only-one"]]).csv()

    def test_csv_without_header_continues_a_file(self):
        table = Table("", csv_columns("a"), [[1]])
        assert table.csv() + table.csv(header=False) == "a\n1\n1\n"

    def test_all_csv_emitters_have_uniform_row_width(self):
        """Every registry entry turns a result into a CSV with a header
        and rows of the header's width (``perf`` renders a JSON-backed
        report and has none)."""
        t1 = Table1Result()
        t1.rows = {"ior": {"no_overlap": 2, "write_overlap": 3}}
        f1 = Fig1Result(nprocs_list=[100])
        for cluster in ("crill", "ibex"):
            for algo in ALGOS:
                f1.points[(cluster, 100, algo)] = 0.5
        imp = ImprovementResult("crill")
        imp.values[("write_overlap", "ior")] = 0.1
        imp.values[("comm_overlap", "ior")] = None
        f4 = Fig4Result()
        f4.rows = {"ior": {"two_sided": 1, "one_sided_fence": 0}}
        policies = {"end_of_job": 3.0, "watermark": 2.0, "immediate": 1.0}
        results = {
            "table1": t1, "fig1": f1, "fig2": imp, "fig3": imp, "fig4": f4,
            "breakdown": {("crill", 576): (0.07, 0.93)},
            "lustre": LustreResult({"beegfs": (1.0, 0.8, 0.2)}),
            "read": ReadStudyResult({("crill", "no_overlap", "two_sided"): 0.25}),
            "overlap": OverlapStudyResult(
                nprocs=96, rows={"no_overlap": (1.0, 0.9, 0.0, 0.0)}),
            "twolayer": TwoLayerStudyResult("ibex", "ior", [
                TwoLayerRow(2, 4, 8, "no_overlap", "two_sided", 48, 12, 6, 1.0, 0.5)]),
            "staging": StagingStudyResult("crill", "ior", 16, [
                StagingRow("no_overlap", "drain_bound", 1.0, policies,
                           dict.fromkeys(policies, 0), dict.fromkeys(policies, 64))]),
            "ablations": [AblationResult("knob", "setting", {"on": {"no_overlap": 1.0}}),
                          AblationResult("dial", "level", {"9": {"no_overlap": 2.0}})],
            "tune": _tuning_result(),
            "chaos": ChaosCampaignResult(4, 1, cells=[
                ChaosCell("no_overlap", "low", runs=1, completions=1),
                ChaosCell("no_overlap", "high", runs=1)]),
            "integrity": IntegrityCampaignResult(4, 1, cells=[
                IntegrityCell("no_overlap", False, runs=1, corrupted=1, detected=1)]),
        }
        assert set(results) == set(CAMPAIGNS) - {"perf"}
        for name, result in results.items():
            tables = CAMPAIGNS[name].tables(result)
            text = "".join(t.csv(header=i == 0) for i, t in enumerate(tables))
            rows = list(csv.reader(io.StringIO(text)))
            assert len(rows) >= 2, f"{name} produced no data rows"
            width = len(rows[0])
            assert width > 1
            assert all(len(r) == width for r in rows), name
            assert all(t.text() for t in tables)

    def test_incomplete_cells_render_a_dash(self):
        """Means over zero completed runs have no value to show."""
        chaos = CAMPAIGNS["chaos"].tables(ChaosCampaignResult(4, 1, cells=[
            ChaosCell("no_overlap", "high", runs=2)]))[0]
        assert chaos.text().split("\n")[3].split(" | ")[2:6] == [
            "     0/2", "       -", "       -", "       -"]
        assert chaos.csv().splitlines()[1] == (
            "no_overlap,high,2,0,0.000000,0.000000,0.000000,0.000000000,0,0,0")

"""Checks of the benchmark itself, at the ``--smoke`` sizing.

Not part of tier-1 (``testpaths = ["tests"]``); run with
``PYTHONPATH=src python -m pytest benchmarks/perfbench``.  Three smoke suites (two with one seed,
one with another) take about 45 s together.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perfbench import compare as cmp
from benchmarks.perfbench.__main__ import RUN_SECONDS, WORKLOAD_NAMES
from benchmarks.perfbench.metrics import COUNTS, END_TO_END, FAIL_RATIO, PER_LAYER
from benchmarks.perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perfbench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def suites(tmp_path_factory) -> dict[str, dict]:
    """Result documents of three traced smoke suites: a, b (seed 2020), c (seed 2021)."""
    tmp = tmp_path_factory.mktemp("perfbench")
    docs = {}
    for label, seed in (("a", 2020), ("b", 2020), ("c", 2021)):
        out = tmp / f"{label}.json"
        proc = perfbench("run", "--smoke", "--trace", "--seed", str(seed), "--out", str(out))
        assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
        docs[label] = json.loads(out.read_text())
    return docs


def test_benchmark_json_agrees_with_the_metric_registry():
    assert BENCHMARK["paths"] == ["benchmarks/perfbench"]
    assert BENCHMARK["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


def test_every_named_metric_is_reported_and_no_other(suites):
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | {FAIL_RATIO.name}
    layers = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(suites["a"]["workloads"]) == set(WORKLOAD_NAMES)
    for name, result in suites["a"]["workloads"].items():
        assert set(result["end_to_end"]) == e2e, name
        assert set(result["per_layer"]) == layers, name
        for metric, value in (result["end_to_end"] | result["per_layer"]).items():
            assert NAME.fullmatch(metric), metric
            assert math.isfinite(value), (name, metric, value)
        assert result["failed"] == 0 and result["attempted"] >= 1, result["failures"]


def test_counts_repeat_exactly_for_a_seed_and_simulated_time_follows_the_seed(suites):
    for name in WORKLOAD_NAMES:
        a, b, c = (suites[k]["workloads"][name] for k in "abc")
        for m in COUNTS:
            assert a["per_layer"][m.name] == b["per_layer"][m.name], (name, m.name)
        assert a["end_to_end"]["sim_elapsed_s"] == b["end_to_end"]["sim_elapsed_s"], name
        if name != "chaos_repair":  # its RunSpec.seed is pinned: see workloads.py
            assert a["end_to_end"]["sim_elapsed_s"] != c["end_to_end"]["sim_elapsed_s"], name


def test_the_layers_separate_as_designed(suites):
    layer = {n: w["per_layer"] for n, w in suites["a"]["workloads"].items()}
    for m in ("staging.self_s", "integrity.self_s", "faults.self_s", "recovery.self_s",
              "collio.read.self_s"):
        assert layer["ior_scale"][m] == 0, m
    for name in WORKLOAD_NAMES:
        assert (layer[name]["collio.read.self_s"] > 0) == (name == "read_back"), name
        assert (layer[name]["recovery.self_s"] > 0) == (name == "chaos_repair"), name
        assert (layer[name]["faults.self_s"] > 0) == (name == "chaos_repair"), name
    for m in ("staging.self_s", "integrity.self_s", "collio.intranode.self_s"):
        assert layer["stack_features"][m] > 0, m


def test_compare_of_a_file_with_itself_is_all_unchanged(suites):
    rows = cmp.compare(suites["a"], suites["a"])
    assert len(rows) == len(WORKLOAD_NAMES) * (len(END_TO_END) + 1)
    assert {r["verdict"] for r in rows} == {"unchanged"}


def test_compare_names_a_regression(suites):
    slower = json.loads(json.dumps(suites["a"]))
    w = slower["workloads"]["ior_scale"]
    w["end_to_end"]["wall_s"] *= 1.5
    w["samples"]["wall_s"] = [x * 1.5 for x in w["samples"]["wall_s"]]
    verdicts = {(r["workload"], r["metric"]): r["verdict"]
                for r in cmp.compare(suites["a"], slower)}
    assert verdicts.pop(("ior_scale", "wall_s")) == "worse"
    assert set(verdicts.values()) == {"unchanged"}


@pytest.mark.parametrize("trace, metrics", [("0", END_TO_END), ("1", PER_LAYER)])
def test_last_line_is_the_contract_result(trace, metrics):
    proc = perfbench("run", "--smoke", "--workload", "tile256_payload", "--seed", "7",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in metrics}


def test_exits_non_zero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perfbench", tmp_path / "benchmarks" / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = perfbench("run", "--workload", "ior_scale", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

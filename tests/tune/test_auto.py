"""``algorithm="auto"``: tuner-backed selection inside the write API."""

import pytest

from repro.bench.runner import specs_for
from repro.collio.api import RunSpec, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.overlap import ALGORITHMS
from repro.tune import select_algorithm, views_fingerprint
from repro.workloads import make_workload

SCALE = 512
NPROCS = 4


@pytest.fixture(scope="module")
def setup():
    cluster_spec, fs_spec = specs_for("crill", SCALE)
    workload = make_workload("ior", NPROCS, scale=SCALE)
    config = CollectiveConfig.for_scale(
        SCALE, extent_cost_factor=workload.extent_cost_factor
    )
    return cluster_spec, fs_spec, workload.views(), config


def _brute_force_best(cluster_spec, fs_spec, views, config, seed=2020):
    points = {
        name: run_collective_write(RunSpec(
            cluster=cluster_spec, fs=fs_spec, nprocs=NPROCS, views=views,
            algorithm=name, config=config, seed=seed, carry_data=False,
        )).elapsed
        for name in ALGORITHMS
    }
    return min(sorted(points), key=lambda n: (points[n], n))


def test_auto_matches_brute_force(setup):
    cluster_spec, fs_spec, views, config = setup
    result = run_collective_write(RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=NPROCS, views=views,
        algorithm="auto", config=config, carry_data=False,
    ))
    assert result.algorithm in ALGORITHMS
    assert result.algorithm == _brute_force_best(cluster_spec, fs_spec, views, config)
    assert result.trace_counters["tune.auto_select"] == 1
    assert result.trace_counters["tune.auto_trials"] == len(ALGORITHMS)


def test_auto_decision_is_cached(setup, tmp_path):
    cluster_spec, fs_spec, views, config = setup
    cache_dir = str(tmp_path / "auto")
    first = run_collective_write(RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=NPROCS, views=views,
        algorithm="auto", config=config, carry_data=False, auto_cache_dir=cache_dir,
    ))
    assert "tune.auto_cache_hit" not in first.trace_counters
    second = run_collective_write(RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=NPROCS, views=views,
        algorithm="auto", config=config, carry_data=False, auto_cache_dir=cache_dir,
    ))
    assert second.trace_counters["tune.auto_cache_hit"] == 1
    assert "tune.auto_trials" not in second.trace_counters  # zero simulations
    assert second.algorithm == first.algorithm
    assert second.elapsed == first.elapsed  # same seed, same chosen algorithm


def test_auto_verifies_file_contents(setup):
    """The chosen algorithm still writes a byte-correct file."""
    cluster_spec, fs_spec, views, config = setup
    result = run_collective_write(RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=NPROCS, views=views,
        algorithm="auto", config=config, verify=True,
    ))
    assert result.verified is True


def test_select_algorithm_candidate_subset(setup):
    cluster_spec, fs_spec, views, config = setup
    name, counters = select_algorithm(
        cluster_spec, fs_spec, NPROCS, views, config=config,
        candidates=("no_overlap", "write_overlap"),
    )
    assert name in ("no_overlap", "write_overlap")
    assert counters["tune.auto_trials"] == 2
    with pytest.raises(ValueError):
        select_algorithm(cluster_spec, fs_spec, NPROCS, views, config=config,
                         candidates=())


def test_views_fingerprint_sensitivity(setup):
    _, _, views, _ = setup
    other = make_workload("ior", NPROCS, scale=SCALE, block_size=1 << 14).views()
    assert views_fingerprint(views) == views_fingerprint(views)
    assert views_fingerprint(views) != views_fingerprint(other)

"""Regression: parallel == serial bit-for-bit, and warm reruns are free.

The two properties the ISSUE pins down:

* a tuner run with ``n_workers=4`` produces **byte-identical**
  ``TuningResult`` JSON to ``n_workers=1`` with the same seed;
* a second run served entirely from the persistent cache performs zero
  simulations, asserted via the ``tune.*`` counters.
"""

from repro.sim.trace import Recorder
from repro.tune import autotune
from tests.tune.conftest import SCENARIO_KW

#: Keyword arguments shared by every autotune call in this module.
TUNE_KW = dict(search="halving", reps=3, screen_reps=1, base_seed=2020, **SCENARIO_KW)


def test_parallel_serial_byte_identical_json():
    serial = autotune(n_workers=1, **TUNE_KW)
    parallel = autotune(n_workers=4, **TUNE_KW)
    assert parallel.to_json() == serial.to_json()


def test_second_run_is_all_cache_hits_with_zero_simulations(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = Recorder()
    first = autotune(n_workers=2, cache_dir=cache_dir, recorder=cold, **TUNE_KW)
    assert cold.count("tune.sim_run") > 0
    assert cold.count("tune.trial") == \
        cold.count("tune.sim_run") + cold.count("tune.cache_hit")

    warm = Recorder()
    second = autotune(n_workers=2, cache_dir=cache_dir, recorder=warm, **TUNE_KW)
    assert warm.count("tune.sim_run") == 0
    assert warm.count("tune.cache_hit") == warm.count("tune.trial") > 0
    assert second.to_json() == first.to_json()
    hits, sims = second.cache_stats()
    assert sims == 0 and hits == warm.count("tune.trial")


def test_grid_reuses_halvings_cached_trials(tmp_path):
    """Overlapping searches share points: grid after halving only simulates
    the candidates halving pruned before their full repetitions."""
    cache_dir = str(tmp_path / "cache")
    autotune(cache_dir=cache_dir, **TUNE_KW)
    recorder = Recorder()
    grid_kw = dict(TUNE_KW, search="grid")
    grid_kw.pop("screen_reps")
    result = autotune(cache_dir=cache_dir, recorder=recorder, **grid_kw)
    total = recorder.count("tune.trial")
    assert recorder.count("tune.sim_run") < total  # promoted candidates were free
    assert recorder.count("tune.cache_hit") > 0
    assert len(result.ranked) == result.total_candidates

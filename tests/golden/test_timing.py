"""Timing fixed point: simulated time and timeline are bit-identical.

The fingerprints deliberately leave timing out; this file pins it.  Each
case re-runs one spec of ``tests/golden/scenario.py::timing_specs`` and
compares ``result.elapsed`` (as a float hex string) and the sha256 of
the Chrome trace against tests/golden/timing.json.  A PR that changes
how fast the *simulator* runs (engine dispatch, caches, batching) must
leave this file untouched; a PR that changes the *cost model* refreshes
it on purpose with ``PYTHONPATH=src python tests/golden/refresh.py
--timing`` and says so.

The ``read/...`` entries pin collective reads the same way (elapsed,
cycle count and per-phase maxima; captured before reads moved onto the
write pipeline, so they are also that refactor's fixed point).

The ``telemetry/...`` entries pin what the run recorder reports — metrics,
trace counters, integrity snapshot and spans — for the same runs, two
traced fault runs and the tuner's cold/warm counters (captured before
the three metric stores became one recorder).

The ``untraced/...`` entries run the timed and telemetry writes again
with ``trace=False`` and pin elapsed plus ``sim.events_processed`` /
``sim.timeouts_coalesced``: the write path branches on whether spans are
recorded, so the traced pins alone do not cover an untraced clock.
"""

import json
import os

import pytest

from repro.collio.api import run_collective_write
from tests.golden.scenario import (
    TELEMETRY, read_back, read_timing, read_timing_cases, telemetry,
    telemetry_specs, timing, timing_specs, tuner_counters, untraced, untraced_specs,
)

_TIMING = os.path.join(os.path.dirname(__file__), "timing.json")
_SPECS = timing_specs()
_READ_CASES = read_timing_cases()
_TELEMETRY_SPECS = telemetry_specs()
_UNTRACED_SPECS = untraced_specs()
_TUNER_KEYS = {TELEMETRY + "tune/cold", TELEMETRY + "tune/warm"}


def _load() -> dict:
    with open(_TIMING) as fh:
        return json.load(fh)


def test_timing_file_covers_all_cases():
    timed = set(_SPECS) | set(_READ_CASES)
    assert set(_load()) == (
        timed | {TELEMETRY + key for key in timed} | set(_TELEMETRY_SPECS) | _TUNER_KEYS
        | set(_UNTRACED_SPECS)
    )
    assert len(_SPECS) == 47
    assert len(_READ_CASES) == 7
    assert len(_UNTRACED_SPECS) == len(_SPECS) + len(_TELEMETRY_SPECS)


@pytest.mark.parametrize("key", list(_SPECS))
def test_same_seed_timing(key):
    result = run_collective_write(_SPECS[key])
    golden = _load()
    assert timing(result) == golden[key], (
        f"simulated timing drifted for {key}; if the cost model changed "
        "on purpose: PYTHONPATH=src python tests/golden/refresh.py --timing"
    )
    assert telemetry(result) == golden[TELEMETRY + key], f"telemetry drifted for {key}"


@pytest.mark.parametrize("key", list(_READ_CASES))
def test_same_seed_read_timing(key):
    result = read_back(**_READ_CASES[key])
    golden = _load()
    assert read_timing(result) == golden[key], f"simulated read timing drifted for {key}"
    assert telemetry(result) == golden[TELEMETRY + key], f"telemetry drifted for {key}"


@pytest.mark.parametrize("key", list(_TELEMETRY_SPECS))
def test_same_seed_telemetry(key):
    result = run_collective_write(_TELEMETRY_SPECS[key])
    assert telemetry(result) == _load()[key], f"telemetry drifted for {key}"


@pytest.mark.parametrize("key", list(_UNTRACED_SPECS))
def test_same_seed_untraced_timing(key):
    result = run_collective_write(_UNTRACED_SPECS[key])
    assert untraced(result) == _load()[key], f"untraced timing drifted for {key}"


def test_same_seed_tuner_counters():
    golden = _load()
    assert tuner_counters() == {key: golden[key] for key in _TUNER_KEYS}

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
"""

import json
import os

import pytest

from tests.golden.scenario import (
    read_timing, read_timing_cases, timing, timing_specs,
)

_TIMING = os.path.join(os.path.dirname(__file__), "timing.json")
_SPECS = timing_specs()
_READ_CASES = read_timing_cases()


def _load() -> dict:
    with open(_TIMING) as fh:
        return json.load(fh)


def test_timing_file_covers_all_cases():
    assert set(_load()) == set(_SPECS) | set(_READ_CASES)
    assert len(_SPECS) == 47
    assert len(_READ_CASES) == 7


@pytest.mark.parametrize("key", list(_SPECS))
def test_same_seed_timing(key):
    assert timing(_SPECS[key]) == _load()[key], (
        f"simulated timing drifted for {key}; if the cost model changed "
        "on purpose: PYTHONPATH=src python tests/golden/refresh.py --timing"
    )


@pytest.mark.parametrize("key", list(_READ_CASES))
def test_same_seed_read_timing(key):
    assert read_timing(**_READ_CASES[key]) == _load()[key], (
        f"simulated read timing drifted for {key}"
    )

"""The integrity campaign counts corruption, never simulator bugs.

``_integrity_rep`` turns a verify failure into ground truth ("the file
got corrupted") and a checking mode's error into a false positive.  A
bare ``AssertionError`` is neither: it is an internal invariant that
fired, and must reach the caller instead of being scored.
"""

import pytest

from repro.bench import integrity as campaign
from repro.bench.runner import small_scenario
from repro.collio.config import CollectiveConfig
from repro.units import KiB

_REAL_RUN = campaign.run_collective_write


def _checked(spec) -> bool:
    return spec.config.integrity is not None


@pytest.mark.parametrize(
    "fires",
    [
        pytest.param(lambda s: _checked(s) and s.faults is None, id="clean-checked"),
        pytest.param(lambda s: not _checked(s) and s.faults is not None,
                     id="faulty-unchecked"),
        pytest.param(lambda s: _checked(s) and s.faults is not None
                     and s.config.integrity.mode == "detect", id="faulty-detect"),
        pytest.param(lambda s: _checked(s) and s.faults is not None
                     and s.config.integrity.mode == "repair", id="faulty-repair"),
    ],
)
def test_internal_assertion_propagates(monkeypatch, fires):
    def run(spec):
        if fires(spec):
            raise AssertionError("internal invariant")
        return _REAL_RUN(spec)

    monkeypatch.setattr(campaign, "run_collective_write", run)
    spec = small_scenario("bitrot", 4, 64).replace(
        algorithm="write_overlap", seed=5,
        config=CollectiveConfig(cb_buffer_size=16 * KiB),
    )
    with pytest.raises(AssertionError, match="internal invariant"):
        campaign._integrity_rep(spec)

"""The end-of-job scrub: read-back-off runs where corruption reaches the
stored file and only the scrub pass can catch it."""

import pytest

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunSpec
from repro.errors import CorruptDataError, ReproError, VerificationError
from repro.faults.spec import FaultSpec
from repro.integrity import IntegritySpec

from tests.integrity.conftest import contiguous_views, small_cluster, small_fs

#: Storage-level corruption fires on ~1 in 4 PFS writes; with read-back
#: disabled it lands silently in the file and only the scrub sees it.
STORAGE_FAULTS = FaultSpec(storage_corrupt_rate=0.25)


def _spec(seed, mode, scrub=True, readback=False, faults=STORAGE_FAULTS):
    return RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000), algorithm="write_overlap",
        verify=True, seed=seed, faults=faults,
        config=CollectiveConfig(
            cb_buffer_size=16 * 1024,
            integrity=IntegritySpec(mode=mode, scrub=scrub, readback=readback),
        ),
    )


def _corrupting_seed():
    for seed in range(7, 15):
        try:
            run_collective_write(RunSpec(
                cluster=small_cluster(), fs=small_fs(), nprocs=8,
                views=contiguous_views(8, 40_000), algorithm="write_overlap",
                verify=True, seed=seed, faults=STORAGE_FAULTS,
            ))
        except AssertionError:
            return seed
    raise RuntimeError("no seed corrupted in range")


def test_scrub_catches_what_readback_would_have():
    seed = _corrupting_seed()
    with pytest.raises(CorruptDataError, match="scrub"):
        run_collective_write(_spec(seed, "detect"))


def test_scrub_repairs_in_repair_mode():
    seed = _corrupting_seed()
    base = run_collective_write(_spec(seed, "off", faults=None))
    res = run_collective_write(_spec(seed, "repair"))
    assert res.verified
    assert res.file_sha256 == base.file_sha256
    reports = res.integrity["scrub_reports"]
    assert reports, "scrub produced no reports"
    assert sum(r["mismatches"] for r in reports) >= 1
    assert all(r["mismatches"] == r["repaired"] for r in reports)
    assert res.trace_counters.get("integrity.rewrite", 0) >= 1


def test_scrub_disabled_lets_storage_corruption_through():
    """scrub=False + readback=False on detect mode: nothing checks the
    stored bytes, so the corruption survives to the byte-exact verify."""
    seed = _corrupting_seed()
    with pytest.raises(AssertionError, match="corrupted the file"):
        run_collective_write(_spec(seed, "detect", scrub=False))


def test_verify_failure_is_a_typed_error():
    seed = _corrupting_seed()
    with pytest.raises(VerificationError, match="corrupted the file") as info:
        run_collective_write(_spec(seed, "detect", scrub=False))
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, AssertionError)


def test_scrub_reports_clean_on_fault_free_run():
    res = run_collective_write(_spec(7, "repair", faults=None))
    reports = res.integrity["scrub_reports"]
    assert reports
    assert all(r["mismatches"] == 0 and r["repaired"] == 0 for r in reports)
    total = sum(r["bytes_scrubbed"] for r in reports)
    assert total == 8 * 40_000  # every written byte re-read exactly once

"""Memory-budget gate: how many payload-sized blocks a collective holds.

Two-phase I/O exists to bound memory by the collective buffer however
large the file is; the host process should show the same discipline.  A
payload run holds the payloads, one file store, the cycle buffers and one
verification window — and nothing once it has returned, without waiting
for the cyclic collector.  Pristine bytes are derived, never copied: a
read holds its buffers in place of the payloads, and integrity repair
composes from the producers' buffers instead of keeping an escrow.  Like
the event-budget gate this degrades silently (a doubling store, a
file-sized temporary, a world kept alive by its reference cycles change
no simulated number), so it is pinned with ``tracemalloc``, which counts
requested bytes and is deterministic where RSS is not.  Ratios are to the payload bytes; run with ``-rA`` to see
them.
"""

import gc
import tracemalloc

import pytest

from repro.collio.api import CollectiveConfig, RunSpec, run_collective_write
from repro.collio.read import run_collective_read
from repro.errors import CorruptDataError, RecoveryExhaustedError
from repro.faults.presets import fault_preset
from repro.faults.retry import RetryPolicy
from repro.faults.spec import FaultSpec
from repro.fs.presets import beegfs_crill
from repro.hardware.presets import crill
from repro.integrity.spec import IntegritySpec
from repro.recovery.spec import RecoverySpec
from repro.staging.spec import StagingSpec
from repro.workloads import make_workload

NPROCS = 16
SCALE = 256

#: What may still be traced after the call returned, no ``gc.collect()``.
RESIDUE = 0.1


@pytest.fixture(scope="module")
def case():
    workload = make_workload("tile_256", NPROCS, scale=SCALE, rows=64, row_elements=64)
    return {
        "cluster": crill(scale=SCALE), "fs": beegfs_crill(scale=SCALE),
        "nprocs": NPROCS, "views": workload.views(),
        "config": CollectiveConfig.for_scale(
            SCALE, extent_cost_factor=workload.extent_cost_factor),
    }


def traced(call, payload_bytes: int) -> tuple[float, float]:
    """``(peak, left over)`` traced bytes of ``call()`` as payload ratios.

    One untraced warm-up first: imports, the plan cache and the
    interpreter's free lists are the process's, not the run's.  The
    collector is off while measuring, so what is released was released
    by reference counts and explicit ``close`` alone.
    """
    call()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    peak, left = (peak - base) / payload_bytes, (current - base) / payload_bytes
    print(f"peak {peak:.2f}x payload, {left:.3f}x left after return")
    return peak, left


def payload_bytes(case) -> int:
    return sum(v.total_bytes for v in case["views"].values())


@pytest.mark.parametrize("shuffle", ["two_sided", "one_sided_fence"])
def test_write_holds_payload_file_and_one_window(case, shuffle):
    spec = RunSpec(**case, algorithm="write_comm2", shuffle=shuffle, verify=True)

    def call():
        assert run_collective_write(spec).verified is True

    peak, left = traced(call, payload_bytes(case))
    assert peak <= 2.75
    assert left <= RESIDUE


def test_read_holds_payload_file_and_buffers(case):
    """The file (the payloads laid out) and the read buffers; no payload
    dict beside them — verification regenerates one rank's at a time."""
    def call():
        result = run_collective_read(
            case["cluster"], case["fs"], NPROCS, case["views"],
            config=case["config"], verify=True,
        )
        assert result.verified is True

    peak, left = traced(call, payload_bytes(case))
    assert peak <= 2.4
    assert left <= RESIDUE


def test_staged_repair_run_keeps_no_repair_copy_and_releases_tier(case):
    """Staging snapshots are a further copy while the run lasts; repair
    adds none (it composes from the ranks' buffers), and nothing may
    outlive the run."""
    spec = RunSpec(
        **{**case, "config": case["config"].with_(integrity=IntegritySpec(mode="repair"))},
        algorithm="write_comm2", staging=StagingSpec(policy="watermark"), verify=True,
    )

    def call():
        result = run_collective_write(spec)
        assert result.verified is True
        assert result.metrics["counters"]["staging.drained_bytes"] == result.total_bytes
        assert result.integrity["extents_recorded"] > 0

    peak, left = traced(call, payload_bytes(case))
    assert peak <= 3.3
    assert left <= RESIDUE


def test_crash_recovery_releases_every_attempt(case):
    spec = RunSpec(
        **case, algorithm="write_overlap", verify=True, retry=RetryPolicy(),
        faults=fault_preset("degraded_cluster"),
    )

    def call():
        result = run_collective_write(spec)
        assert result.verified is True
        assert result.recovery.attempts > 1

    peak, left = traced(call, payload_bytes(case))
    assert peak <= 2.75
    assert left <= RESIDUE


@pytest.mark.parametrize("failing", ["corrupt", "exhausted"])
def test_run_that_raises_releases_like_one_that_completes(case, failing):
    if failing == "corrupt":
        # Detect-only integrity under storage bit-flips: the first flip
        # aborts the run.
        spec = RunSpec(
            **{**case, "config": case["config"].with_(
                integrity=IntegritySpec(mode="detect"))},
            algorithm="write_comm2", verify=True,
            faults=FaultSpec(storage_corrupt_rate=0.5),
        )
        error = CorruptDataError
    else:
        spec = RunSpec(
            **case, algorithm="write_overlap", verify=True, retry=RetryPolicy(),
            faults=fault_preset("degraded_cluster"),
            recovery=RecoverySpec(max_attempts=1),
        )
        error = RecoveryExhaustedError

    def call():
        try:
            run_collective_write(spec)
        except error:
            return
        raise AssertionError(f"expected {error.__name__}")

    _, left = traced(call, payload_bytes(case))
    assert left <= RESIDUE

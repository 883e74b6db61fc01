"""Repair acceptance: under injected corruption, repair mode converges to
the byte-identical file a fault-free run of the same seed produces."""

import pytest

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunSpec
from repro.errors import CorruptDataError
from repro.faults import fault_preset
from repro.faults.spec import FaultSpec
from repro.integrity import IntegritySpec
from repro.staging.spec import StagingSpec

from tests.integrity.conftest import contiguous_views, small_cluster, small_fs

ALL_ALGORITHMS = ["no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"]
SEEDS = (8, 9)  # both corrupt under bitrot_cluster at this scenario size


def _spec(algorithm, seed, mode=None, faults=None, staged=False,
          shuffle="two_sided", **integrity_kw):
    return RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000), algorithm=algorithm,
        shuffle=shuffle, verify=True, seed=seed, faults=faults,
        config=CollectiveConfig(
            cb_buffer_size=16 * 1024,
            staging=StagingSpec() if staged else None,
            integrity=IntegritySpec(mode=mode, **integrity_kw) if mode else None,
        ),
    )


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_repair_restores_fault_free_bytes(algorithm):
    """Acceptance: final file_sha256 under repair mode equals the
    fault-free run's, for every algorithm, on corrupting seeds."""
    faults = fault_preset("bitrot_cluster")
    for seed in SEEDS:
        base = run_collective_write(_spec(algorithm, seed))
        res = run_collective_write(_spec(algorithm, seed, mode="repair",
                                         faults=faults))
        assert res.verified
        assert res.file_sha256 == base.file_sha256
        assert res.integrity["repaired"] == res.integrity["detected"]


@pytest.mark.parametrize("staged", [False, True])
def test_repair_through_staging_tier(staged):
    faults = fault_preset("bitrot_cluster")
    base = run_collective_write(_spec("write_comm2", 9, staged=staged))
    res = run_collective_write(_spec("write_comm2", 9, mode="repair",
                                     faults=faults, staged=staged))
    assert res.file_sha256 == base.file_sha256


@pytest.mark.parametrize("shuffle", ["one_sided_fence", "one_sided_lock"])
def test_repair_on_rma_shuffles(shuffle):
    faults = fault_preset("bitrot_cluster")
    base = run_collective_write(_spec("write_overlap", 8, shuffle=shuffle))
    res = run_collective_write(_spec("write_overlap", 8, mode="repair",
                                     faults=faults, shuffle=shuffle))
    assert res.file_sha256 == base.file_sha256


def test_repair_visible_in_counters():
    faults = fault_preset("bitrot_cluster")
    res = run_collective_write(_spec("write_overlap", 8, mode="repair",
                                     faults=faults))
    assert res.trace_counters.get("integrity.repaired", 0) >= 1
    # Repair happened via retransmission/refetch/rewrite, never silently.
    repair_paths = (
        res.trace_counters.get("integrity.retransmit", 0)
        + res.trace_counters.get("integrity.refetch", 0)
        + res.trace_counters.get("integrity.rewrite", 0)
    )
    assert repair_paths >= 1


def test_certain_corruption_exhausts_bounded_attempts():
    """With corruption firing on every delivery, repair retransmissions
    are themselves corrupted: the bounded attempt budget must expire into
    CorruptDataError, not loop forever."""
    faults = FaultSpec(message_corrupt_rate=1.0)
    with pytest.raises(CorruptDataError, match="checksum"):
        run_collective_write(_spec("write_overlap", 7, mode="repair",
                                   faults=faults))


@pytest.mark.parametrize(
    "faults, shuffle, staged, integrity_kw, hop",
    [
        pytest.param(FaultSpec(message_corrupt_rate=1.0), "two_sided", False, {},
                     r"^message \d+->\d+ .* failed checksum verification",
                     id="message"),
        pytest.param(FaultSpec(message_corrupt_rate=1.0), "one_sided_fence", False, {},
                     r"^put \d+->\d+ .* failed checksum verification",
                     id="put-fence"),
        pytest.param(FaultSpec(message_corrupt_rate=1.0), "one_sided_lock", False, {},
                     r"^put \d+->\d+ .* failed checksum verification",
                     id="put-lock"),
        pytest.param(FaultSpec(staging_corrupt_rate=1.0), "two_sided", True, {},
                     r"^staged extent .* failed checksum verification",
                     id="staging"),
        pytest.param(FaultSpec(storage_corrupt_rate=1.0), "two_sided", False,
                     {"readback": True},
                     r"^stored extent .* failed read-back verification",
                     id="storage-readback"),
        pytest.param(FaultSpec(storage_corrupt_rate=1.0), "two_sided", False,
                     {"readback": False, "scrub": True},
                     r"^scrub on rank \d+ found \d+ corrupt extent",
                     id="storage-scrub"),
    ],
)
def test_every_hop_repair_budget_terminates(faults, shuffle, staged, integrity_kw, hop):
    """Every verify hop shares one bounded repair budget: with corruption
    certain on its every redo, each hop gives up with CorruptDataError
    naming itself instead of looping."""
    with pytest.raises(CorruptDataError, match=hop):
        run_collective_write(_spec("write_overlap", 7, mode="repair", faults=faults,
                                   staged=staged, shuffle=shuffle, **integrity_kw))


def test_repair_deterministic_per_seed():
    faults = fault_preset("bitrot_cluster")
    a = run_collective_write(_spec("write_overlap", 8, mode="repair", faults=faults))
    b = run_collective_write(_spec("write_overlap", 8, mode="repair", faults=faults))
    assert a.elapsed == b.elapsed
    assert a.file_sha256 == b.file_sha256
    assert a.integrity["counters"] == b.integrity["counters"]

"""Repair sources are derived, never copied.

A repair-mode layer keeps no pristine copy of what it writes: every rank
registers its ``(view, data)`` and ``repair_source`` composes a recorded
extent's bytes from those buffers when a drain re-fetch or a scrub
rewrite needs them.  These tests pin that both repairs still restore the
fault-free file — through ``run_collective_write`` and through
``MPIFile.write_all`` — that the composed bytes are the recorded ones,
also for a recovery attempt's replay views, and that a collective read's
verification (which regenerates each rank's payload) still names the
rank and offset of a wrong byte.
"""

import hashlib

import numpy as np
import pytest

from repro.collio import CollectiveConfig, run_collective_write
from repro.collio.api import RunPipeline, RunSpec, default_data
from repro.collio.read import READ
from repro.errors import VerificationError
from repro.integrity import IntegritySpec
from repro.integrity.checksum import extent_checksum
from repro.mpi.world import World
from repro.recovery.manager import _recovery_loop
from repro.recovery.spec import RecoverySpec
from repro.sim.trace import Recorder

from tests.golden.scenario import TELEMETRY, telemetry_specs
from tests.integrity.conftest import contiguous_views, small_cluster, small_fs


@pytest.fixture(scope="module")
def laden():
    """Bit-rot through every write-path layer: two-layer gather, watermark
    staging, integrity repair with scrub and read-back, retry."""
    return telemetry_specs()[TELEMETRY + "bitrot_cluster/laden"]


@pytest.fixture(scope="module")
def fault_free_sha(laden):
    return run_collective_write(laden.replace(faults=None, trace=False)).file_sha256


def _assert_both_repairs(counters):
    assert counters.get("integrity.refetch", 0) >= 1  # drain re-fetch
    assert counters.get("integrity.rewrite", 0) >= 1  # scrub (or read-back) rewrite


def test_run_collective_write_refetches_and_rewrites(laden, fault_free_sha):
    result = run_collective_write(laden.replace(trace=False))
    assert result.file_sha256 == fault_free_sha
    _assert_both_repairs(result.integrity["counters"])


def test_write_all_refetches_and_rewrites(laden, fault_free_sha):
    config = laden.resolved_config()
    world = World(laden.cluster, laden.nprocs, fs_spec=laden.fs, seed=laden.seed,
                  faults=laden.faults, recorder=Recorder())

    def program(mpi):
        fh = yield from mpi.file_open(laden.path)
        view = laden.views[mpi.rank]
        fh.set_view(view=view)
        yield from fh.write_all(
            default_data(mpi.rank, view.total_bytes),
            algorithm=laden.algorithm, shuffle=laden.shuffle, config=config,
        )

    world.run(program)
    _assert_both_repairs(world.integrity.counters())
    contents = world.pfs.open(laden.path).contents()
    world.close()
    assert hashlib.sha256(contents).hexdigest() == fault_free_sha


def _repair_layer(mode):
    """A finished world's integrity layer, before the world is closed."""
    spec = RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=4,
        views=contiguous_views(4, 20_000), algorithm="write_comm2",
        config=CollectiveConfig(cb_buffer_size=16 * 1024,
                                integrity=IntegritySpec(mode=mode)),
    ).validate()
    run = RunPipeline(spec, spec.algorithm, spec.resolved_config())
    assert run.attempt() is None
    return run


def test_repair_source_composes_every_recorded_extent():
    run = _repair_layer("repair")
    layer = run.world.integrity
    assert layer.manifest
    for (path, offset, nbytes), (crc, _rank) in layer.manifest.items():
        assert extent_checksum(layer.repair_source(path, offset, nbytes)) == crc
    run.close()


def test_repair_source_is_none_off_the_manifest_and_in_detect_mode():
    run = _repair_layer("repair")
    layer = run.world.integrity
    (path, offset, nbytes), _ = next(iter(layer.manifest.items()))
    assert layer.repair_source(path, offset, nbytes + 1) is None  # unrecorded
    assert layer.repair_source("/elsewhere", offset, nbytes) is None
    run.close()
    run = _repair_layer("detect")
    layer = run.world.integrity
    key = next(iter(layer.manifest))
    assert layer.repair_source(*key) is None
    run.close()


def test_replay_views_compose_every_recorded_extent():
    """A crash-recovery repair run: the last attempt's plan is built from
    replay views (remaining extents, offsets into the full buffers), and
    each of its recorded extents still composes to its manifest CRC."""
    spec = telemetry_specs()[TELEMETRY + "degraded_cluster/bitrot_repair"].replace(
        trace=False
    )
    run = RunPipeline(spec, spec.algorithm, spec.resolved_config())
    composed = []

    def drive(run):
        report = _recovery_loop(run, RecoverySpec())
        layer = run.world.integrity
        composed.extend(
            (extent_checksum(layer.repair_source(*key)), crc)
            for key, (crc, _rank) in layer.manifest.items()
        )
        return report

    result = run.run(drive)
    assert result.recovery.attempts > 1
    assert result.integrity["repaired"] > 0
    assert composed and all(got == want for got, want in composed)


def test_read_verification_names_rank_and_local_offset():
    spec = RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=4,
        views=contiguous_views(4, 20_000), algorithm="read_ahead", verify=True,
    ).validate(READ)
    run = RunPipeline(spec, spec.algorithm, spec.resolved_config(), direction=READ)
    assert run.attempt() is None
    assert run.payloads is None  # a read keeps no payload dict
    run.buffers[2][1234] ^= np.uint8(1)
    with pytest.raises(
        VerificationError, match="rank 2's data: 1 wrong bytes, first at local offset 1234"
    ):
        run.build_result()
    run.close()

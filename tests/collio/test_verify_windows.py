"""Windowed verification keeps the teeth of the file-sized pass it replaced.

``RunPipeline._verify_file`` holds one window of expectation at a time
and hashes the stored bytes in place.  Same verdicts, same error, same
``file_sha256`` as building the whole expected file — checked here
against exactly that, with a window small enough that every case spans
several.
"""

import hashlib

import numpy as np
import pytest

from repro.collio import CollectiveConfig, RunSpec
from repro.collio import api
from repro.collio.api import RunPipeline
from repro.collio.view import FileView
from repro.errors import VerificationError
from repro.mpi.world import World

from tests.collio.test_algorithms import small_cluster, small_fs

WINDOW = 4096
NPROCS = 4
#: Per rank: 7 extents of 700 bytes every 4000, ranks 1000 apart — a hole
#: of 300 after every extent, and a file of 27 700 bytes: six whole
#: windows and a last one of 3124.
SPARSE = {
    r: FileView(np.arange(7, dtype=np.int64) * 4000 + r * 1000, np.full(7, 700))
    for r in range(NPROCS)
}
SIZE = 27_700


@pytest.fixture(autouse=True)
def small_window(monkeypatch):
    monkeypatch.setattr(api, "VERIFY_WINDOW", WINDOW)


def whole_file_expectation(views, payloads) -> np.ndarray:
    """What verification compared against before it was windowed."""
    size = max(v.file_range[1] for v in views.values())
    expected = np.zeros(size, dtype=np.uint8)
    for rank, view in views.items():
        for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
            expected[off : off + ln] = payloads[rank][loc : loc + ln]
    return expected


def written(views) -> RunPipeline:
    """A pipeline whose one attempt wrote ``views``; not yet verified."""
    spec = RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=len(views), views=views,
        # One cycle per aggregator: a sub-buffer reused across cycles
        # carries stale bytes into the holes of a sparse view.
        algorithm="write_comm2", config=CollectiveConfig(cb_buffer_size=64 * 1024),
        verify=True,
    ).validate()
    run = RunPipeline(spec, spec.algorithm, spec.resolved_config())
    assert run.attempt() is None
    return run


def flip(run: RunPipeline, offset: int) -> None:
    simfile = run.world.pfs.open(run.spec.path)
    simfile.write(offset, simfile.read(offset, 1) ^ np.uint8(0x40))


def test_sha_is_of_the_stored_bytes_holes_included():
    run = written(SPARSE)
    simfile = run.world.pfs.open(run.spec.path)
    contents = simfile.contents()
    result = run.build_result()
    assert result.verified is True
    assert contents.size == SIZE and SIZE % WINDOW
    assert result.file_sha256 == hashlib.sha256(contents.tobytes()).hexdigest()
    assert np.array_equal(contents, whole_file_expectation(SPARSE, run.payloads))
    assert not contents[700:1000].any()  # a hole is part of the hash


@pytest.mark.parametrize("offset, where", [
    (5_100, "inside a window"),
    (2 * WINDOW - 1, "last byte of a window"),
    (2 * WINDOW, "first byte of a window"),
    (8_800, "in a hole between extents"),
    (SIZE - 1, "in the last, partial window"),
])
def test_one_flipped_byte_is_named_by_absolute_offset(offset, where):
    run = written(SPARSE)
    flip(run, offset)
    with pytest.raises(VerificationError) as err:
        run.build_result()
    assert str(err.value) == (
        f"collective write corrupted the file: 1 wrong bytes, first at offset {offset}"
    )


def test_wrong_bytes_are_counted_across_windows():
    run = written(SPARSE)
    for offset in (20_000, 100, 3 * WINDOW):
        flip(run, offset)
    with pytest.raises(VerificationError, match="3 wrong bytes, first at offset 100$"):
        run.build_result()


def test_overlapping_views_resolve_last_rank_wins():
    """Ranks 0 and 1 both claim [3000, 9000); rank 1's bytes must be the
    expected ones in every window the overlap crosses."""
    views = {0: FileView.contiguous(0, 9000), 1: FileView.contiguous(3000, 9000)}
    spec = RunSpec(cluster=small_cluster(), fs=small_fs(), nprocs=2, views=views)
    run = RunPipeline(spec.validate(), spec.algorithm, spec.resolved_config())
    run.world = World(spec.cluster, 2, fs_spec=spec.fs)
    run.payloads = {r: spec.data_factory(r, 9000) for r in views}
    simfile = run.world.pfs.open(spec.path)
    for rank in (0, 1):  # file order = rank order: the later rank lands on top
        simfile.write(views[rank].file_range[0], run.payloads[rank])
    expected = whole_file_expectation(views, run.payloads)
    assert np.array_equal(expected[3000:9000], run.payloads[1][:6000])
    assert run._verify_file() == hashlib.sha256(expected.tobytes()).hexdigest()

    simfile.write(3000, run.payloads[0][3000:9000])  # rank 0 on top instead
    with pytest.raises(VerificationError, match="first at offset 3000$"):
        run._verify_file()


def test_empty_views_hash_the_empty_file():
    views = {0: FileView.contiguous(0, 0)}
    spec = RunSpec(cluster=small_cluster(), fs=small_fs(), nprocs=1, views=views)
    run = RunPipeline(spec.validate(), spec.algorithm, spec.resolved_config())
    run.world = World(spec.cluster, 1, fs_spec=spec.fs)
    run.payloads = {0: spec.data_factory(0, 0)}
    assert run._verify_file() == hashlib.sha256(b"").hexdigest()

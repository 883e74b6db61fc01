"""Tests for the byte-accurate file store."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FileSystemError
from repro.fs.file import SimFile
from repro.payload import Sized


def test_empty_file():
    f = SimFile("x")
    assert f.size == 0
    assert f.contents().size == 0


def test_write_and_read_back():
    f = SimFile("x")
    f.write(0, b"hello")
    assert bytes(f.read(0, 5)) == b"hello"
    assert f.size == 5


def test_write_at_offset_leaves_hole_of_zeros():
    f = SimFile("x")
    f.write(10, b"ab")
    assert f.size == 12
    assert bytes(f.read(0, 12)) == b"\0" * 10 + b"ab"


def test_overwrite():
    f = SimFile("x")
    f.write(0, b"aaaa")
    f.write(1, b"bb")
    assert bytes(f.read(0, 4)) == b"abba"


def test_read_past_eof_zero_filled():
    f = SimFile("x")
    f.write(0, b"xy")
    assert bytes(f.read(0, 5)) == b"xy\0\0\0"


def test_numpy_write():
    f = SimFile("x")
    data = np.arange(256, dtype=np.uint8)
    f.write(3, data)
    assert np.array_equal(f.read(3, 256), data)


def test_invalid_args():
    f = SimFile("x")
    with pytest.raises(FileSystemError):
        f.write(-1, b"a")
    with pytest.raises(FileSystemError):
        f.read(-1, 4)
    with pytest.raises(FileSystemError):
        f.read(0, -4)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 500), st.binary(min_size=0, max_size=100)),
        max_size=20,
    )
)
def test_matches_reference_model(writes):
    """SimFile behaves like a simple grow-able bytearray."""
    f = SimFile("x")
    ref = bytearray()
    for offset, data in writes:
        f.write(offset, data)
        if offset + len(data) > len(ref):
            ref.extend(b"\0" * (offset + len(data) - len(ref)))
        ref[offset : offset + len(data)] = data
    assert bytes(f.contents()) == bytes(ref)
    assert f.size == len(ref)


def test_reserve_sizes_the_store_once_and_shows_nothing():
    f = SimFile("x")
    f.note_stored_crc(0, 4, 7)
    f.reserve(1 << 20)
    store = f.stored(0, 1 << 20)
    assert f.size == 0 and f.contents().size == 0
    assert f.stored_crc(0, 4) == 7
    f.write(1000, b"ab")
    f.write((1 << 20) - 2, b"yz")
    assert np.shares_memory(store, f.stored(0, 1 << 20))  # never reallocated
    assert f.size == 1 << 20
    with pytest.raises(FileSystemError):
        f.reserve(-1)


def test_stored_is_a_read_only_view_with_read_semantics():
    f = SimFile("x")
    f.write(4, b"abcd")
    view = f.stored(2, 10)  # starts in a hole, runs past EOF
    assert bytes(view) == bytes(f.read(2, 10)) == b"\0\0abcd\0\0\0\0"
    assert f.size == 8
    with pytest.raises(ValueError):
        view[0] = 1
    f.write(2, b"Z")
    assert view[0] == ord("Z")  # a view, not a copy
    assert f.read(2, 1).flags.writeable  # read keeps its copy semantics


def test_write_wraps_any_buffer_without_bytes_round_trip():
    f = SimFile("x")
    f.write(0, bytearray(b"ab"))
    f.write(2, memoryview(b"cd"))
    f.write(4, np.array([0x0201], dtype="<u2"))
    assert bytes(f.contents()) == b"abcd\x01\x02"


def test_release_drops_bytes_and_metadata():
    f = SimFile("x")
    f.write(0, b"abcd")
    f.note_stored_crc(0, 4, 9)
    f.release()
    assert f.size == 0 and f.contents().size == 0
    assert f.stored_crc(0, 4) is None
    assert bytes(f.read(0, 4)) == b"\0\0\0\0"


_OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 500), st.binary(max_size=100)),
    st.tuples(st.just("reserve"), st.integers(0, 800), st.none()),
    st.tuples(st.just("sized"), st.integers(0, 500), st.integers(0, 300)),
    st.tuples(st.just("read"), st.integers(0, 700), st.integers(0, 200)),
)


@given(ops=st.lists(_OPS, max_size=30))
def test_reserve_write_read_note_size_match_reference_model(ops):
    """A bytearray plus a size: ``reserve`` moves neither, a size-only write
    moves only the size, holes read zero."""
    f = SimFile("x")
    ref = bytearray()  # bytes ever stored, zero-extended
    size = 0
    for op, a, b in ops:
        if op == "write":
            f.write(a, b)
            end = a + len(b)
            ref.extend(b"\0" * (end - len(ref)))
            ref[a:end] = b
            size = max(size, end)
        elif op == "reserve":
            f.reserve(a)
        elif op == "sized":
            f.write(a, Sized(b))  # size-only: moves the size, stores nothing
            size = max(size, a + b)
        else:
            want = bytes(ref[a : a + b]).ljust(b, b"\0")
            assert bytes(f.read(a, b)) == want
            assert bytes(f.stored(a, b)) == want
            dest = np.ones(b, dtype=np.uint8)
            f.read_into(a, dest)
            assert bytes(dest) == want
            f.read_into(a, Sized(b))  # a descriptor receives nothing
        assert f.size == size
    assert bytes(f.contents()) == bytes(ref[:size]).ljust(size, b"\0")


def _scan_invalidate(crcs: dict, offset: int, end: int) -> None:
    """The reference: test every recorded extent against the write."""
    for key in [k for k in crcs if k[0] < end and offset < k[0] + k[1]]:
        del crcs[key]


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 300), st.integers(0, 60)),
        max_size=40,
    )
)
def test_stored_crc_invalidation_matches_full_scan(ops):
    """Bisecting the offset-ordered extents drops exactly what scanning
    all of them drops — overlapping records, empty ones and empty writes
    included."""
    f = SimFile("x")
    ref: dict[tuple[int, int], int] = {}
    for i, (record, offset, nbytes) in enumerate(ops):
        if record:
            f.note_stored_crc(offset, nbytes, i)
            ref[(offset, nbytes)] = i
        else:
            f.write(offset, bytes(nbytes))
            _scan_invalidate(ref, offset, offset + nbytes)
        assert f._stored_crcs == ref
        assert f._crc_keys == sorted(ref)
    for (offset, nbytes), crc in ref.items():
        assert f.stored_crc(offset, nbytes) == crc

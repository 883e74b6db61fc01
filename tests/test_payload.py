"""The payload value: real bytes, or a size-only ``Sized`` descriptor."""

import numpy as np
import pytest

from repro.integrity.checksum import extent_checksum
from repro.payload import (
    Sized,
    as_payload,
    crc,
    empty,
    flip,
    gather,
    grow,
    place,
    snapshot,
    zeros,
)


def test_sized_has_a_length_and_slices_to_descriptors():
    d = Sized(10)
    assert len(d) == d.size == 10
    assert d.dtype == np.uint8
    assert len(d[2:7]) == 5 and isinstance(d[2:7], Sized)
    assert len(d[8:20]) == 2 and len(d[5:5]) == 0


@pytest.mark.parametrize(
    "x", [b"abc", bytearray(b"abc"), np.frombuffer(b"abc", np.uint8).reshape(1, 3)]
)
def test_as_payload_gives_flat_uint8(x):
    out = as_payload(x)
    assert out.dtype == np.uint8 and out.ndim == 1
    assert bytes(out) == b"abc"


def test_as_payload_keeps_a_descriptor():
    d = Sized(4)
    assert as_payload(d) is d


def test_allocation_follows_like():
    assert isinstance(zeros(8, like=Sized(1)), Sized)
    assert isinstance(empty(8, like=Sized(1), alloc=None), Sized)
    assert not zeros(8).any() and zeros(8).size == 8
    assert empty(3, alloc=lambda n: np.full(n, 7, np.uint8)).tolist() == [7, 7, 7]
    store = np.arange(4, dtype=np.uint8)
    assert grow(store, 2) is store
    assert grow(store, 100, like=Sized(1)) is store
    assert grow(store, 6).tolist() == [0, 1, 2, 3, 0, 0]


def test_gather_and_place_are_inverse():
    src = np.arange(10, dtype=np.uint8)
    spans = [(1, 2), (6, 3)]
    packed = gather(src, spans)
    assert packed.tolist() == [1, 2, 6, 7, 8]
    assert np.shares_memory(gather(src, [(2, 4)]), src)  # one span: a view
    dst = np.zeros(10, dtype=np.uint8)
    place(dst, spans, packed)
    assert dst.tolist() == [0, 1, 2, 0, 0, 0, 6, 7, 8, 0]


def test_descriptors_move_no_bytes():
    assert len(gather(Sized(10), [(1, 2), (6, 3)])) == 5
    dst = np.zeros(4, dtype=np.uint8)
    place(dst, [(0, 4)], Sized(4))
    place(Sized(4), [(0, 4)], np.ones(4, np.uint8))
    flip(Sized(4), 2)
    assert not dst.any()
    d = Sized(4)
    assert snapshot(d) is d
    assert crc(d) is None


def test_snapshot_flip_crc_on_bytes():
    src = np.arange(8, dtype=np.uint8)
    copy = snapshot(src)
    assert not np.shares_memory(copy, src) and copy.tolist() == src.tolist()
    flip(copy, 3)
    assert copy[3] == src[3] ^ (1 << 3)
    flip(copy, 0, bit=7)
    assert copy[0] == 0x80
    assert crc(src) == extent_checksum(src)

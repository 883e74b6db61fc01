"""The layer's one verify policy: ``verdict`` decides, ``checksum`` counts."""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.integrity import IntegrityLayer, IntegritySpec, Verdict
from repro.sim.trace import Recorder

MAX = 3

OK, REDO, FAIL = Verdict.OK, Verdict.REDO, Verdict.FAIL


def _layer(mode: str) -> IntegrityLayer:
    world = SimpleNamespace(cluster=SimpleNamespace(recorder=Recorder()))
    return IntegrityLayer(world, IntegritySpec(mode=mode, max_repair_attempts=MAX))


# (mode, clean, attempt, can_redo) -> (verdict, counter deltas)
CASES = [
    # Clean: completes; after a redo it counts as repaired.
    ("detect", True, 0, True, OK, {}),
    ("repair", True, 0, True, OK, {}),
    ("repair", True, 0, False, OK, {}),
    ("repair", True, 1, True, OK, {"repaired": 1}),
    ("repair", True, MAX, True, OK, {"repaired": 1}),
    ("repair", True, MAX, False, OK, {"repaired": 1}),
    # Dirty in detect mode: always fails.
    ("detect", False, 0, True, FAIL, {"detected": 1}),
    ("detect", False, 0, False, FAIL, {"detected": 1}),
    # Dirty in repair mode: redone while the budget and the source last.
    ("repair", False, 0, True, REDO, {"detected": 1, "rewrite": 1}),
    ("repair", False, MAX - 1, True, REDO, {"detected": 1, "rewrite": 1}),
    ("repair", False, MAX, True, FAIL, {"detected": 1}),
    ("repair", False, 0, False, FAIL, {"detected": 1}),
    ("repair", False, MAX, False, FAIL, {"detected": 1}),
]


@pytest.mark.parametrize("mode, clean, attempt, can_redo, expected, deltas", CASES)
def test_verdict_table(mode, clean, attempt, can_redo, expected, deltas):
    layer = _layer(mode)
    before = layer.counters()
    assert layer.verdict(clean, attempt, "rewrite", can_redo=can_redo) is expected
    after = layer.counters()
    changed = {
        k.removeprefix("integrity."): v - before.get(k, 0)
        for k, v in after.items()
        if v != before.get(k, 0)
    }
    assert changed == deltas


@pytest.mark.parametrize("redo", ["retransmit", "rewrite", "refetch"])
def test_redo_counter_is_the_hops(redo):
    layer = _layer("repair")
    assert layer.verdict(False, 0, redo) is REDO
    assert layer.counters()[f"integrity.{redo}"] == 1


def test_checksum_is_one_counted_pass():
    layer = _layer("detect")
    buf = np.arange(100, dtype=np.uint8)
    assert layer.checksum(buf) == zlib.crc32(buf.tobytes())
    assert layer.checksum(buf[::2]) == zlib.crc32(buf[::2].tobytes())
    assert layer.checksum_computed == 2
    assert layer.checksum_reused == 0

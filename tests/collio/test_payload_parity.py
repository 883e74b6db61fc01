"""Size-only runs take exactly the simulated steps payload runs take.

``carry_data=False`` moves byte counts instead of bytes.  The simulated
timeline (``elapsed`` bit for bit), the library's counters and the
engine's event count must not notice the difference, for every write
algorithm x shuffle x layering x staging and every read algorithm x
scatter.
"""

from itertools import product

import pytest

from repro.collio import CollectiveConfig, RunSpec, run_collective_write
from repro.collio.read import READ_ALGORITHMS, SCATTER_PRIMITIVES, run_collective_read
from repro.staging import StagingSpec
from tests.collio.test_algorithms import (
    ALL_ALGORITHMS,
    ALL_SHUFFLES,
    interleaved_views,
    small_cluster,
    small_fs,
)

NPROCS = 8
CFG = CollectiveConfig(cb_buffer_size=16 * 1024)
#: Small interleaved tiles: multi-piece sends (pack/unpack) and a mix of
#: eager and rendezvous messages under the small cluster's threshold.
VIEWS = interleaved_views(NPROCS, 200, 30)
IMMEDIATE = StagingSpec(policy="immediate")


def _fingerprint(result):
    return (
        result.elapsed.hex(),
        result.trace_counters,
        result.metrics["counters"]["sim.events_processed"],
    )


@pytest.mark.parametrize(
    "algorithm,shuffle,two_layer,staging",
    list(product(ALL_ALGORITHMS, ALL_SHUFFLES, (False, True), (None, IMMEDIATE))),
    ids=lambda v: "immediate" if isinstance(v, StagingSpec) else str(v),
)
def test_write_size_only_matches_payload(algorithm, shuffle, two_layer, staging):
    spec = RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=NPROCS, views=VIEWS,
        algorithm=algorithm, shuffle=shuffle, config=CFG,
        two_layer=two_layer, staging=staging,
    )
    payload = run_collective_write(spec)
    size_only = run_collective_write(spec.replace(carry_data=False))
    assert _fingerprint(size_only) == _fingerprint(payload)


@pytest.mark.parametrize(
    "algorithm,scatter", list(product(sorted(READ_ALGORITHMS), sorted(SCATTER_PRIMITIVES)))
)
def test_read_size_only_matches_payload(algorithm, scatter):
    def read(carry_data):
        return run_collective_read(
            small_cluster(), small_fs(), NPROCS, VIEWS, algorithm=algorithm,
            scatter=scatter, config=CFG, carry_data=carry_data,
        )

    assert _fingerprint(read(False)) == _fingerprint(read(True))

"""Event-budget gate: how many heap entries a collective write costs.

Cohort dispatch makes P ranks that do the same thing at the same
simulated instant (call overhead on a fence/barrier, collective exit)
share one heap entry.  It degrades silently: a call site that schedules
something between the ranks' timeouts, or a collective that goes back to
one exit event per rank, changes no simulated number — only the host
cost, which tier-1 does not time.  These counts are deterministic, so
they are pinned instead; a change that moves them says why and updates
them (``wake-ups`` = events + coalesced timeouts is what the same run
cost before cohort dispatch, minus the 2(P-1) entries each collective's
exit saves).
"""

import pytest

from repro.collio.api import RunSpec, run_collective_write
from repro.fs.presets import beegfs_crill
from repro.hardware.presets import crill
from repro.workloads import make_workload

NPROCS = 64

#: shuffle -> (sim.events_processed, sim.timeouts_coalesced)
BUDGET = {
    "two_sided": (5373, 681),
    "one_sided_fence": (2870, 10068),
    "one_sided_lock": (3742, 6252),
}


@pytest.mark.parametrize("shuffle", sorted(BUDGET))
def test_size_only_write_comm2_event_budget(shuffle):
    workload = make_workload("ior", NPROCS, block_size=64 * 1024, segment_count=4)
    result = run_collective_write(RunSpec(
        cluster=crill(scale=64), fs=beegfs_crill(scale=64), nprocs=NPROCS,
        views=workload.views(), algorithm="write_comm2", shuffle=shuffle,
        carry_data=False,
    ))
    counters = result.metrics["counters"]
    assert result.num_cycles == 32
    assert (
        counters["sim.events_processed"], counters["sim.timeouts_coalesced"]
    ) == BUDGET[shuffle]

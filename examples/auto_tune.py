#!/usr/bin/env python
"""Auto-tuning: let the search pick the collective-write configuration.

Three stages, mirroring how the subsystem is meant to be used:

1. `autotune()` searches (algorithm, shuffle, cb_buffer_size,
   num_aggregators) for a scenario with successive halving and prints
   the ranked recommendation.
2. The same search re-runs against the persistent cache — zero
   simulations the second time (`tune.sim_run == 0`).
3. `run_collective_write(algorithm="auto")` applies the idea in-line:
   the write races the candidate algorithms on its *exact* views and
   runs the winner.

Run:  python examples/auto_tune.py
"""

import tempfile

from repro.api import (
    CollectiveConfig,
    RunSpec,
    autotune,
    beegfs_crill,
    crill,
    make_workload,
    run_collective_write,
)
from repro.bench.experiments import tuning_tables
from repro.units import fmt_time

#: Small scenario so the whole example runs in seconds.
NPROCS = 8
SCALE = 256


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        # -- 1: search ------------------------------------------------
        result = autotune(
            benchmark="ior", cluster="crill", nprocs=NPROCS, scale=SCALE,
            search="halving", reps=3, n_workers=4, cache_dir=cache_dir,
        )
        print(tuning_tables(result)[0].text())
        print(f"\nwinner: {result.best.candidate.label} "
              f"({fmt_time(result.best.point)})")

        # -- 2: the cache makes reruns free ---------------------------
        rerun = autotune(
            benchmark="ior", cluster="crill", nprocs=NPROCS, scale=SCALE,
            search="halving", reps=3, n_workers=4, cache_dir=cache_dir,
        )
        assert rerun.to_json() == result.to_json()
        hits, sims = rerun.cache_stats()
        print(f"\nrerun: {hits} cache hits, {sims} simulations")

        # -- 3: algorithm="auto" inside the write API -----------------
        workload = make_workload("ior", NPROCS, scale=SCALE)
        config = CollectiveConfig.for_scale(
            SCALE, extent_cost_factor=workload.extent_cost_factor
        )
        run = run_collective_write(
            RunSpec(
                cluster=crill(scale=SCALE), fs=beegfs_crill(scale=SCALE),
                nprocs=NPROCS, views=workload.views(), algorithm="auto",
                config=config, carry_data=False, auto_cache_dir=cache_dir,
            )
        )
        print(f"\nalgorithm='auto' chose {run.algorithm}: "
              f"{fmt_time(run.elapsed)} "
              f"({run.trace_counters.get('tune.auto_trials', 0)} trials raced)")


if __name__ == "__main__":
    main()

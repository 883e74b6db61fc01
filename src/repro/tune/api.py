"""Auto-tuning entry points.

* :func:`autotune` — the full search: explore a
  :class:`~repro.tune.space.TuningSpace` for a named scenario and return
  a ranked :class:`~repro.tune.search.TuningResult`.  This is what
  ``python -m repro.bench tune`` drives.
* :func:`select_algorithm` — the lightweight in-process selection behind
  ``run_collective_write(algorithm="auto")``: given concrete views (not
  a named benchmark), race the overlap algorithms once each on the
  caller's exact workload and pick the winner.  Selections are cached
  (keyed by a fingerprint of the views + specs + config + seed) so a
  steady-state caller pays for the race once per workload shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

from repro.collio.config import CollectiveConfig
from repro.collio.overlap import ALGORITHMS, make_algorithm
from repro.collio.api import RunSpec, build_plan, run_collective_write
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.fs.presets import FsSpec
from repro.hardware.cluster import Cluster, ClusterSpec
from repro.sim.engine import Engine
from repro.sim.trace import Recorder
from repro.tune.cache import MemoryCache, ResultCache, stable_key
from repro.tune.evaluate import Evaluator
from repro.tune.search import TuningResult, grid_search, successive_halving
from repro.tune.space import ScenarioSpec, TuningSpace, default_space

__all__ = ["autotune", "select_algorithm", "views_fingerprint"]


def autotune(
    benchmark: str = "ior",
    cluster: str = "crill",
    nprocs: int = 8,
    scale: int = DEFAULT_SCALE,
    fs: str | None = None,
    size: tuple = (),
    space: TuningSpace | None = None,
    search: str = "halving",
    reps: int = 3,
    screen_reps: int = 1,
    n_workers: int = 1,
    cache_dir: str | None = None,
    base_seed: int = DEFAULT_SEED,
    recorder: Recorder | None = None,
) -> TuningResult:
    """Search for the best collective-write configuration of a scenario.

    ``search`` is ``"halving"`` (screen-then-promote; the default) or
    ``"grid"`` (exhaustive).  ``cache_dir`` makes trial results persist
    across runs; without it an in-memory cache still deduplicates trials
    within the search.
    """
    scenario = ScenarioSpec(
        benchmark=benchmark, cluster=cluster, nprocs=nprocs, scale=scale, fs=fs, size=size
    )
    space = space if space is not None else default_space()
    cache = ResultCache(cache_dir) if cache_dir else MemoryCache()
    evaluator = Evaluator(n_workers=n_workers, cache=cache, recorder=recorder)
    if search == "grid":
        return grid_search(scenario, space, evaluator, reps=reps, base_seed=base_seed)
    if search == "halving":
        return successive_halving(
            scenario, space, evaluator, reps=reps, screen_reps=screen_reps,
            base_seed=base_seed,
        )
    raise ValueError(f"unknown search strategy {search!r}; known: ['grid', 'halving']")


def views_fingerprint(views: dict) -> str:
    """Stable fingerprint of a rank→FileView mapping (extent geometry)."""
    h = hashlib.sha256()
    for rank in sorted(views):
        v = views[rank]
        h.update(f"rank:{rank}:{v.num_extents}".encode())
        h.update(v.offsets.tobytes())
        h.update(v.lengths.tobytes())
    return h.hexdigest()


def _selection_key(
    cluster_spec: ClusterSpec,
    fs_spec: FsSpec,
    nprocs: int,
    views: dict,
    config: CollectiveConfig,
    shuffle: str,
    seed: int,
    candidates: tuple[str, ...],
) -> str:
    return stable_key(
        {
            "kind": "select_algorithm",
            "cluster": asdict(cluster_spec),
            "fs": asdict(fs_spec),
            "nprocs": nprocs,
            "views": views_fingerprint(views),
            "config": config.cache_key(),
            "shuffle": shuffle,
            "seed": seed,
            "candidates": list(candidates),
        }
    )


def select_algorithm(
    cluster_spec: ClusterSpec,
    fs_spec: FsSpec,
    nprocs: int,
    views: dict,
    config: CollectiveConfig | None = None,
    shuffle: str = "two_sided",
    seed: int = DEFAULT_SEED,
    candidates: tuple[str, ...] | None = None,
    cache_dir: str | None = None,
) -> tuple[str, dict]:
    """Pick the fastest overlap algorithm for these exact views.

    Races every candidate algorithm once (size-only mode, shared seed so
    all draw the same noise stream — the same footing ``bench.runner``
    gives them), reusing one plan per distinct cycle size.  Returns
    ``(algorithm, counters)`` where ``counters`` holds the ``tune.*``
    observability counts (``tune.auto_select``, ``tune.auto_trials``,
    ``tune.auto_cache_hit``) for the caller to merge into its trace.

    With ``cache_dir`` the decision is persisted: a second call with the
    same workload shape, specs, config and seed performs zero
    simulations.
    """
    config = config or CollectiveConfig()
    names = tuple(candidates) if candidates is not None else tuple(sorted(ALGORITHMS))
    if not names:
        raise ValueError("select_algorithm: empty candidate list")
    counters = {"tune.auto_select": 1}
    cache = ResultCache(cache_dir) if cache_dir else None
    key = _selection_key(cluster_spec, fs_spec, nprocs, views, config, shuffle, seed, names)
    if cache is not None:
        cached = cache.get(key)
        if cached is not None and cached.get("algorithm") in names:
            counters["tune.auto_cache_hit"] = 1
            return cached["algorithm"], counters

    placement = Cluster(Engine(), cluster_spec)
    plans: dict[int, object] = {}
    points: dict[str, float] = {}
    base = RunSpec(
        cluster=cluster_spec, fs=fs_spec, nprocs=nprocs, views=views,
        shuffle=shuffle, config=config, seed=seed, carry_data=False,
    )
    for name in names:
        cycle_bytes = make_algorithm(name).cycle_bytes(config.cb_buffer_size)
        plan = plans.get(cycle_bytes)
        if plan is None:
            plan = build_plan(
                placement, nprocs, views, config, cycle_bytes,
                stripe_size=fs_spec.stripe_size,
            )
            plans[cycle_bytes] = plan
        points[name] = run_collective_write(base.replace(algorithm=name, plan=plan)).elapsed
    best = min(names, key=lambda n: (points[n], n))
    if cache is not None:
        cache.put(key, {"algorithm": best, "points": points, "shuffle": shuffle})
    counters["tune.auto_trials"] = len(names)
    return best, counters

"""Every metric the benchmark reports: name, unit, direction, and what it should move.

``BENCHMARK.json`` at the repo root repeats the names, units and
directions (the test checks the two agree); the ``moves`` text — which
end-to-end metric on which workload a layer metric is expected to move —
lives only here and in the README, because the builder contract fixes the
JSON's keys.

Units name the clock: ``host_s`` is time the simulator takes on this
machine, ``sim_s`` is time the modelled cluster would take.  ``setup_s``
carries the plain unit ``s`` the contract prescribes; it is host time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "FAIL_RATIO", "PER_LAYER", "SELF_TIME", "DIRECT", "HOST",
           "COUNTS", "PACKAGES", "HOT_MODULES"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Largest worsening, as a share of the parent's median, still "unchanged"
    #: (end-to-end metrics only).
    bound: float | None = None
    #: Expected effect: which end-to-end metric on which workload.
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "host_s", "lower", 0.25, "median host wall of the timed passes"),
    Metric("setup_s", "s", "lower", 0.25,
           "worker start to end of warm-up pass: import, inputs, cold plan cache, first touch"),
    Metric("peak_rss_mb", "MB", "lower", 0.15, "worker ru_maxrss at exit (children included)"),
    Metric("sim_elapsed_s", "sim_s", "lower", 0.08,
           "sum of result.elapsed over one pass; bit-equal across passes"),
)

#: Reported by ``run`` and judged by ``compare`` like an end-to-end metric
#: (bound 0), but carried in the contract JSON as ``failed`` / ``attempted``
#: because it is 0 on every healthy run.
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower", 0.0, "failed runs / attempted runs")

#: Layers = packages under ``src/repro`` (plus what lies outside it).
PACKAGES = (
    "sim", "mpi", "collio", "fs", "staging", "integrity", "faults", "recovery",
    "obs", "hardware", "tune", "bench", "workloads", "analysis", "numpy", "pyruntime",
)
_CALLS = PACKAGES[:8]

HOT_MODULES = (
    "sim.engine", "sim.resources", "mpi.runtime", "mpi.comm", "mpi.window",
    "mpi.collops", "collio.context", "collio.shuffle", "collio.plan",
    "collio.intranode", "collio.read", "collio.api", "fs.pfs", "fs.target",
    "fs.file", "fs.aio", "staging.tier", "integrity.checksum", "integrity.layer",
    "faults.retry", "recovery.manager", "obs.span",
)

_SELF_MOVES = {
    "sim": "wall_s on ior_scale; ~0 change on campaign_sweep",
    "mpi": "wall_s on ior_scale (runtime/matching), tile256_payload (datatypes/window)",
    "collio": "wall_s on ior_scale (per-cycle control), tile256_payload (pack/unpack)",
    "fs": "wall_s on ior_scale (target queues), tile256_payload (byte writes)",
    "staging": "wall_s on stack_features; exactly 0 on ior_scale, read_back",
    "integrity": "wall_s on stack_features, chaos_repair; exactly 0 on ior_scale, read_back",
    "faults": "wall_s on chaos_repair; exactly 0 elsewhere",
    "recovery": "wall_s on chaos_repair; exactly 0 elsewhere",
    "obs": "wall_s and setup_s on campaign_sweep",
    "hardware": "wall_s on campaign_sweep (Cluster construction per run)",
    "tune": "wall_s and setup_s on campaign_sweep",
    "bench": "wall_s and setup_s on campaign_sweep",
    "workloads": "setup_s everywhere",
    "analysis": "wall_s on campaign_sweep",
    "numpy": "wall_s and peak_rss_mb on tile256_payload; ~0 on ior_scale",
    "pyruntime": "wall_s everywhere (builtins + stdlib + generator resumption)",
}
_HOT_MOVES = {
    "collio.intranode": "wall_s on stack_features; exactly 0 on ior_scale, read_back",
    "collio.read": "wall_s on read_back only",
    "collio.api": "wall_s and setup_s on campaign_sweep",
    "collio.plan": "wall_s and setup_s on campaign_sweep",
    "staging.tier": "wall_s on stack_features",
    "integrity.checksum": "wall_s on stack_features, chaos_repair",
    "integrity.layer": "wall_s on stack_features, chaos_repair",
    "faults.retry": "wall_s on chaos_repair",
    "recovery.manager": "wall_s on chaos_repair",
    "obs.span": "wall_s on campaign_sweep (its traced run)",
}


def _m(name: str, unit: str, better: str, moves: str) -> Metric:
    return Metric(name, unit, better, None, moves)


#: Host self-time per layer, from the traced (cProfile) pass.
SELF_TIME = (
    *(_m(f"{p}.self_s", "host_s", "lower", _SELF_MOVES[p]) for p in PACKAGES),
    _m("core.self_s", "host_s", "lower",
       "repro/*.py outside any package (specbase, api, config): wall_s on campaign_sweep"),
    *(_m(f"{p}.calls", "count", "lower", f"explains {p}.self_s: fewer calls vs cheaper calls")
      for p in _CALLS),
    *(_m(f"{m}.self_s", "host_s", "lower",
         _HOT_MOVES.get(m, _SELF_MOVES[m.split(".")[0]])) for m in HOT_MODULES),
)

#: Direct timed calls from the benchmark's own files (untraced).
DIRECT = (
    _m("workloads.views_s", "host_s", "lower", "setup_s everywhere; wall_s on campaign_sweep"),
    _m("collio.plan_build_cold_s", "host_s", "lower",
       "setup_s everywhere; wall_s on campaign_sweep"),
    _m("collio.plan_build_warm_s", "host_s", "lower", "wall_s on campaign_sweep"),
    _m("mpi.world_build_s", "host_s", "lower", "setup_s everywhere; wall_s on campaign_sweep"),
    _m("integrity.crc_mb_per_s", "MB/s", "higher",
       "wall_s on stack_features, chaos_repair (extent_checksum on 8 MiB)"),
    _m("integrity.combine_us", "host_us", "lower",
       "wall_s on stack_features, chaos_repair (crc32_combine)"),
    _m("obs.trace_overhead_ratio", "ratio", "lower",
       "gated tracing cost: crill half of ior_scale, trace=True wall over trace=False wall"),
    _m("obs.export_s", "host_s", "lower", "wall_s on campaign_sweep (chrome_trace_json)"),
    _m("bench.pool_spawn_s", "host_s", "lower",
       "wall_s on campaign_sweep (parallel_map of a no-op, jobs=2)"),
)

#: Host resources per timed pass (medians), and what is derived from host wall.
HOST = (
    _m("host.user_cpu_s", "host_s", "lower", "wall_s; the part an optimisation can move"),
    _m("host.sys_cpu_s", "host_s", "lower", "wall_s on payload workloads (page faults)"),
    _m("host.minor_faults", "count", "lower", "host.sys_cpu_s"),
    _m("host.gc_pause_s", "host_s", "lower", "wall_s on read_back, tile256_payload"),
    _m("host.gc_collections", "count", "lower", "host.gc_pause_s"),
    _m("host.cal_ratio", "ratio", "lower", "> 1.08 marks the workload result noisy"),
    _m("host.profile_overhead_ratio", "ratio", "lower",
       "traced pass wall over wall_s; scales every *.self_s"),
    _m("sim.events_per_s", "1/s", "higher", "events / wall_s; not end-to-end on purpose"),
    _m("sim.us_per_event", "host_us", "lower", "wall_s everywhere: cheaper events"),
    _m("bench.run_wall_p50_ms", "host_ms", "lower", "wall_s on campaign_sweep: per-run fixed cost"),
    _m("bench.run_wall_p90_ms", "host_ms", "lower", "wall_s on campaign_sweep"),
)

#: Work counts and simulated-time attribution read from public results:
#: they repeat exactly for a seed, and compare as counts, never as speed-ups.
COUNTS = (
    _m("sim.events", "count", "lower", "wall_s everywhere: fewer events"),
    _m("sim.max_heap_len", "count", "lower", "sim.engine.self_s"),
    _m("mpi.messages_inter_node", "count", "lower", "sim_elapsed_s on stack_features"),
    _m("mpi.messages_intra_node", "count", "lower", "sim_elapsed_s on stack_features"),
    _m("mpi.rendezvous_sends", "count", "lower", "mpi.runtime.self_s"),
    _m("mpi.progress_deferred", "count", "lower", "mpi.runtime.self_s"),
    _m("mpi.bufpool_hit_ratio", "ratio", "higher", "peak_rss_mb on payload workloads"),
    _m("mpi.bufpool_bytes_allocated", "B", "lower", "peak_rss_mb on payload workloads"),
    _m("collio.cycles", "count", "lower", "sim.events"),
    _m("collio.aggregators", "count", "lower", "sim_elapsed_s"),
    _m("collio.plan_cache_hit_ratio", "ratio", "higher", "wall_s on campaign_sweep"),
    _m("collio.sim_shuffle_s", "sim_s", "lower", "sim_elapsed_s"),
    _m("collio.sim_write_s", "sim_s", "lower", "sim_elapsed_s"),
    _m("collio.sim_gather_s", "sim_s", "lower", "sim_elapsed_s on stack_features"),
    _m("collio.comm_fraction", "ratio", "lower",
       "max-rank shuffle / total: the paper's 7% vs 23% quantity"),
    _m("collio.overlap_efficiency", "ratio", "higher",
       "sim_elapsed_s (traced run of campaign_sweep)"),
    _m("fs.bytes_written", "B", "lower", "sim_elapsed_s; fs.file.self_s"),
    _m("fs.writes_failed", "count", "lower", "sim_elapsed_s on chaos_repair"),
    _m("fs.writes_rejected", "count", "lower", "sim_elapsed_s on chaos_repair"),
    _m("fs.targets_down", "count", "lower", "sim_elapsed_s on chaos_repair"),
    _m("staging.absorbed_bytes", "B", "lower", "sim_elapsed_s on stack_features"),
    _m("staging.drained_bytes", "B", "lower", "sim_elapsed_s on stack_features"),
    _m("staging.stalls", "count", "lower", "sim_elapsed_s on stack_features"),
    _m("staging.occupancy_peak_ratio", "ratio", "lower", "staging.stalls"),
    _m("integrity.checksum_computed", "count", "lower", "integrity.checksum.self_s"),
    _m("integrity.checksum_reused", "count", "higher", "integrity.checksum.self_s"),
    _m("integrity.reuse_ratio", "ratio", "higher", "wall_s on stack_features"),
    _m("integrity.detected", "count", "higher", "fail_ratio on chaos_repair"),
    _m("integrity.repaired", "count", "higher", "fail_ratio on chaos_repair"),
    _m("faults.injected", "count", "lower", "sum of fault.*; fixed by the fault seed"),
    _m("faults.retry_attempts", "count", "lower", "sim_elapsed_s on chaos_repair"),
    _m("faults.retry_recovered_ratio", "ratio", "higher", "fail_ratio on chaos_repair"),
    _m("recovery.attempts", "count", "lower", "wall_s and sim_elapsed_s on chaos_repair"),
    _m("recovery.replayed_bytes", "B", "lower", "sim_elapsed_s on chaos_repair"),
    _m("recovery.journal_commits", "count", "lower", "recovery.self_s"),
    _m("tune.trials", "count", "lower", "wall_s on campaign_sweep"),
    _m("tune.cache_hit_ratio", "ratio", "higher", "wall_s on campaign_sweep"),
    _m("bench.runs", "count", "higher", "denominator of fail_ratio"),
    _m("analysis.async_win_share", "ratio", "higher", "paper fidelity (paper: 0.71)"),
    _m("analysis.two_sided_win_share", "ratio", "higher", "paper fidelity (paper: 0.75)"),
)

PER_LAYER = (*SELF_TIME, *DIRECT, *HOST, *COUNTS)

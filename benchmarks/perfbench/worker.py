"""One fresh process per workload: set-up, warm-up pass, timed passes.

Launched by :mod:`benchmarks.perfbench.harness` with the pinned malloc
environment, so peak RSS and wall are this workload's alone.  Prints one
JSON object as the last line of its standard output.

Measure mode (default): one uncounted settling pass, then timed passes with
``gc.collect()`` before each, GC left enabled during it, and a calibration
bracket before the first and after every one.  Profile mode (``--profile``): one pass under ``cProfile``
folded into per-layer self time, then the direct per-layer timings.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import re
import resource
import statistics
import sys
import time

from benchmarks.perfbench.metrics import HOT_MODULES, SELF_TIME

#: Iterations of one calibration loop (about 0.035 s on this machine).
CAL_ITERS = 500_000


def _cal_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 97
    return acc


def calibrate() -> float:
    """One calibration bracket: the fastest of three runs of a fixed pure-Python loop.

    No optimisation of the program can touch the loop, so a bracket that
    is slow against the run's best bracket means the host, not the
    program, slowed down.  Fastest-of-three (0.1 s in all) keeps a
    millisecond spike, which a 1-2 s pass averages away, from marking
    the pass.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _cal_loop(CAL_ITERS)
        best = min(best, time.perf_counter() - t0)
    return best


class GcWatch:
    """Cyclic-GC pause time and collection count, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0
        gc.callbacks.append(self._hook)

    def _hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1

    def reset(self) -> None:
        self.pause_s, self.collections = 0.0, 0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _summarise(outcomes, extra_counts: dict | None = None) -> dict:
    """One pass as plain data: runs attempted, failures, simulated time, counts."""
    from benchmarks.perfbench.workloads import derived_counts, merge_counts

    counts: dict[str, float] = dict(extra_counts or {})
    for o in outcomes:
        merge_counts(counts, o.counts)
    counts["bench.runs"] = sum(o.attempted for o in outcomes)
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "errors": [e for o in outcomes for e in o.errors],
        "sim_elapsed_s": sum(o.sim_elapsed for o in outcomes),
        "run_walls": [w for o in outcomes for w in o.run_walls],
        "counts": derived_counts(counts),
    }


def timed_pass(wl, gcwatch: GcWatch) -> dict:
    from repro.collio.plan import plan_cache_stats

    gc.collect()
    gcwatch.reset()
    plan0 = plan_cache_stats()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    outcomes = wl.run_pass()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    plan1 = plan_cache_stats()
    rec = _summarise(outcomes, {
        "_plan_hits": plan1["hits"] - plan0["hits"],
        "_plan_misses": plan1["misses"] - plan0["misses"],
    })
    rec.update({
        "wall_s": wall,
        "user_cpu_s": ru1.ru_utime - ru0.ru_utime,
        "sys_cpu_s": ru1.ru_stime - ru0.ru_stime,
        "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
        "gc_pause_s": gcwatch.pause_s,
        "gc_collections": gcwatch.collections,
    })
    return rec


# --------------------------------------------------------------------------
# Profile mode
# --------------------------------------------------------------------------

_REPRO_PATH = re.compile(r"[/\\]repro[/\\]([a-z_]+)(?:[/\\]([a-z_0-9]+))?")


def layer_of(filename: str, funcname: str) -> tuple[str, str | None]:
    """``(package bucket, hot-module bucket or None)`` of one profile row."""
    m = _REPRO_PATH.search(filename)
    if m and "site-packages" not in filename:
        first, second = m.group(1), m.group(2)
        if second is None:  # repro/<module>.py: specbase, api, config, units, errors
            return "core", None
        module = f"{first}.{second}"
        return first, module if module in HOT_MODULES else None
    if "numpy" in filename or "numpy" in funcname:
        return "numpy", None
    return "pyruntime", None


def fold_profile(prof: cProfile.Profile) -> dict[str, float]:
    """Fold ``tottime``/``ncalls`` by file path into the per-layer buckets."""
    out = {m.name: 0.0 for m in SELF_TIME}
    for (filename, _line, funcname), (_cc, ncalls, tottime, _ct, _callers) in (
        pstats.Stats(prof).stats.items()
    ):
        package, module = layer_of(filename, funcname)
        if f"{package}.self_s" not in out:  # a repro package this list does not name
            package = "core"
        out[f"{package}.self_s"] += tottime
        if f"{package}.calls" in out:
            out[f"{package}.calls"] += ncalls
        if module is not None:
            out[f"{module}.self_s"] += tottime
    return out


def _noop(x):
    return x


def _median_time(fn, reps: int = 3) -> float:
    """Median host seconds of ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def direct_timings(wl, seed: int, size: str, spans) -> dict[str, float]:
    """Timed calls into single layers from the benchmark's own files (untraced)."""
    from benchmarks.perfbench import workloads as W
    from repro.api import RunSpec, build_plan, run_collective_write
    from repro.bench.parallel import parallel_map
    from repro.collio.plan import reset_plan_cache
    from repro.hardware.cluster import Cluster
    from repro.integrity.checksum import crc32_combine, extent_checksum
    from repro.mpi import World
    from repro.obs.export import chrome_trace_json
    from repro.sim.engine import Engine

    out: dict[str, float] = {}
    benchmark, _platform, nprocs, scale, kwargs = wl.probe
    with spans.span("direct.views"):
        out["workloads.views_s"] = _median_time(
            lambda: W.make_workload(benchmark, nprocs, scale=scale, **kwargs).views())
    sc = W.scenario(*wl.probe)
    placement = Cluster(Engine(), sc["cluster"])

    def plan():
        return build_plan(placement, nprocs, sc["views"], sc["config"],
                          sc["config"].cb_buffer_size, stripe_size=sc["fs"].stripe_size)

    with spans.span("direct.plan_build"):
        reset_plan_cache()
        out["collio.plan_build_cold_s"] = _median_time(plan, reps=1)
        out["collio.plan_build_warm_s"] = _median_time(plan)
    with spans.span("direct.world_build"):
        out["mpi.world_build_s"] = _median_time(
            lambda: World(sc["cluster"], nprocs, fs_spec=sc["fs"], seed=seed))

    with spans.span("direct.crc"):
        payload = W.seeded_data(seed)(0, 8 << 20)
        out["integrity.crc_mb_per_s"] = 8.0 / _median_time(
            lambda: extent_checksum(payload), reps=5)
        a, b = extent_checksum(payload[: 4 << 20]), extent_checksum(payload[4 << 20:])
        calls = 200
        t0 = time.perf_counter()
        for _ in range(calls):
            crc32_combine(a, b, 4 << 20)
        out["integrity.combine_us"] = (time.perf_counter() - t0) / calls * 1e6

    # Gated tracing cost: the crill half of ior_scale, trace on over trace off.
    p = W.SIZES[size]["ior_scale"]["crill"]
    base = RunSpec(**W.scenario("ior", "crill", p["nprocs"], p["scale"],
                                 {"block_size": p["block_size"]}),
                   algorithm="write_comm2", carry_data=False, seed=seed)
    with spans.span("direct.trace_overhead"):
        run_collective_write(base)  # plan cache and allocator warm for both sides
        off = _median_time(lambda: run_collective_write(base), reps=1)
        t0 = time.perf_counter()
        traced = run_collective_write(base.replace(trace=True))
        on = time.perf_counter() - t0
        out["obs.trace_overhead_ratio"] = on / off
    with spans.span("direct.export"):
        out["obs.export_s"] = _median_time(lambda: chrome_trace_json(traced.spans), reps=1)
    with spans.span("direct.pool_spawn"):
        out["bench.pool_spawn_s"] = _median_time(lambda: parallel_map(_noop, [0, 1], jobs=2))
    return out


# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args(argv)

    gcwatch = GcWatch()
    from benchmarks.perfbench import workloads as W  # imports repro.api: part of set-up

    spans = W.Spans()
    spans.records.append({"name": "setup.import", "parent": None,
                          "t0": time.perf_counter() - (time.time() - args.t0),
                          "t1": time.perf_counter()})
    wl = W.make(args.workload, args.seed, args.size, spans)
    with spans.span("setup.warmup"):
        warm = _summarise(wl.run_pass())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": time.time() - args.t0,
        "warmup": warm,
    }

    if args.profile:
        gc.collect()
        prof = cProfile.Profile()
        with spans.span("traced_pass"):
            t0 = time.perf_counter()
            prof.enable()
            outcomes = wl.run_pass()
            prof.disable()
            report["traced_wall_s"] = time.perf_counter() - t0
        report["traced"] = _summarise(outcomes)
        report["self_time"] = fold_profile(prof)
        report["direct"] = direct_timings(wl, args.seed, args.size, spans)
    else:
        t_begin = time.perf_counter()
        if args.min_passes:
            # The first pass after the warm-up still re-faults freed memory
            # (17 k faults on stack_features, +0.2-0.9 s): it runs inside the
            # measured window and is checked, but its wall is not a sample.
            report["settle"] = timed_pass(wl, gcwatch)
        cal = [calibrate()]
        passes = []
        while len(passes) < args.min_passes or time.perf_counter() - t_begin < args.seconds:
            passes.append(timed_pass(wl, gcwatch))
            cal.append(calibrate())
        report["passes"] = passes
        report["cal_s"] = cal

    report["peak_rss_mb"] = peak_rss_mb()
    report["spans"] = spans.records
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

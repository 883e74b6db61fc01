"""Spawn the workers, handle noise, turn their reports into named metrics."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.perfbench.metrics import END_TO_END, FAIL_RATIO, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]

#: glibc arena retention pinned: without it payload-carrying passes spend
#: 0.25-6.4 s of kernel time on first-touch faults of freed-and-remapped
#: numpy arrays (see README, "Noise").  Hash seed pinned so str-keyed dict
#: layout repeats between workers.
WORKER_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "4294967296",
    "MALLOC_TRIM_THRESHOLD_": "17179869184",
    "MALLOC_TOP_PAD_": "268435456",
    "PYTHONHASHSEED": "0",
}

#: ``host.cal_ratio`` above this marks a workload result noisy.
NOISY_CAL_RATIO = 1.08
#: Set-ups per untraced run (the measuring worker's plus set-up-only workers).
SETUPS = 3
#: Fewest timed passes of a measuring worker, whatever ``--seconds`` says.
MIN_PASSES = {"full": 3, "smoke": 1}
#: A worker that has not answered by then is killed (the contract allows 180 s a run).
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, size: str, seconds: float, min_passes: int,
          profile: bool = False) -> dict:
    """Run one worker to completion and return its report."""
    if not (ROOT / "src" / "repro").is_dir():
        raise WorkerFailed(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = {**os.environ, **WORKER_ENV,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    cmd = [sys.executable, "-m", "benchmarks.perfbench.worker",
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--seconds", str(seconds), "--min-passes", str(min_passes),
           "--t0", repr(time.time())]
    if profile:
        cmd.append("--profile")
    # Own process group, so a timeout also stops the pool children of a worker.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:  # timeout or interrupt: leave no process behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerFailed(
                f"worker for {workload} timed out after {exc.timeout} s") from exc
        raise
    if proc.returncode != 0:
        raise WorkerFailed(f"worker for {workload} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.rstrip().rsplit("\n", 1)[-1])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _cal_ratio(report: dict) -> float:
    cal = report["cal_s"]
    return _median(cal) / min(cal)


def _check_passes(report: dict) -> tuple[int, list[str]]:
    """Runs attempted and the failures of a report (warm-up, settling pass, passes)."""
    passes = [report["warmup"], *report["passes"]]
    if "settle" in report:
        passes.insert(1, report["settle"])
    attempted = sum(p["attempted"] for p in passes)
    failures = [e for p in passes for e in p["errors"]]
    sims = [p["sim_elapsed_s"] for p in passes]
    for i, sim in enumerate(sims[1:], 1):
        if sim != sims[0]:
            failures.append(
                f"pass {i}: sim_elapsed_s {sim!r} is not bit-equal to the warm-up's {sims[0]!r}")
    return attempted, failures


def measure(workload: str, seed: int, size: str, seconds: float, setups: int = SETUPS) -> dict:
    """The untraced measurement of one workload: end-to-end, host and count metrics."""
    min_passes = MIN_PASSES[size]
    attempts = [spawn(workload, seed, size, seconds, min_passes)]
    if _cal_ratio(attempts[0]) > NOISY_CAL_RATIO:
        attempts.append(spawn(workload, seed, size, seconds, min_passes))
    report = min(attempts, key=_cal_ratio)
    setup_samples = [report["setup_s"]] + [
        spawn(workload, seed, size, 0, 0)["setup_s"] for _ in range(setups - 1)]

    passes = report["passes"]
    walls = [p["wall_s"] for p in passes]
    wall = _median(walls)
    attempted, failures = _check_passes(report)
    counts = passes[-1]["counts"]
    events = counts.get("sim.events", 0)
    run_walls = sorted(w * 1e3 for p in passes for w in p["run_walls"])

    per_layer = dict(counts)
    per_layer.update({
        "host.user_cpu_s": _median([p["user_cpu_s"] for p in passes]),
        "host.sys_cpu_s": _median([p["sys_cpu_s"] for p in passes]),
        "host.minor_faults": _median([p["minor_faults"] for p in passes]),
        "host.gc_pause_s": _median([p["gc_pause_s"] for p in passes]),
        "host.gc_collections": _median([p["gc_collections"] for p in passes]),
        "host.cal_ratio": _cal_ratio(report),
        "sim.events_per_s": events / wall,
        "sim.us_per_event": wall * 1e6 / events if events else 0.0,
        "bench.run_wall_p50_ms": _median(run_walls),
        "bench.run_wall_p90_ms": run_walls[int(0.9 * len(run_walls))] if run_walls else 0.0,
    })
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "end_to_end": {
            "wall_s": wall,
            "setup_s": _median(setup_samples),
            "peak_rss_mb": report["peak_rss_mb"],
            "sim_elapsed_s": report["warmup"]["sim_elapsed_s"],
            "fail_ratio": len(failures) / attempted,
        },
        "samples": {"wall_s": walls, "setup_s": setup_samples,
                    "run_wall_ms_count": len(run_walls)},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "noisy": _cal_ratio(report) > NOISY_CAL_RATIO,
        "cal_ratio_attempts": [_cal_ratio(a) for a in attempts],
        "per_layer": per_layer,
    }


def trace(result: dict) -> None:
    """Add the traced run (one extra pass under cProfile, fresh worker) to ``result``."""
    report = spawn(result["workload"], result["seed"], result["size"], 0, 0, profile=True)
    attempted, failures = _check_passes(
        {"warmup": report["warmup"], "passes": [report["traced"]]})
    result["attempted"] += attempted
    result["failed"] += len(failures)
    result["failures"] += failures
    result["end_to_end"]["fail_ratio"] = result["failed"] / result["attempted"]
    traced_wall = report["traced_wall_s"]
    per_layer = result["per_layer"]
    per_layer.update(report["self_time"])
    per_layer.update(report["direct"])
    per_layer["host.profile_overhead_ratio"] = traced_wall / result["end_to_end"]["wall_s"]
    for m in PER_LAYER:  # a count no run of this workload produced is 0
        per_layer.setdefault(m.name, 0.0)
    result["traced"] = {
        "wall_s": traced_wall,
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        #: Each layer's self time as a share of the traced pass wall (the base).
        "self_share": {k: v / traced_wall for k, v in report["self_time"].items()
                       if k.endswith(".self_s")},
        "spans": report["spans"],
    }


def contract_line(result: dict, traced: bool) -> str:
    """The last stdout line the driver reads: exactly four keys."""
    if traced:
        metrics = {m.name: {"value": float(result["per_layer"][m.name]), "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
                   for m in END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def render(result: dict) -> str:
    """Every metric by name with its unit, for people."""
    lines = [f"== {result['workload']} (seed {result['seed']}, size {result['size']}"
             f"{', NOISY' if result['noisy'] else ''}) =="]
    walls = result["samples"]["wall_s"]
    for m in (*END_TO_END, FAIL_RATIO):
        value = result["end_to_end"][m.name]
        note = ""
        if m.name == "wall_s":
            note = f"  median of {len(walls)} passes, min {min(walls):.4f} max {max(walls):.4f}"
        elif m.name == "setup_s":
            note = f"  median of {len(result['samples']['setup_s'])} set-ups"
        elif m.name == "fail_ratio":
            note = f"  {result['failed']} / {result['attempted']} runs"
        lines.append(f"  {m.name:<34}{value:>16.6g} {m.unit:<8} bound {m.bound:g}{note}")
    if len(result["cal_ratio_attempts"]) > 1:
        lines.append("  noisy first attempt re-run once; host.cal_ratio of the attempts: "
                     + ", ".join(f"{r:.3f}" for r in result["cal_ratio_attempts"]))
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    traced = result.get("traced")
    for m in PER_LAYER:
        if m.name not in result["per_layer"]:
            continue  # self-time and direct timings exist only after a traced run
        value = result["per_layer"][m.name]
        note = ""
        if traced and m.name in traced["self_share"]:
            note = f"  {traced['self_share'][m.name]:6.1%} of traced wall {traced['wall_s']:.3f} s"
        elif m.name == "bench.run_wall_p50_ms":
            note = f"  {result['samples']['run_wall_ms_count']} samples"
        lines.append(f"  {m.name:<34}{value:>16.6g} {m.unit:<8}{note}")
    return "\n".join(lines)

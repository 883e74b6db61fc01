"""The pinned scenario and fingerprint function of the golden suite.

A fingerprint captures what a same-seed simulated collective write must
reproduce exactly:

* ``file_sha256`` — hash of the written file's bytes read back from the
  simulated PFS (the run verifies against the views first, so the hash
  is also the hash of the independently-checked expectation);
* ``num_cycles`` — the plan's cycle count;
* ``spans`` — closed-span count per category (algo/io/comm/staging
  ...), a cheap structural summary of the run's event timeline.

Timing values are deliberately NOT part of the fingerprint: cost-model
tuning may move them, while data placement, plan shape and span
structure must not drift silently.  Regenerate with::

    PYTHONPATH=src python tests/golden/refresh.py

Timing has its own fixed point, ``timing.json`` (:func:`timing`): the
simulated elapsed time as a float hex string and the sha256 of the
Chrome trace, for every golden case plus one crash-recovery and one
size-only run.  It pins the rule that a change to the *simulator's*
speed (engine dispatch, caching, batching) leaves every simulated
number bit-identical.  A PR that changes the *cost model* moves these
on purpose and refreshes the file in the same commit::

    PYTHONPATH=src python tests/golden/refresh.py --timing

The same file pins collective *reads* of the scenario under its
``read/...`` keys (:func:`read_timing`): elapsed, cycle count and the
max-over-ranks ``read`` / ``scatter`` / ``total`` phase times.

Its ``telemetry/...`` keys pin what the run recorder reports
(:func:`telemetry`): one sha256 over ``result.metrics``,
``result.trace_counters``, ``result.integrity`` and the spans as CSV,
for every timed write and read, two traced fault runs
(:func:`telemetry_specs`) and the tuner's cold/warm counters
(:func:`tuner_counters`).

Its ``untraced/...`` keys pin the same writes with the recorder off
(:func:`untraced_specs`): elapsed plus the engine's event counts, since
the write path branches on whether spans are recorded.

Cases are ``(algorithm, shuffle, two_layer, staging_policy)`` tuples;
``staging_policy`` is ``None`` (direct writes — the original 30 cases,
whose keys and fingerprints are unchanged) or a drain-policy name that
routes the aggregators' writes through the burst-buffer tier.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace

from repro.collio.api import RunSpec, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.collio.overlap import ALGORITHMS
from repro.collio.read import READ_ALGORITHMS, SCATTER_PRIMITIVES, run_collective_read
from repro.collio.shuffle import SHUFFLE_PRIMITIVES
from repro.faults import FaultSpec, RetryPolicy, fault_preset
from repro.fs.presets import beegfs_crill
from repro.hardware.presets import crill
from repro.integrity import IntegritySpec
from repro.obs import chrome_trace_json, spans_csv
from repro.staging import DRAIN_POLICIES, StagingSpec
from repro.tune import autotune
from repro.units import MS
from repro.workloads import make_workload

#: 8 ranks on 2 nodes; segmented IOR interleaves every rank's blocks
#: across both aggregators' file domains (cross-node shuffle traffic).
NPROCS = 8
CORES_PER_NODE = 4
WORKLOAD_KWARGS = {"block_size": 4096, "segment_count": 8}

#: Key prefix of the telemetry fixed points in ``timing.json``.
TELEMETRY = "telemetry/"
#: Key prefix of the untraced clock fixed points in ``timing.json``.
UNTRACED = "untraced/"


def golden_cases() -> list[tuple[str, str, bool, str | None]]:
    """Every (algorithm, shuffle, two_layer) combination without staging,
    plus every (algorithm, drain policy) combination with it."""
    direct = [
        (algorithm, shuffle, two_layer, None)
        for algorithm in sorted(ALGORITHMS)
        for shuffle in sorted(SHUFFLE_PRIMITIVES)
        for two_layer in (False, True)
    ]
    staged = [
        (algorithm, "two_sided", False, policy)
        for algorithm in sorted(ALGORITHMS)
        for policy in DRAIN_POLICIES
    ]
    return direct + staged


def case_key(
    algorithm: str, shuffle: str, two_layer: bool, staging: str | None = None
) -> str:
    key = f"{algorithm}/{shuffle}" + ("/two_layer" if two_layer else "")
    return key + (f"/staging-{staging}" if staging else "")


def golden_spec(
    algorithm: str, shuffle: str, two_layer: bool, staging: str | None = None
) -> RunSpec:
    workload = make_workload("ior", NPROCS, **WORKLOAD_KWARGS)
    return RunSpec(
        cluster=replace(crill(), cores_per_node=CORES_PER_NODE),
        fs=beegfs_crill(),
        nprocs=NPROCS,
        views=workload.views(),
        algorithm=algorithm,
        shuffle=shuffle,
        two_layer=two_layer,
        staging=None if staging is None else StagingSpec.for_scale(policy=staging),
        verify=True,
        trace=True,
    )


def fingerprint(
    algorithm: str, shuffle: str, two_layer: bool, staging: str | None = None
) -> dict:
    """Run the pinned scenario once and fingerprint the outcome.

    ``spec_sha256`` is the hash of the run spec's canonical serialized
    form (:meth:`~repro.specbase.SpecBase.spec_sha256`): any drift in
    the pinned scenario's description — a changed default, a new spec
    field, a renamed preset — shows up as a fingerprint diff even when
    the simulated output happens to survive it.
    """
    spec = golden_spec(algorithm, shuffle, two_layer, staging)
    result = run_collective_write(spec)
    assert result.verified is True
    spans: dict[str, int] = {}
    for span in result.spans:
        spans[span.category] = spans.get(span.category, 0) + 1
    return {
        "file_sha256": result.file_sha256,
        "num_cycles": result.num_cycles,
        "spans": dict(sorted(spans.items())),
        "spec_sha256": spec.spec_sha256(),
    }


def timing_specs() -> dict[str, RunSpec]:
    """The specs ``timing.json`` pins: the golden cases, one run that
    crashes and recovers (three attempts at this seed) and one size-only
    run (no payload bytes, so no verify)."""
    specs = {case_key(*case): golden_spec(*case) for case in golden_cases()}
    specs["recovery/write_comm2/two_sided"] = golden_spec(
        "write_comm2", "two_sided", False
    ).replace(
        seed=7,
        faults=FaultSpec(rank_crash_rate=0.9, ost_outage_rate=0.5, crash_window=2 * MS),
    )
    specs["size_only/write_comm2/one_sided_fence"] = golden_spec(
        "write_comm2", "one_sided_fence", False
    ).replace(carry_data=False, verify=False)
    return specs


def timing(result) -> dict:
    """A finished write's simulated clock and timeline, bit for bit."""
    trace = chrome_trace_json(result.spans)
    return {
        "elapsed_hex": result.elapsed.hex(),
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
    }


def _digest(obj) -> dict:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return {"telemetry_sha256": hashlib.sha256(blob.encode()).hexdigest()}


def telemetry(result) -> dict:
    """What a finished run's recorder reported, as one sha256."""
    return _digest([
        result.metrics, result.trace_counters, result.integrity, spans_csv(result.spans),
    ])


def telemetry_specs() -> dict[str, RunSpec]:
    """Traced runs only the telemetry fixed point pins: a degraded-cluster
    run that crashes twice and recovers (three attempts at this seed), the
    same faults plus bit-rot under integrity repair (two attempts, both
    repairing), a bit-rot run through every write-path layer (two-layer
    gather, watermark staging, integrity repair with scrub and read-back,
    retry) and a one-sided bit-rot run whose put landings retransmit;
    small cycles make the faults fire."""
    degraded, bitrot = fault_preset("degraded_cluster"), fault_preset("bitrot_cluster")
    return {
        TELEMETRY + "degraded_cluster/write_overlap": golden_spec(
            "write_overlap", "two_sided", False
        ).replace(seed=28, faults=degraded, retry=RetryPolicy()),
        TELEMETRY + "degraded_cluster/bitrot_repair": golden_spec(
            "write_comm2", "two_sided", False
        ).replace(
            seed=4, retry=RetryPolicy(),
            faults=degraded.with_(
                message_corrupt_rate=bitrot.message_corrupt_rate,
                storage_corrupt_rate=bitrot.storage_corrupt_rate,
                torn_write_rate=bitrot.torn_write_rate,
            ),
            config=CollectiveConfig(
                cb_buffer_size=16 * 1024, integrity=IntegritySpec(mode="repair")
            ),
        ),
        TELEMETRY + "bitrot_cluster/laden": golden_spec(
            "write_comm2", "two_sided", True
        ).replace(
            seed=1, faults=bitrot, retry=RetryPolicy(),
            staging=StagingSpec(policy="watermark"),
            config=CollectiveConfig(
                cb_buffer_size=16 * 1024,
                integrity=IntegritySpec(mode="repair", scrub=True, readback=True),
            ),
        ),
        TELEMETRY + "bitrot_cluster/one_sided_fence": golden_spec(
            "write_overlap", "one_sided_fence", False
        ).replace(
            seed=1, faults=bitrot,
            config=CollectiveConfig(
                cb_buffer_size=16 * 1024, integrity=IntegritySpec(mode="repair")
            ),
        ),
    }


def untraced_specs() -> dict[str, RunSpec]:
    """Every timed and telemetry write again with ``trace=False``: the
    write path must keep the clock of a run whose recorder is off."""
    specs = dict(timing_specs())
    specs.update(
        (key.removeprefix(TELEMETRY), spec) for key, spec in telemetry_specs().items()
    )
    return {UNTRACED + key: spec.replace(trace=False) for key, spec in specs.items()}


def untraced(result) -> dict:
    """An untraced write's simulated clock and event count, bit for bit."""
    counters = result.metrics["counters"]
    return {
        "elapsed_hex": result.elapsed.hex(),
        "events_processed": counters["sim.events_processed"],
        "timeouts_coalesced": counters["sim.timeouts_coalesced"],
    }


def tuner_counters() -> dict[str, dict]:
    """The benchmark campaign's tuner call, cold then warm on one cache:
    each run's ``TuningResult.counters`` under its telemetry key."""
    with tempfile.TemporaryDirectory() as cache_dir:
        cold, warm = (
            autotune("ior", "crill", nprocs=4, scale=1024, search="halving", reps=2,
                     cache_dir=cache_dir, base_seed=2020)
            for _ in range(2)
        )
    return {
        TELEMETRY + "tune/cold": _digest(cold.counters),
        TELEMETRY + "tune/warm": _digest(warm.counters),
    }


def read_timing_cases() -> dict[str, dict]:
    """``run_collective_read`` keywords per ``read/...`` key: every
    (algorithm, scatter) pair verified byte-exact, plus one size-only run."""
    cases = {
        f"read/{algorithm}/{scatter}": dict(algorithm=algorithm, scatter=scatter, verify=True)
        for algorithm in sorted(READ_ALGORITHMS)
        for scatter in sorted(SCATTER_PRIMITIVES)
    }
    cases["read/size_only/scatter_overlap/one_sided_get"] = dict(
        algorithm="scatter_overlap", scatter="one_sided_get", carry_data=False
    )
    return cases


def read_back(**kwargs):
    """Read the pinned scenario back once, in several cycles (the 256 KiB
    file through a 32 KiB collective buffer)."""
    spec = golden_spec("no_overlap", "two_sided", False)
    return run_collective_read(
        spec.cluster, spec.fs, NPROCS, spec.views,
        config=CollectiveConfig(cb_buffer_size=32 * 1024), **kwargs,
    )


def read_timing(result) -> dict:
    """A finished read's clocks, bit for bit."""
    record = {"elapsed_hex": result.elapsed.hex(), "num_cycles": result.num_cycles}
    for phase in ("read", "scatter", "total"):
        record[f"{phase}_hex"] = max(
            stats.time_in(phase) for stats in result.per_rank_stats
        ).hex()
    return record

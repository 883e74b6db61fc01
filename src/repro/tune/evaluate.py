"""Trial execution: serial or fanned out over a ``multiprocessing`` pool.

A *trial* is one simulated collective write of a scenario under one
candidate configuration with one seed.  Trials are pure functions of
their :class:`TrialSpec`, which makes three things possible:

* **Parallelism with bit-for-bit agreement.**  Workers receive only the
  hashable descriptor and rebuild specs/views/config locally, and every
  trial's seed is derived from a stable content hash of the descriptor
  (:func:`trial_seed`) — never from worker identity or scheduling — so
  ``n_workers=4`` and ``n_workers=1`` produce identical numbers.
* **Caching.**  The same descriptor hash keys the persistent
  :class:`~repro.tune.cache.ResultCache`; a cached trial is never
  re-simulated, within a run or across runs.
* **Observability.**  The evaluator bumps ``tune.trial``,
  ``tune.cache_hit`` and ``tune.sim_run`` counters on its
  :class:`~repro.sim.trace.Recorder` so searches can assert, e.g., that a
  warm rerun performed zero simulations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bench.parallel import content_seed, parallel_map
from repro.collio.api import RunSpec, run_collective_write
from repro.config import DEFAULT_SEED
from repro.sim.trace import Recorder
from repro.tune.cache import MemoryCache, stable_key
from repro.tune.space import Candidate, ScenarioSpec

__all__ = ["TrialSpec", "TrialResult", "trial_seed", "trial_key", "run_trial", "Evaluator"]


def trial_seed(scenario: ScenarioSpec, candidate: Candidate, rep: int,
               base_seed: int = DEFAULT_SEED) -> int:
    """Deterministic per-trial seed from a stable hash of the descriptor.

    Independent of evaluation order, worker count and Python's hash
    randomization; distinct reps draw distinct (but reproducible) noise
    streams, mirroring the paper's repeated measurements.  (This is
    :func:`repro.bench.parallel.content_seed` of the descriptor — the
    same derivation every parallel campaign uses.)
    """
    return content_seed(
        {
            "base_seed": base_seed,
            "scenario": scenario.key(),
            "candidate": candidate.key(),
            "rep": rep,
        }
    )


@dataclass(frozen=True)
class TrialSpec:
    """Hashable, picklable description of one simulation trial."""

    scenario: ScenarioSpec
    candidate: Candidate
    rep: int
    seed: int

    @classmethod
    def build(cls, scenario: ScenarioSpec, candidate: Candidate, rep: int,
              base_seed: int = DEFAULT_SEED) -> "TrialSpec":
        return cls(scenario, candidate, rep, trial_seed(scenario, candidate, rep, base_seed))

    def key(self) -> dict:
        return {
            "scenario": self.scenario.key(),
            "candidate": self.candidate.key(),
            "seed": self.seed,
        }


def trial_key(trial: TrialSpec) -> str:
    """The trial's stable cache key (scenario + candidate + seed + version).

    The scenario participates through its canonical :class:`SpecBase`
    serialization (with the file-system default resolved, so ``fs=None``
    and its explicit spelling key identically); note :func:`trial_seed`
    deliberately keeps the older plain-data form — changing it would
    reshuffle every trial's noise stream.
    """
    scenario = trial.scenario.to_dict()
    scenario["fs"] = trial.scenario.fs_name
    return stable_key(
        {
            "scenario": scenario,
            "candidate": trial.candidate.key(),
            "seed": trial.seed,
        }
    )


@dataclass(frozen=True)
class TrialResult:
    """Simulated outcome of one trial (plain scalars; JSON-safe)."""

    elapsed: float
    write_bandwidth: float
    num_aggregators: int
    num_cycles: int
    total_bytes: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrialResult":
        return cls(
            elapsed=float(d["elapsed"]),
            write_bandwidth=float(d["write_bandwidth"]),
            num_aggregators=int(d["num_aggregators"]),
            num_cycles=int(d["num_cycles"]),
            total_bytes=int(d["total_bytes"]),
        )


def run_trial(trial: TrialSpec) -> TrialResult:
    """Simulate one trial (module-level so worker processes can import it).

    Runs in size-only mode (``carry_data=False``): tuning compares
    simulated *timing*, which does not depend on payload bytes.
    """
    scenario = trial.scenario
    workload = scenario.workload()
    run = run_collective_write(
        RunSpec(
            cluster=scenario.cluster_spec(),
            fs=scenario.fs_spec(),
            nprocs=scenario.nprocs,
            views=workload.views(),
            algorithm=trial.candidate.algorithm,
            shuffle=trial.candidate.shuffle,
            config=trial.candidate.config_for(scenario),
            seed=trial.seed,
            carry_data=False,
        )
    )
    return TrialResult(
        elapsed=run.elapsed,
        write_bandwidth=run.write_bandwidth,
        num_aggregators=run.num_aggregators,
        num_cycles=run.num_cycles,
        total_bytes=run.total_bytes,
    )


class Evaluator:
    """Runs batches of trials through the cache and a worker pool.

    ``n_workers=1`` evaluates inline (no processes spawned), which is
    also the fallback the tests compare parallel runs against.
    """

    def __init__(self, n_workers: int = 1, cache=None, recorder: Recorder | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.cache = cache if cache is not None else MemoryCache()
        self.recorder = recorder if recorder is not None else Recorder()

    def evaluate(self, trials: list[TrialSpec]) -> list[TrialResult]:
        """Results for ``trials``, in input order.

        Cache hits are served without simulation; misses are simulated
        (in parallel when ``n_workers > 1``) and written back.
        """
        results: list[TrialResult | None] = [None] * len(trials)
        misses: list[tuple[int, TrialSpec, str]] = []
        for i, trial in enumerate(trials):
            self.recorder.inc("tune.trial")
            key = trial_key(trial)
            cached = self.cache.get(key)
            if cached is not None:
                self.recorder.inc("tune.cache_hit")
                results[i] = TrialResult.from_dict(cached)
            else:
                misses.append((i, trial, key))

        if misses:
            specs = [t for _, t, _ in misses]
            outcomes = parallel_map(run_trial, specs, jobs=self.n_workers)
            for (i, _, key), outcome in zip(misses, outcomes):
                self.recorder.inc("tune.sim_run")
                self.cache.put(key, outcome.to_dict())
                results[i] = outcome
        return results  # type: ignore[return-value]

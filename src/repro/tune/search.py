"""Search strategies over a tuning space and their ranked results.

Two strategies, sharing the evaluator (and therefore the cache):

:func:`grid_search`
    Exhaustive: every candidate at the full repetition count.  One flat
    trial batch, so the worker pool sees maximal parallelism.

:func:`successive_halving`
    Pruned: screen **all** candidates at ``screen_reps`` repetitions,
    rank by the paper's min-of-series point estimate, and promote only
    the survivors to the full repetition count.  The promotion rule
    keeps (a) the top ``1/eta`` fraction and (b) any borderline
    candidate whose screening point lies within one sample standard
    deviation (:attr:`repro.analysis.stats.Series.std`) of the cutoff —
    a noisy single point is not enough evidence to discard a
    contender.  Because per-trial seeds depend only on (scenario,
    candidate, rep), a promoted candidate's full series is identical to
    the one grid search would have measured, and the screening trials
    are reused from the cache rather than re-run.

Pruning decisions are observable through the evaluator recorder's
``tune.screened`` / ``tune.promoted`` / ``tune.pruned`` counters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro._version import __version__
from repro.analysis.stats import Series
from repro.collio.config import CollectiveConfig
from repro.tune.evaluate import Evaluator, TrialResult, TrialSpec
from repro.tune.space import Candidate, ScenarioSpec, TuningSpace

__all__ = ["CandidateResult", "TuningResult", "grid_search", "successive_halving"]


@dataclass
class CandidateResult:
    """All measurements of one candidate within a search."""

    candidate: Candidate
    #: Simulated elapsed seconds, in repetition order.
    times: list[float]
    #: Simulated write bandwidth of the fastest repetition, bytes/s.
    write_bandwidth: float
    num_aggregators: int
    num_cycles: int
    #: "full" for candidates measured at the full repetition count,
    #: "screened" for candidates discarded after the screening round.
    stage: str = "full"

    def series(self) -> Series:
        return Series(key=("tune",), algorithm=self.candidate.label, times=list(self.times))

    @property
    def point(self) -> float:
        """The paper's point estimate: min over repetitions."""
        return min(self.times)

    @property
    def reps(self) -> int:
        return len(self.times)

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.key(),
            "times": self.times,
            "point": self.point,
            "write_bandwidth": self.write_bandwidth,
            "num_aggregators": self.num_aggregators,
            "num_cycles": self.num_cycles,
            "reps": self.reps,
            "stage": self.stage,
        }


@dataclass
class TuningResult:
    """Ranked outcome of one search over one scenario."""

    scenario: ScenarioSpec
    search: str
    reps: int
    base_seed: int
    #: Candidates measured at full reps, best (lowest point) first.
    ranked: list[CandidateResult] = field(default_factory=list)
    #: Candidates discarded after screening (successive halving only).
    pruned: list[CandidateResult] = field(default_factory=list)
    screen_reps: int | None = None
    #: Snapshot of the evaluator's ``tune.*`` counters.  Excluded from
    #: :meth:`to_json` — cache hit/miss history is run-local state, and
    #: the canonical JSON must be identical across worker counts and
    #: warm/cold caches.
    counters: dict = field(default_factory=dict)

    @property
    def best(self) -> CandidateResult:
        if not self.ranked:
            raise ValueError("empty tuning result: no candidates were measured")
        return self.ranked[0]

    @property
    def total_candidates(self) -> int:
        return len(self.ranked) + len(self.pruned)

    def recommended_config(self) -> CollectiveConfig:
        """The winning candidate's scenario-scaled collective config."""
        return self.best.candidate.config_for(self.scenario)

    def cache_stats(self) -> tuple[int, int]:
        """``(cache_hits, simulations_run)`` observed during the search."""
        return (self.counters.get("tune.cache_hit", 0), self.counters.get("tune.sim_run", 0))

    def to_dict(self) -> dict:
        """Canonical plain-data form (deterministic; no run-local state)."""
        return {
            "version": __version__,
            "scenario": self.scenario.key(),
            "search": self.search,
            "reps": self.reps,
            "screen_reps": self.screen_reps,
            "base_seed": self.base_seed,
            "ranked": [r.to_dict() for r in self.ranked],
            "pruned": [r.to_dict() for r in self.pruned],
        }

    def to_json(self) -> str:
        """Byte-stable JSON: identical for identical (scenario, space,
        reps, seed) regardless of worker count or cache temperature."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _measure(
    scenario: ScenarioSpec,
    candidates: list[Candidate],
    rep_range: range,
    evaluator: Evaluator,
    base_seed: int,
) -> dict[Candidate, list[TrialResult]]:
    """Evaluate ``rep_range`` repetitions of every candidate, one batch."""
    trials = [
        TrialSpec.build(scenario, cand, rep, base_seed)
        for cand in candidates
        for rep in rep_range
    ]
    outcomes = evaluator.evaluate(trials)
    per_candidate: dict[Candidate, list[TrialResult]] = {c: [] for c in candidates}
    for trial, outcome in zip(trials, outcomes):
        per_candidate[trial.candidate].append(outcome)
    return per_candidate


def _result(candidate: Candidate, outcomes: list[TrialResult], stage: str) -> CandidateResult:
    best = min(outcomes, key=lambda o: o.elapsed)
    return CandidateResult(
        candidate=candidate,
        times=[o.elapsed for o in outcomes],
        write_bandwidth=best.write_bandwidth,
        num_aggregators=best.num_aggregators,
        num_cycles=best.num_cycles,
        stage=stage,
    )


def _ranked(results: list[CandidateResult]) -> list[CandidateResult]:
    """Sort best-first with a deterministic candidate tie-break."""
    return sorted(results, key=lambda r: (r.point, r.candidate.sort_key()))


def grid_search(
    scenario: ScenarioSpec,
    space: TuningSpace,
    evaluator: Evaluator,
    reps: int = 3,
    base_seed: int = 2020,
) -> TuningResult:
    """Exhaustive search: every candidate at the full repetition count."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    candidates = space.candidates()
    measured = _measure(scenario, candidates, range(reps), evaluator, base_seed)
    ranked = _ranked([_result(c, measured[c], "full") for c in candidates])
    return TuningResult(
        scenario=scenario,
        search="grid",
        reps=reps,
        base_seed=base_seed,
        ranked=ranked,
        counters=dict(evaluator.recorder.counters),
    )


def successive_halving(
    scenario: ScenarioSpec,
    space: TuningSpace,
    evaluator: Evaluator,
    reps: int = 3,
    screen_reps: int = 1,
    eta: int = 3,
    base_seed: int = 2020,
) -> TuningResult:
    """Screen every candidate cheaply, promote survivors to full reps."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not (1 <= screen_reps <= reps):
        raise ValueError(f"screen_reps must be in [1, reps], got {screen_reps}")
    if eta < 2:
        raise ValueError(f"eta must be >= 2, got {eta}")
    candidates = space.candidates()
    recorder = evaluator.recorder

    # Round 1: screen everything at few reps.
    screened = _measure(scenario, candidates, range(screen_reps), evaluator, base_seed)
    screen_results = _ranked([_result(c, screened[c], "screened") for c in candidates])
    for _ in screen_results:
        recorder.inc("tune.screened")

    if screen_reps == reps:
        survivors = list(screen_results)
        dropped: list[CandidateResult] = []
    else:
        keep = max(1, math.ceil(len(screen_results) / eta))
        cutoff = screen_results[keep - 1].point
        survivors, dropped = [], []
        for i, res in enumerate(screen_results):
            # Keep the top 1/eta, plus borderline candidates whose point
            # is within one sample std of the cutoff (noise benefit of
            # the doubt; inert at screen_reps=1 where std == 0).
            if i < keep or res.point - res.series().std <= cutoff:
                survivors.append(res)
            else:
                dropped.append(res)

    for _ in survivors:
        recorder.inc("tune.promoted")
    for _ in dropped:
        recorder.inc("tune.pruned")

    # Round 2: complete the survivors' series.  Repetition indices extend
    # the screening range, so the trials already simulated (or cached)
    # are reused and a survivor's final series equals grid search's.
    promoted = [r.candidate for r in survivors]
    full = _measure(scenario, promoted, range(reps), evaluator, base_seed)
    ranked = _ranked([_result(c, full[c], "full") for c in promoted])
    return TuningResult(
        scenario=scenario,
        search="halving",
        reps=reps,
        screen_reps=screen_reps,
        base_seed=base_seed,
        ranked=ranked,
        pruned=dropped,
        counters=dict(recorder.counters),
    )

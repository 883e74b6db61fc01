"""Aggregator failover: restart the collective from the cycle journal.

The SPMD simulation cannot keep running a world whose rank generator
died, so recovery is modelled the way checkpoint/restart-style MPI
stacks (and the batch systems above them) actually behave: when the
survivors detect a permanent fault, the collective is **re-launched** —
crashed ranks respawn as plain senders, the aggregator set is
deterministically re-elected without them, stripes of dead targets are
remapped onto survivors, and only the cycles the journal has *not*
committed are replayed.  Durable state carries across attempts: the file
contents that reached storage, the cycle journal, and the sets of dead
ranks/targets.

Each failover charges the :class:`~repro.recovery.spec.RecoverySpec`'s
detection timeout and failover overhead to the global clock; the run's
one recorder puts every attempt's spans on that clock, so one Chrome
trace shows write → crash → failover gap → replay.

Determinism: every injection draw comes from a per-entity stream keyed
only by the world seed, the re-election is a pure function of the
crashed set, and replay views are a pure function of the journal — so
one ``(spec, seed)`` pair yields bit-identical recovery traces and file
bytes on every run.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.collio.api import RunPipeline
from repro.collio.view import FileView
from repro.errors import ConfigurationError, RankCrashError, RecoveryExhaustedError
from repro.recovery.journal import CycleJournal
from repro.recovery.report import RecoveryReport
from repro.recovery.spec import RecoverySpec
from repro.sim.trace import Span

__all__ = ["run_with_recovery", "subtract_intervals"]


def _uncovered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sub-ranges of ``[lo, hi)`` not covered by the merged ``intervals``."""
    out: list[tuple[int, int]] = []
    cur = lo
    for ilo, ihi in intervals:
        if ihi <= cur:
            continue
        if ilo >= hi:
            break
        if ilo > cur:
            out.append((cur, ilo))
        cur = max(cur, ihi)
        if cur >= hi:
            return out
    if cur < hi:
        out.append((cur, hi))
    return out


def subtract_intervals(view: FileView, intervals: list[tuple[int, int]]) -> FileView:
    """The replay view: ``view`` minus the journal-committed intervals.

    Remaining pieces keep their *original* local buffer offsets, so the
    rank replays straight out of its full payload buffer.
    """
    if not intervals or not view.num_extents:
        return view
    offs: list[int] = []
    lens: list[int] = []
    locs: list[int] = []
    for off, ln, loc in zip(view.offsets, view.lengths, view.local_offsets):
        for plo, phi in _uncovered(int(off), int(off + ln), intervals):
            offs.append(plo)
            lens.append(phi - plo)
            locs.append(int(loc) + (plo - int(off)))
    return FileView.from_pieces(
        np.array(offs, dtype=np.int64),
        np.array(lens, dtype=np.int64),
        np.array(locs, dtype=np.int64),
    )


def run_with_recovery(spec, algorithm: str, config, auto_counters: dict | None):
    """Run one collective write to completion under permanent faults.

    Called by :func:`repro.collio.api.run_collective_write` when the
    spec's :class:`~repro.faults.spec.FaultSpec` has crash-class faults;
    ``algorithm`` is already resolved (never ``"auto"``).  Returns a
    :class:`~repro.collio.api.CollectiveWriteResult` whose ``recovery``
    field carries the :class:`~repro.recovery.report.RecoveryReport`.

    Only the recovery *policy* lives here — attempt budget, re-election
    exclusions, failover charging, replay views; running an attempt and
    assembling the result are :class:`~repro.collio.api.RunPipeline`'s.

    Raises :class:`~repro.errors.RecoveryExhaustedError` if the attempt
    budget runs out or a failed attempt yields no new fault information
    (which would loop forever, as the schedule is deterministic).
    """
    rspec = spec.recovery if spec.recovery is not None else RecoverySpec()
    if not isinstance(rspec, RecoverySpec):
        raise ConfigurationError(
            f"RunSpec.recovery must be a RecoverySpec or None, got {type(rspec).__name__}"
        )
    run = RunPipeline(spec, algorithm, config, auto_counters)
    return run.run(partial(_recovery_loop, rspec=rspec))


def _recovery_loop(run: RunPipeline, rspec: RecoverySpec) -> RecoveryReport:
    """Drive ``run``'s attempts until one completes; returns the report."""
    spec = run.spec
    budget = rspec.attempt_budget(spec.nprocs, spec.fs.num_targets)
    failover = rspec.detection_timeout + rspec.failover_overhead
    journal = CycleJournal()
    crashed: set[int] = set()
    down: set[int] = set()
    files = None  # durable file store, carried world to world
    base = 0.0  # global-clock offset of the current attempt
    report = RecoveryReport(
        attempts=0, crashed_ranks=[], down_targets=[], failover_time=0.0,
        replayed_bytes=0, torn_cycles=0, journal_commits=0, completed=False,
    )
    last_failure: BaseException | None = None

    for attempt in range(1, budget + 1):
        if len(down) >= spec.fs.num_targets:
            raise RecoveryExhaustedError(
                "all storage targets are down; no survivors to remap onto"
            ) from last_failure
        durable = files.get(spec.path) if files is not None else None
        intervals, torn = journal.committed_intervals(durable)
        report.torn_cycles += torn
        views = {
            r: subtract_intervals(spec.views[r], intervals)
            for r in range(spec.nprocs)
        }
        remaining = sum(v.total_bytes for v in views.values())
        if attempt > 1:
            report.replayed_bytes += remaining
        failure = run.attempt(
            base, views=views, journal=journal, crashed=frozenset(crashed),
            down=frozenset(down), files=files, number=attempt,
        )
        now = run.elapsed  # global clock at the end of this attempt

        # Durable state the next attempt inherits (read now: the next
        # attempt closes this world).
        pfs = run.world.pfs
        files = pfs.file_store()
        newly_down = sorted({t.target_id for t in pfs.targets if t.down} - down)
        down.update(newly_down)

        if failure is None:
            report.events.append({
                "attempt": attempt, "t": now, "kind": "completed",
                "replayed_bytes": remaining if attempt > 1 else 0,
            })
            break

        last_failure = failure
        if isinstance(failure, RankCrashError):
            crashed.add(failure.rank)
            event_kind = "rank_crash"
            detail = {"rank": failure.rank}
        elif newly_down:
            event_kind = "ost_outage"
            detail = {"targets": newly_down}
        else:
            # No new fault information: the identical attempt would fail
            # identically forever.  Give up rather than spin.
            raise RecoveryExhaustedError(
                f"attempt {attempt} failed with {type(failure).__name__} but "
                "exposed no new crashed rank or down target"
            ) from failure
        report.failover_time += failover
        report.events.append({
            "attempt": attempt, "t": now, "kind": event_kind,
            "error": type(failure).__name__, **detail,
        })
        if spec.trace:
            run.recorder.spans.append(Span(
                name="failover", category="recovery", rank=-1,
                t0=now, t1=now + failover, flow="async",
                attrs={"attempt": attempt, **detail},
            ))
        base += run.world.now + failover
    else:
        raise RecoveryExhaustedError(
            f"collective write did not complete within {budget} attempts"
        ) from last_failure

    report.attempts = attempt
    report.crashed_ranks = sorted(crashed)
    report.down_targets = sorted(down)
    report.journal_commits = journal.commits
    report.completed = True
    run.fold({
        "recovery.attempts": attempt,
        "recovery.rank_crashes": len(crashed),
        "recovery.ost_outages": len(down),
        "recovery.replayed_bytes": report.replayed_bytes,
        "recovery.torn_cycles": report.torn_cycles,
    })
    run.recorder.set_gauge("recovery.failover_time", report.failover_time)
    return report

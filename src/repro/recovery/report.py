"""The recovery outcome attached to a collective-write result."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RecoveryReport"]


@dataclass
class RecoveryReport:
    """What the recovery manager did to finish one collective write."""

    #: Attempts run, including the successful one (1 = no failover).
    attempts: int
    #: Ranks that crashed (and were demoted from aggregator duty).
    crashed_ranks: list[int]
    #: Storage targets that went down (stripes remapped to survivors).
    down_targets: list[int]
    #: Total simulated time spent in detection + failover gaps.
    failover_time: float
    #: Bytes rewritten by replay attempts (the redundant-work overhead).
    replayed_bytes: int
    #: Journal records whose checksum no longer matched the file.
    torn_cycles: int
    #: Cycle commits recorded across all attempts.
    journal_commits: int
    completed: bool
    #: Chronological failover timeline: one dict per attempt outcome,
    #: each with ``attempt``, global time ``t`` and ``kind``
    #: (``rank_crash`` / ``ost_outage`` / ``completed``).
    events: list[dict] = field(default_factory=list)

    def timeline(self) -> str:
        """Human-readable one-line-per-event recovery timeline."""
        lines = []
        for ev in self.events:
            extra = {
                k: v for k, v in ev.items() if k not in ("attempt", "t", "kind")
            }
            detail = ", ".join(f"{k}={v}" for k, v in extra.items())
            lines.append(
                f"  t={ev['t'] * 1e3:9.4f}ms  attempt {ev['attempt']}: "
                f"{ev['kind']}" + (f" ({detail})" if detail else "")
            )
        return "\n".join(lines)

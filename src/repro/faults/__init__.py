"""Deterministic fault injection for the simulated I/O and MPI stacks.

The paper's overlap algorithms are only trustworthy if the double-buffered
pipeline stays correct when the layers beneath it misbehave — the paper's
own closing note on Lustre's weak ``aio`` support is exactly such a
degraded mode.  This package perturbs those layers *inside* the
discrete-event simulation:

* transient :class:`~repro.fs.target.StorageTarget` write failures and
  straggler slowdowns,
* :class:`~repro.fs.aio.AioEngine` submission failures (with forced
  synchronous fallback),
* message-delivery jitter and delayed rendezvous handshakes in the MPI
  layer,
* permanent crash-class faults — rank crashes (``rank_crash_rate``) and
  storage-target outages (``ost_outage_rate``) inside ``crash_window``
  — recovered by the restart-from-journal protocol of
  :mod:`repro.recovery`,

and provides the recovery mechanism the collective-write path uses to
survive them: :class:`RetryPolicy` (bounded retries with exponential
backoff in simulated time, per-write timeouts, graceful degradation from
asynchronous to blocking writes) applied by :class:`RetryingSink`, the
write sink (:mod:`repro.sink`) an aggregator gets under a retry policy.

Every injection decision draws from a named stream of the world's seeded
:class:`~repro.sim.rng.RngStreams`, so a faulty run is exactly as
reproducible as a clean one: same :class:`FaultSpec` + same seed
→ bit-for-bit identical schedule, trace and file contents.
"""

from repro.faults.injector import FaultInjector
from repro.faults.presets import FAULT_PRESETS, fault_preset
from repro.faults.retry import RetryingSink, RetryPolicy
from repro.faults.spec import FaultSpec

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "RetryPolicy",
    "RetryingSink",
    "FAULT_PRESETS",
    "fault_preset",
]

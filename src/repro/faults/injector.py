"""The injector: turns a :class:`FaultSpec` into per-decision draws.

One injector is shared by every layer of a world.  Each decision site
draws from its own named RNG stream (one for whole-write failures, one
per storage target for stragglers, one per rank for deliveries), so
adding a new fault consumer never perturbs the schedules of existing
ones — the same property :class:`~repro.sim.rng.RngStreams` gives the
performance model's noise.  Every *fired* injection bumps a ``fault.*``
counter of the world's :class:`~repro.sim.trace.Recorder` (their sum
is the injection total), so tests and benchmarks can assert on counts
without recording spans.

Fault draws happen in event callbacks and rank generators, both of which
the engine processes in deterministic heap order; a faulty run is
therefore exactly as reproducible as a clean one.
"""

from __future__ import annotations

from repro.faults.spec import FaultSpec
from repro.sim.rng import RngStreams
from repro.sim.trace import Recorder

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-world fault decision source (see module docs)."""

    def __init__(self, rng: RngStreams, recorder: Recorder, spec: FaultSpec) -> None:
        self.rng = rng
        self.recorder = recorder
        self.spec = spec

    # -- storage ---------------------------------------------------------
    def storage_write_victim(self, target_ids) -> int | None:
        """Decide one *whole* PFS write request: failing target id or None.

        ``write_fail_rate`` is the probability that the client's write
        RPC fails, however many storage targets it spans — per-request
        rather than per-piece, so the effective failure probability does
        not compound with stripe count (a 10% rate means ~10% of writes
        retry, for a 1-stripe and a 16-stripe write alike).  One uniform
        draw both decides the failure and attributes it to a victim
        target.
        """
        spec = self.spec
        if spec.write_fail_rate == 0.0:
            return None
        u = float(self.rng.stream("faults.pfs").random())
        if u >= spec.write_fail_rate:
            return None
        ids = list(target_ids)
        victim = ids[min(int(u / spec.write_fail_rate * len(ids)), len(ids) - 1)]
        self.recorder.inc("fault.write_fail")
        return victim

    def storage_service_factor(self, target_id: int) -> float:
        """Decide one target write piece: straggler service-time factor.

        Per-piece (unlike failures): a straggling target slows only its
        own stripe pieces, which the write's ``all_of`` then waits out —
        the slow-OST tail effect.
        """
        spec = self.spec
        if spec.straggler_rate == 0.0:
            return 1.0
        u = float(self.rng.stream(f"faults.ost{target_id}").random())
        if u < spec.straggler_rate:
            self.recorder.inc("fault.straggler")
            return spec.straggler_factor
        return 1.0

    # -- silent data corruption -------------------------------------------
    def _corruption_position(self, stream: str, rate: float, size: int) -> int | None:
        """One corruption decision: the victim byte position, or None.

        The single-draw trick again: one uniform both decides the flip
        and places it within the extent, so a zero-rate spec consumes no
        draws and a nonzero one consumes exactly one per decision —
        fault schedules stay identical across integrity modes.
        """
        if rate == 0.0 or size <= 0:
            return None
        u = float(self.rng.stream(stream).random())
        if u >= rate:
            return None
        return min(int(u / rate * size), size - 1)

    def message_corruption(self, rank: int, size: int) -> int | None:
        """Decide one payload landing at ``rank`` (message or RMA put):
        byte position to flip one bit of, or None.

        The firing site flips bit ``pos & 7`` of the *receiver-side*
        copy only; the sender's buffer stays pristine, so source
        retransmission is a valid repair.
        """
        pos = self._corruption_position(
            f"faults.corrupt.r{rank}", self.spec.message_corrupt_rate, size
        )
        if pos is not None:
            self.recorder.inc("fault.msg_corrupt")
        return pos

    def staging_corruption(self, node: int, size: int) -> int | None:
        """Decide one staged extent at drain pickup on ``node``: at-rest
        bit-flip position, or None."""
        pos = self._corruption_position(
            f"faults.bitrot.n{node}", self.spec.staging_corrupt_rate, size
        )
        if pos is not None:
            self.recorder.inc("fault.staging_corrupt")
        return pos

    def storage_corruption(self, size: int) -> int | None:
        """Decide one PFS write commit: stored-byte flip position, or None."""
        pos = self._corruption_position(
            "faults.storage", self.spec.storage_corrupt_rate, size
        )
        if pos is not None:
            self.recorder.inc("fault.storage_corrupt")
        return pos

    def torn_write(self, size: int) -> int | None:
        """Decide one PFS write commit: torn-write keep-length (only the
        first ``keep`` bytes reach the file), or None for a full commit."""
        keep = self._corruption_position(
            "faults.torn", self.spec.torn_write_rate, size
        )
        if keep is not None:
            self.recorder.inc("fault.torn_write")
        return keep

    # -- permanent faults ------------------------------------------------
    def rank_crash_time(self, rank: int) -> float | None:
        """One-time draw: when ``rank`` crashes, or None if it survives.

        One uniform draw both decides the crash and places it in
        ``[0, crash_window)`` (the same single-draw trick as
        :meth:`storage_write_victim`), from a per-rank stream so skipping
        an already-crashed rank on a recovery attempt never perturbs the
        other ranks' schedules.  The firing site emits ``fault.rank_crash``
        when the crash is actually delivered.
        """
        spec = self.spec
        if spec.rank_crash_rate == 0.0 or spec.crash_window <= 0.0:
            return None
        u = float(self.rng.stream(f"faults.crash.r{rank}").random())
        if u >= spec.rank_crash_rate:
            return None
        return (u / spec.rank_crash_rate) * spec.crash_window

    def ost_outage_time(self, target_id: int) -> float | None:
        """One-time draw: when the target goes down, or None if it stays up.

        Mirrors :meth:`rank_crash_time`; the firing site emits
        ``fault.ost_outage`` when the outage takes effect.
        """
        spec = self.spec
        if spec.ost_outage_rate == 0.0 or spec.crash_window <= 0.0:
            return None
        u = float(self.rng.stream(f"faults.outage.t{target_id}").random())
        if u >= spec.ost_outage_rate:
            return None
        return (u / spec.ost_outage_rate) * spec.crash_window

    # -- aio -------------------------------------------------------------
    def aio_submit_fails(self, client: int) -> bool:
        """Decide whether one aio submission by ``client`` is refused."""
        spec = self.spec
        if spec.aio_submit_fail_rate == 0.0:
            return False
        u = float(self.rng.stream(f"faults.aio.r{client}").random())
        if u < spec.aio_submit_fail_rate:
            self.recorder.inc("fault.aio_submit")
            return True
        return False

    # -- messaging -------------------------------------------------------
    def _delivery_delay(self, stream: str, rate: float, mean: float, category: str) -> float:
        if rate == 0.0 or mean == 0.0:
            return 0.0
        gen = self.rng.stream(stream)
        if float(gen.random()) >= rate:
            return 0.0
        delay = mean * (0.5 + float(gen.random()))
        self.recorder.inc(category)
        return delay

    def message_delay(self, rank: int) -> float:
        """Extra delivery delay for one payload arrival at ``rank``."""
        spec = self.spec
        return self._delivery_delay(
            f"faults.net.r{rank}", spec.message_delay_rate, spec.message_delay,
            "fault.msg_delay",
        )

    def rendezvous_delay(self, rank: int) -> float:
        """Extra delay for one rendezvous control message (RTS/CTS) at ``rank``."""
        spec = self.spec
        return self._delivery_delay(
            f"faults.rndv.r{rank}", spec.rendezvous_delay_rate, spec.rendezvous_delay,
            "fault.rendezvous_delay",
        )

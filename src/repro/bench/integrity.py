"""Extension experiment X12: the integrity campaign.

Exercises the end-to-end integrity layer (:mod:`repro.integrity`) under
the ``bitrot_cluster`` fault preset — silent bit flips on message
deliveries and RMA landings, at-rest burst-buffer rot, storage media
flips and torn writes — across all five overlap algorithms, with and
without the staging tier, and reports per cell:

* **detection rate** — of the runs where injected corruption actually
  reached the file (ground truth: the same ``(seed, faults)`` run with
  ``mode="off"`` fails its byte-exact verification), the fraction where
  ``mode="detect"`` raised :class:`~repro.errors.CorruptDataError`
  instead of completing with a silently corrupt file;
* **repair rate** — the fraction of corrupted runs where
  ``mode="repair"`` completed with a final ``file_sha256`` identical to
  the fault-free run of the same seed;
* **false positives** — fault-free runs that a checking mode failed
  (must be zero: checksums never fire on clean data);
* **overhead** — fault-free elapsed of detect/repair mode relative to
  ``mode="off"`` (the cost of checksum computation, read-back verifies
  and the end-of-job scrub on a clean run).

The campaign doubles as the acceptance test of the integrity subsystem:
the CI smoke job runs it with ``--check``, which demands 100%
detection, 100% repair, zero false positives and at least one corrupted
run per cell (anything less means the preset rates are mistuned for the
scenario size).

The ground-truth protocol leans on the injector's schedule parity: every
corruption decision comes from a per-entity named RNG stream keyed only
by the world seed, so the ``mode="off"`` run and the checking runs see
bit-identical corruption schedules and the off-run's verification
verdict is a valid oracle for what the checking modes faced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.bench.experiments import ALGO_LABEL, ALGORITHM_ORDER
from repro.bench.parallel import parallel_map
from repro.bench.runner import small_scenario
from repro.bench.table import Column, Table
from repro.collio.api import RunSpec, run_collective_write
from repro.collio.config import CollectiveConfig
from repro.config import DEFAULT_SCALE, DEFAULT_SEED
from repro.errors import CorruptDataError, ReproError, VerificationError
from repro.faults.presets import fault_preset
from repro.integrity.spec import IntegritySpec
from repro.staging.spec import StagingSpec
from repro.units import KiB

__all__ = ["IntegrityCell", "IntegrityCampaignResult", "integrity_campaign",
           "integrity_tables"]


@dataclass
class IntegrityCell:
    """One (algorithm, staging on/off) cell of the campaign."""

    algorithm: str
    staged: bool
    runs: int = 0
    #: Ground truth: runs whose mode="off" twin ended with a corrupt file.
    corrupted: int = 0
    #: Corrupted runs that mode="detect" flagged with CorruptDataError.
    detected: int = 0
    #: Corrupted runs that mode="detect" completed silently (must be 0).
    missed: int = 0
    #: Clean or fault-free runs that a checking mode failed (must be 0).
    false_positives: int = 0
    #: Corrupted runs that mode="repair" finished byte-identically.
    repaired: int = 0
    #: Corrupted runs where repair failed or produced wrong bytes.
    repair_failed: int = 0
    #: Mean fault-free elapsed of detect/repair mode vs mode="off".
    detect_overhead: float = 0.0
    repair_overhead: float = 0.0
    #: Total integrity.detected / integrity.repaired events of the
    #: repair-mode runs (one corruption can need several repair hops).
    detected_events: int = 0
    repaired_events: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.corrupted if self.corrupted else 1.0

    @property
    def repair_rate(self) -> float:
        return self.repaired / self.corrupted if self.corrupted else 1.0


@dataclass
class IntegrityCampaignResult:
    """The whole campaign: one :class:`IntegrityCell` per (algorithm, tier)."""

    nprocs: int
    reps: int
    preset: str = "bitrot_cluster"
    cells: list[IntegrityCell] = field(default_factory=list)

    @property
    def corrupted(self) -> int:
        return sum(c.corrupted for c in self.cells)

    @property
    def detection_rate(self) -> float:
        total = self.corrupted
        return sum(c.detected for c in self.cells) / total if total else 1.0

    @property
    def repair_rate(self) -> float:
        total = self.corrupted
        return sum(c.repaired for c in self.cells) / total if total else 1.0

    @property
    def false_positives(self) -> int:
        return sum(c.false_positives for c in self.cells)

    def check_ok(self) -> bool:
        """The CI gate: perfect detection and repair, and faults that fire.

        ``--check`` demands every injected corruption detected
        (no misses), every corrupted run repaired byte-exactly, zero
        false positives, and at least one corrupted run overall — a
        campaign where no corruption fired proves nothing.
        """
        return (
            self.corrupted > 0
            and self.false_positives == 0
            and all(c.missed == 0 and c.repair_failed == 0 for c in self.cells)
            and self.detection_rate == 1.0
            and self.repair_rate == 1.0
        )

    def gate(self) -> list[str]:
        """Failures of the ``--check`` acceptance bar (empty = pass)."""
        if self.check_ok():
            return []
        return [f"detection {self.detection_rate:.0%}, repair "
                f"{self.repair_rate:.0%}, false positives {self.false_positives}, "
                f"corrupted runs {self.corrupted}"]


def _integrity_rep(spec: RunSpec) -> dict:
    """One (algorithm, tier, seed) cell: six checked runs of ``spec``.

    Module-level so pool workers can import it; the result depends only
    on the spec — never on which process ran it.  Returns plain scalars
    for the in-order fold.
    """
    faults = fault_preset("bitrot_cluster")

    def run(mode: str | None, faulty: bool):
        return run_collective_write(spec.replace(
            config=spec.config.with_(
                integrity=IntegritySpec(mode=mode) if mode else None),
            faults=faults if faulty else None,
        ))

    out = {
        "false_positives": 0, "detect_ratio": None, "repair_ratio": None,
        "corrupted": False, "outcome": "clean", "repair_ok": False,
        "detected_events": 0, "repaired_events": 0,
    }

    # Fault-free: baseline sha/elapsed and mode overheads.
    # A checking mode failing a clean run is a false positive.
    base = run(None, faulty=False)
    for mode, key in (("detect", "detect_ratio"), ("repair", "repair_ratio")):
        try:
            clean = run(mode, faulty=False)
        except ReproError:
            out["false_positives"] += 1
            continue
        if base.elapsed > 0:
            out[key] = clean.elapsed / base.elapsed

    # Ground truth: does this seed's corruption schedule actually
    # damage the file when nobody is checking?
    try:
        run(None, faulty=True)
    except VerificationError:
        out["corrupted"] = True

    # Detection.
    try:
        run("detect", faulty=True)
    except CorruptDataError:
        out["outcome"] = "detected"
    except VerificationError:
        out["outcome"] = "missed"
    if not out["corrupted"] and out["outcome"] != "clean":
        out["false_positives"] += 1

    # Repair: byte-identical to the fault-free run or bust.
    try:
        rep = run("repair", faulty=True)
    except ReproError:
        rep = None
    else:
        out["repair_ok"] = rep.file_sha256 == base.file_sha256
    if not out["corrupted"] and not out["repair_ok"]:
        out["false_positives"] += 1
    if rep is not None and rep.integrity is not None:
        out["detected_events"] = rep.integrity["detected"]
        out["repaired_events"] = rep.integrity["repaired"]
    return out


def integrity_campaign(
    nprocs: int = 8,
    reps: int = 3,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    progress=None,
    jobs: int = 1,
) -> IntegrityCampaignResult:
    """Run the integrity matrix; ``progress`` gets one line per seed's
    cell of checked runs.

    ``scale`` divides the per-rank payload like the other experiments.
    Each (algorithm, tier, seed) cell costs six
    simulated runs: off/detect/repair fault-free (baseline + overheads +
    false-positive check) and off/detect/repair under ``bitrot_cluster``
    (ground truth + detection + repair).

    ``jobs`` fans the (algorithm, tier, seed) trios out over a process
    pool (:func:`repro.bench.parallel.parallel_map`); every per-run seed
    is carried inside the task spec and results are folded in
    serial-loop order, so the campaign's tables and CSVs are
    byte-identical for any ``jobs``; the progress lines come during the
    fold, after the simulations.
    """
    base = small_scenario("bitrot", nprocs, scale)
    result = IntegrityCampaignResult(nprocs=nprocs, reps=reps)
    outcomes = iter(parallel_map(
        _integrity_rep,
        [base.replace(
            algorithm=algorithm, seed=seed + i,
            config=CollectiveConfig(cb_buffer_size=16 * KiB,
                                    staging=StagingSpec() if staged else None))
         for algorithm in ALGORITHM_ORDER
         for staged in (False, True)
         for i in range(reps)],
        jobs=jobs,
    ))

    for algorithm in ALGORITHM_ORDER:
        for staged in (False, True):
            cell = IntegrityCell(algorithm=algorithm, staged=staged)
            result.cells.append(cell)
            overhead_detect: list[float] = []
            overhead_repair: list[float] = []
            for i in range(reps):
                o = next(outcomes)
                cell.runs += 1
                cell.false_positives += o["false_positives"]
                if o["detect_ratio"] is not None:
                    overhead_detect.append(o["detect_ratio"])
                if o["repair_ratio"] is not None:
                    overhead_repair.append(o["repair_ratio"])
                if o["corrupted"]:
                    cell.corrupted += 1
                    if o["outcome"] == "detected":
                        cell.detected += 1
                    else:
                        cell.missed += 1
                    if o["repair_ok"]:
                        cell.repaired += 1
                    else:
                        cell.repair_failed += 1
                cell.detected_events += o["detected_events"]
                cell.repaired_events += o["repaired_events"]
                if progress is not None:
                    progress(f"integrity {algorithm:14s} "
                             f"{'staged' if staged else 'direct':6s} rep {i}: "
                             f"{o['outcome'] if o['corrupted'] else 'clean'}")
            if overhead_detect:
                cell.detect_overhead = sum(overhead_detect) / len(overhead_detect)
            if overhead_repair:
                cell.repair_overhead = sum(overhead_repair) / len(overhead_repair)
    return result


def integrity_tables(result: IntegrityCampaignResult) -> list[Table]:
    """X12: detection / repair / overhead per (algorithm, staging tier)."""
    a = attrgetter

    def of_corrupted(header, field):
        """A count of the corrupted runs: "n/corrupted" in text."""
        return Column(
            header, field, lambda c: c,
            lambda c: f"{getattr(c, field)}/{c.corrupted}" if c.corrupted else "-",
            a(field),
        )

    def overhead(header, name):
        return Column(header, name, a(name),
                      lambda v: f"{(v - 1) * 100:+.1f}%" if v else "-", "{:.6f}")

    return [Table(
        f"X12 — integrity campaign (preset={result.preset}, "
        f"P={result.nprocs}, reps={result.reps})",
        [Column("Algorithm", "algorithm", a("algorithm"), ALGO_LABEL.get),
         Column("Staging", "staging", lambda c: "on" if c.staged else "off"),
         Column(None, "runs", a("runs")),
         Column("Corrupt", "corrupted", lambda c: c,
                lambda c: f"{c.corrupted}/{c.runs}", a("corrupted")),
         of_corrupted("Detected", "detected"),
         Column(None, "missed", a("missed")),
         of_corrupted("Repaired", "repaired"),
         Column("Missed", get=a("missed")),
         Column(None, "repair_failed", a("repair_failed")),
         Column("FalsePos", "false_positives", a("false_positives")),
         Column(None, "detection_rate", a("detection_rate"), csv="{:.6f}"),
         Column(None, "repair_rate", a("repair_rate"), csv="{:.6f}"),
         overhead("Detect ovh", "detect_overhead"),
         overhead("Repair ovh", "repair_overhead"),
         Column(None, "detected_events", a("detected_events")),
         Column(None, "repaired_events", a("repaired_events"))],
        result.cells,
        f"corrupted runs: {result.corrupted}; "
        f"detection rate: {result.detection_rate:.0%}; "
        f"repair rate: {result.repair_rate:.0%}; "
        f"false positives: {result.false_positives}; overheads are "
        "fault-free elapsed vs mode=off (carried checksums + commit verify + scrub)",
    )]

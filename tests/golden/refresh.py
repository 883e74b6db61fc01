"""Regenerate the golden files after an *intentional* change.

Usage::

    PYTHONPATH=src python tests/golden/refresh.py            # fingerprints.json
    PYTHONPATH=src python tests/golden/refresh.py --timing   # timing.json

Review the diff before committing.  Every changed fingerprint hash is a
behavioural change of the simulator that same-seed reproducibility no
longer covers.  ``timing.json`` may only change in a PR that changes the
cost model on purpose; a PR that makes the simulator itself faster must
leave it diff-free.  Its ``telemetry/...`` entries may only change in a
PR that changes what the recorder reports on purpose.
"""

from __future__ import annotations

import json
import os
import sys

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, _REPO_ROOT)

from repro.collio.api import run_collective_write  # noqa: E402
from tests.golden.scenario import (  # noqa: E402
    TELEMETRY, case_key, fingerprint, golden_cases, read_back, read_timing,
    read_timing_cases, telemetry, telemetry_specs, timing, timing_specs,
    tuner_counters, untraced, untraced_specs,
)

_HERE = os.path.dirname(os.path.abspath(__file__))


def _write(name: str, records: dict) -> None:
    out = os.path.join(_HERE, name)
    with open(out, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[wrote {out}: {len(records)} records]", file=sys.stderr)


def main(argv: list[str]) -> int:
    if argv == ["--timing"]:
        records = {}
        for key, spec in timing_specs().items():
            result = run_collective_write(spec)
            records[key] = timing(result)
            records[TELEMETRY + key] = telemetry(result)
            print(f"  {key}: {records[key]['elapsed_hex']}", file=sys.stderr)
        for key, kwargs in read_timing_cases().items():
            result = read_back(**kwargs)
            records[key] = read_timing(result)
            records[TELEMETRY + key] = telemetry(result)
            print(f"  {key}: {records[key]['elapsed_hex']}", file=sys.stderr)
        for key, spec in telemetry_specs().items():
            records[key] = telemetry(run_collective_write(spec))
        for key, spec in untraced_specs().items():
            records[key] = untraced(run_collective_write(spec))
        records.update(tuner_counters())
        _write("timing.json", records)
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    fingerprints = {}
    for case in golden_cases():
        key = case_key(*case)
        fingerprints[key] = fingerprint(*case)
        print(f"  {key}: {fingerprints[key]['file_sha256'][:12]}", file=sys.stderr)
    _write("fingerprints.json", fingerprints)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

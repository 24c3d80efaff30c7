"""Output checks made from outside cascsim: report invariants, digests and event counts.

The invariants repeat, as real checks, the end-of-run ``assert``s that
``python -O`` strips from the engine. Digests pin every output byte; the event
log is pinned by its per-kind event counts, read back line by line through
``cascsim.engine.parse_event_log_line``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def event_log_counts(path: Path, parse_line) -> dict[str, int]:
    """Per-kind event counts of an event-log file, parsing every line with ``parse_line``."""
    counts: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                counts[parse_line(line).kind] += 1
    return dict(sorted(counts.items()))


def report_problems(report, expected_samples: int) -> list[str]:
    """Broken invariants of one run report (empty when it is consistent)."""
    problems = []
    finalized = report.samples_finalized
    local = report.samples_local
    served = report.samples_served
    in_flight = report.samples_in_flight
    if finalized != local + served:
        problems.append(f"samples_finalized {finalized} != local {local} + served {served}")
    if finalized + in_flight != expected_samples:
        problems.append(f"finalized {finalized} + in flight {in_flight} "
                        f"!= trace length {expected_samples}")
    decided = finalized + in_flight
    expected_rate = (served + in_flight) / decided if decided else 0.0
    if not math.isclose(report.forward_rate, expected_rate, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"forward_rate {report.forward_rate!r} != (served + in flight) / "
                        f"decided = {expected_rate!r}")
    return problems


def calibration_oracle(bvsb, light_correct, heavy_correct, target: float,
                       tolerance: float) -> float:
    """The threshold cascsim's calibration rule should pick, recomputed from sorted columns.

    The rule scans the grid 0, 0.005, ..., 1 for the point whose forward rate
    (share of confidence gaps strictly below it) is closest to ``target``,
    lowest on ties; when that point's cascade accuracy is more than
    ``tolerance`` below the best grid point's, it takes the lowest point within
    ``tolerance`` of the best instead.
    """
    order = np.argsort(bvsb, kind="stable")
    gaps = np.asarray(bvsb)[order]
    n = len(gaps)
    heavy_before = np.concatenate(([0], np.cumsum(np.asarray(heavy_correct)[order])))
    light_before = np.concatenate(([0], np.cumsum(np.asarray(light_correct)[order])))
    grid = np.array([round(i * 0.005, 3) for i in range(201)])
    forwarded = np.searchsorted(gaps, grid, side="left")
    rates = forwarded / n
    accuracies = (heavy_before[forwarded] + light_before[-1] - light_before[forwarded]) / n
    best = int(np.argmin(np.abs(rates - target)))
    max_acc = float(accuracies.max())
    if accuracies[best] < max_acc - tolerance:
        best = int(np.nonzero(accuracies >= max_acc - tolerance)[0][0])
    return float(grid[best])


def calibrate_problems(stdout: str, expected: list[float]) -> list[str]:
    """Differences between the thresholds ``calibrate --config`` printed and ``expected``."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"calibrate output is not JSON: {exc}"]
    got = [entry.get("threshold") for entry in doc.get("thresholds", [])]
    if got != expected:
        return [f"calibrated thresholds {got}, expected {expected}"]
    return []


def digest_mismatches(expected: dict, actual: dict) -> list[str]:
    """Outputs whose digest or event counts differ from the stored reference."""
    return [f"{name}: expected {expected.get(name)}, got {actual.get(name)}"
            for name in sorted(set(expected) | set(actual))
            if actual.get(name) != expected.get(name)]

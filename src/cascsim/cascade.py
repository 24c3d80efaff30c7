"""Single-cascade semantics: the forwarding rule, accuracy, and threshold calibration.

A two-model cascade keeps a sample on the device when the light model's
confidence gap (top-1 minus top-2 softmax probability) reaches the device
threshold and otherwise escalates it to the heavy server model. The threshold
is the one knob the scheduler turns, and ``forwards`` is the one place the
rule is written.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .trace import TraceSet

# Resolution of the calibration scan; 201 uniform points over [0, 1].
CALIBRATION_GRID_STEP = 0.005
CALIBRATION_GRID = tuple(round(i * CALIBRATION_GRID_STEP, 3) for i in range(201))
_GRID_EDGES = np.array(CALIBRATION_GRID + (np.inf,))  # grid point 201 lies above every gap


@dataclass(frozen=True)
class CalibrationSpec:
    """How to derive the initial threshold from a held-out calibration trace."""

    target_forward_rate: float = 0.30
    accuracy_tolerance: float = 0.01
    count: int = 10_000
    seed: int = 90210

    def validate(self) -> None:
        tolerance = self.accuracy_tolerance
        for name, ok, rule in (
                ("target_forward_rate", 0.0 < self.target_forward_rate < 1.0, "in (0, 1)"),
                ("accuracy_tolerance", isfinite(tolerance) and tolerance >= 0.0,
                 "finite and non-negative"),
                ("count", 1 <= self.count <= sys.maxsize, f"in [1, {sys.maxsize}]"),
                ("seed", self.seed >= 0, "non-negative")):
            if not ok:
                raise ConfigError(f"scheduler.calibration.{name}",
                                  f"must be {rule}, got {getattr(self, name)}")


def forwards(bvsb, threshold):
    """Whether each sample goes to the server: its confidence gap is below the
    threshold (numpy broadcasting; a gap equal to the threshold stays local)."""
    return bvsb < threshold


class Calibration(NamedTuple):
    """A threshold picked from the calibration grid, with the forward rate and the
    cascade accuracy it gives on the calibration trace."""

    value: float
    forward_rate: float
    cascade_accuracy: float


def calibrate_static_threshold(calibration_trace: TraceSet,
                               target_forward_rate: float = CalibrationSpec.target_forward_rate,
                               accuracy_tolerance: float = CalibrationSpec.accuracy_tolerance,
                               ) -> Calibration:
    """Pick a fixed threshold from the calibration grid.

    Scans the 201-point grid for the threshold whose forward rate is closest
    to the target (ties go to the lower threshold). If that choice costs more
    than accuracy_tolerance of cascade accuracy relative to the best grid
    point, falls back to the lowest threshold within the tolerance of the
    maximum. Returns the pick with its forward rate and cascade accuracy on the
    trace. The callers check the inputs: a trace holds at least one record, the
    target lies in (0, 1) and the tolerance is finite and non-negative.

    Rates and accuracies come from counts of the gaps in each grid bin: a gap's
    bin is the number of grid points at or below it, so grid point j forwards
    (``forwards``: gap strictly below it) exactly the samples in bins 0..j. The
    bin is ``floor(gap * 200) + 1``, set right by comparing the gap with the grid
    points on either side, as the product may round across one. One count per
    bin and pair of correctness bits gives the rest: the cascade is right on a
    sample when the heavy model is and the sample is forwarded, or when the
    light model is and it is kept, so the count at j is the heavy-correct
    samples in bins 0..j plus the light-correct ones in the later bins.
    """
    grid = _GRID_EDGES[:-1]
    n = len(calibration_trace)
    gaps = calibration_trace.bvsb
    bins = (gaps * (grid.size - 1)).astype(np.intp) + 1  # floor(gap * 200) + 1, one off at most
    bins -= _GRID_EDGES[bins - 1] > gaps
    bins += _GRID_EDGES[bins] <= gaps
    # the samples per bin and pair of bits, at 4 * bin + 2 * heavy + light
    counts = np.bincount(4 * bins + 2 * calibration_trace.heavy_correct
                         + calibration_trace.light_correct, minlength=4 * (grid.size + 1))
    in_bins = np.cumsum(counts.reshape(-1, 4)[:grid.size], axis=0)  # row j: in bins 0..j
    forwarded = in_bins.sum(axis=1)
    heavy_forwarded = in_bins[:, 2] + in_bins[:, 3]
    light_forwarded = in_bins[:, 1] + in_bins[:, 3]
    light_total = int(np.count_nonzero(calibration_trace.light_correct))
    rates = forwarded / n
    accuracies = (heavy_forwarded + light_total - light_forwarded) / n

    best = int(np.argmin(np.abs(rates - target_forward_rate)))  # argmin → lowest on ties
    max_acc = float(accuracies.max())
    if accuracies[best] < max_acc - accuracy_tolerance:
        within = np.nonzero(accuracies >= max_acc - accuracy_tolerance)[0]
        best = int(within[0])
    return Calibration(float(grid[best]), float(rates[best]), float(accuracies[best]))

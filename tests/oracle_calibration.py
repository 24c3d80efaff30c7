"""Threshold calibration by a grid × n matrix: the reference
``cascsim.cascade.calibrate_static_threshold`` is compared against.

It decides keep or forward for every (grid point, sample) pair with
``cascade.forwards`` and sums each grid row, so its forward rates and
accuracies are the rule's counts by construction.
"""

from __future__ import annotations

import numpy as np

from cascsim.cascade import CALIBRATION_GRID, forwards
from cascsim.trace import TraceSet


def calibrate_grid_matrix(trace: TraceSet, target_forward_rate: float,
                          accuracy_tolerance: float) -> tuple[float, float, float]:
    """The grid point calibration picks, its forward rate and its cascade accuracy,
    from the full grid × n decision matrix."""
    grid = np.asarray(CALIBRATION_GRID)
    n = len(trace)
    forwarded = forwards(trace.bvsb[None, :], grid[:, None])
    rates = forwarded.sum(axis=1) / n
    correct = np.where(forwarded, trace.heavy_correct[None, :], trace.light_correct[None, :])
    accuracies = correct.sum(axis=1) / n

    best = int(np.argmin(np.abs(rates - target_forward_rate)))  # argmin → lowest on ties
    max_acc = float(accuracies.max())
    if accuracies[best] < max_acc - accuracy_tolerance:
        best = int(np.nonzero(accuracies >= max_acc - accuracy_tolerance)[0][0])
    return float(grid[best]), float(rates[best]), float(accuracies[best])

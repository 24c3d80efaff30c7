"""A tiny three-tier config (milliseconds to run) for the benchmark's own tests."""

from __future__ import annotations

import json
from pathlib import Path


def tiny_doc() -> dict:
    synthetic = {"light_accuracy": 0.7, "heavy_accuracy_given_light_correct": 0.9,
                 "heavy_accuracy_given_light_wrong": 0.4, "count": 300}
    return {
        "fleet": [{"tier": tier, "count": 1, "t_inf_ms": t_inf,
                   "trace": {"synthetic": dict(synthetic)}}
                  for tier, t_inf in (("low", 31.0), ("mid", 43.0), ("high", 33.0))],
        "server": {"batch_latency_table": {"1": 15.0, "2": 17.0, "4": 19.0},
                   "max_effective_batch": 4},
        "scheduler": {"kind": "multitasc", "tick_period_ms": 200.0, "flush_factor": 2.0,
                      "slo_ms": 100.0,
                      "calibration": {"target_forward_rate": 0.3, "count": 500}},
        "seeds": [1],
    }


def tiny_config(directory: Path, doc: dict | None = None) -> Path:
    path = directory / "tiny.json"
    path.write_text(json.dumps(doc or tiny_doc()), encoding="utf-8")
    return path

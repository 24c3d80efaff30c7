"""The benchmark's output checker: invariants, digests against a reference, event counts.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import (calibrate_problems, calibration_oracle, digest_mismatches,  # noqa: E402
                    report_problems)
from spans import Installation  # noqa: E402
from tiny import tiny_config, tiny_doc  # noqa: E402
from workloads import WORKLOADS, RunObserver, SimulateEventlogHeterog  # noqa: E402


def counts(finalized=100, local=70, served=30, in_flight=0, forward_rate=None):
    decided = finalized + in_flight
    if forward_rate is None:
        forward_rate = (served + in_flight) / decided
    return SimpleNamespace(samples_finalized=finalized, samples_local=local,
                           samples_served=served, samples_in_flight=in_flight,
                           forward_rate=forward_rate)


def test_consistent_report_has_no_problems():
    assert report_problems(counts(), 100) == []
    assert report_problems(counts(finalized=90, local=70, served=20, in_flight=10), 100) == []


@pytest.mark.parametrize("report, total, fragment", [
    (counts(local=71), 100, "samples_finalized"),
    (counts(), 101, "trace length"),
    (counts(forward_rate=0.31), 100, "forward_rate"),
])
def test_broken_invariants_are_named(report, total, fragment):
    problems = report_problems(report, total)
    assert len(problems) == 1 and fragment in problems[0]


def test_digest_mismatch_lists_changed_missing_and_extra_outputs():
    ref = {"a.json": "1", "events.tsv": {"x": 2}}
    assert digest_mismatches(ref, dict(ref)) == []
    found = digest_mismatches(ref, {"a.json": "2", "events.tsv": {"x": 2}, "b.json": "3"})
    assert [f.split(":")[0] for f in found] == ["a.json", "b.json"]


def test_calibrate_output_checks():
    good = json.dumps({"thresholds": [{"threshold": 0.5}, {"threshold": 0.0}]})
    assert calibrate_problems(good, [0.5, 0.0]) == []
    assert calibrate_problems(good, [0.5, 0.0, 0.1])
    assert calibrate_problems(good, [0.505, 0.0])
    assert calibrate_problems("not json", [0.5])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("target, tolerance", [(0.3, 0.01), (0.6, 0.0), (0.05, 0.2)])
def test_calibration_oracle_matches_cascsim(seed, target, tolerance):
    from cascsim.cascade import calibrate_static_threshold
    from cascsim.trace import SyntheticTraceParams, generate_synthetic_trace

    params = SyntheticTraceParams(0.6 + 0.05 * seed, 0.9, 0.3, count=2000 + 97 * seed)
    trace = generate_synthetic_trace(params, seed)
    assert calibration_oracle(trace.bvsb, trace.light_correct, trace.heavy_correct,
                              target, tolerance) == \
        calibrate_static_threshold(trace, target, tolerance).value


class TinySimulate(SimulateEventlogHeterog):
    """The event-logged simulate workload, pointed at the tiny config."""

    def __init__(self, seed, work, doc):
        super().__init__(seed, work)
        self._doc = doc
        self.config = tiny_config(work, doc)

    def doc(self):
        return json.loads(json.dumps(self._doc))

    def argv(self):
        return ["simulate", "--config", str(self.config), "--event-log",
                "--out", str(self.out), "--seed-list", str(self.seed)]


def run_tiny(tmp_path, reference=None, doc=None, expected_doc=None):
    """One checked body on the tiny config ``doc``; the checker reads ``expected_doc``."""
    doc = doc or tiny_doc()
    workload = TinySimulate(5, tmp_path, doc)
    workload._doc = expected_doc or doc
    observer = RunObserver()
    observed = Installation()
    observed.wrap_attr("cascsim.cli", "run_simulation", observer.wrap)
    try:
        return workload.run_body(observer, reference)
    finally:
        observed.remove()


def test_tiny_body_passes_and_reference_round_trips(tmp_path):
    body = run_tiny(tmp_path)
    assert body.problems == [] and body.failed == 0 and len(body.ops) == 1
    assert body.samples == 900 and body.ops[0]["samples"] == 900
    assert set(body.outputs) == {"report_seed5.json", "report_mean.json", "events_seed5.tsv"}
    assert body.outputs["events_seed5.tsv"]["device_sample_done"] == 900
    assert run_tiny(tmp_path, reference=body.outputs).failed == 0


def test_changed_digest_fails_every_op(tmp_path):
    body = run_tiny(tmp_path)
    reference = dict(body.outputs, **{"report_mean.json": "0" * 64})
    again = run_tiny(tmp_path, reference=reference)
    assert again.failed == 1 and any("report_mean.json" in p for p in again.problems)


def test_wrong_trace_length_fails_the_op(tmp_path):
    """The expected sample total comes from the config document, outside cascsim."""
    expected = tiny_doc()
    expected["fleet"][0]["trace"]["synthetic"]["count"] = 301
    body = run_tiny(tmp_path, expected_doc=expected)
    assert body.failed == 1 and any("trace length" in p for p in body.problems)


def test_failing_cli_call_counts_every_op(tmp_path):
    doc = tiny_doc()
    doc["fleet"][0]["count"] = 0
    body = run_tiny(tmp_path, doc=doc)
    assert body.failed == 1 and any("exited with 1" in p for p in body.problems)


def test_benchmark_json_matches_the_runner():
    import run
    from layers import unit

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit(name)) for name in run.PER_LAYER]
    assert spec["paths"] == [BENCH.name]

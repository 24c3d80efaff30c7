"""Span arithmetic and wrapper installation of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cascsim.cli  # noqa: E402
import cascsim.engine  # noqa: E402
from layers import TARGETS, body_metrics, event_counts  # noqa: E402
from spans import Installation, Tracer, covered, install_spans, self_time, time_in  # noqa: E402
from tiny import tiny_config  # noqa: E402


def test_covered_merges_overlaps_and_keeps_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered([(5.0, 6.0), (0.0, 1.0), (0.5, 1.5)]) == 2.5


def span(name, start, end, parent, index):
    return (name, start, end, parent, index)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("engine.run", 0.0, 10.0, -1, 0),
        span("server.select", 1.0, 3.0, 0, 1),
        span("trace.gen", 1.5, 2.5, 1, 2),  # grandchild: already inside its parent
        span("metrics.report", 4.0, 7.0, 0, 3),
        span("engine.run", 20.0, 22.0, -1, 4),
    ]
    assert self_time(spans, "engine.run") == pytest.approx((10.0 - 5.0) + 2.0)
    assert self_time(spans, "server.select") == pytest.approx(1.0)
    assert self_time(spans, "trace.gen") == pytest.approx(1.0)


def test_time_in_counts_nested_spans_of_one_group_once():
    spans = [
        span("metrics.build_report", 0.0, 4.0, -1, 0),
        span("metrics.accuracy", 1.0, 2.0, 0, 1),
        span("metrics.accuracy", 5.0, 6.0, -1, 2),
    ]
    assert time_in(spans, {"metrics.build_report", "metrics.accuracy"}) == 5.0
    assert time_in(spans, {"metrics.accuracy"}) == 2.0


def test_tracer_records_parent_run_and_failed_calls():
    tracer = Tracer()
    tracer.run_id = 7

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", lambda x: inner_t(x) + 1)
    assert outer_t(1) == 2
    with pytest.raises(ValueError):
        outer_t(-1)
    spans = tracer.spans(7)
    assert [(s[0], s[3]) for s in spans] == [
        ("m.outer", -1), ("m.inner", 0), ("m.outer", -1), ("m.inner", 2)]
    assert all(s[1] <= s[2] for s in spans)
    assert tracer.spans(0) == []


def test_missing_targets_are_listed_not_raised():
    module = types.ModuleType("perfbench_fake_mod")
    module.f = lambda: 1
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        installed = install_spans(tracer, [
            ("fake.f", module.__name__, "f"),
            ("fake.g", module.__name__, "g"),
            ("fake.h", "perfbench_no_such_module", "h"),
        ], Installation())
        assert installed.missing == [f"{module.__name__}.g", "perfbench_no_such_module.h"]
        assert module.f() == 1 and len(tracer.start) == 1
        installed.remove()
        module.f()
        assert len(tracer.start) == 1
    finally:
        del sys.modules[module.__name__]


def test_wrappers_sit_on_the_names_callers_look_up(tmp_path):
    """Every target exists, and one traced simulate call of a tiny config yields
    engine event counts that equal the kinds in its event log."""
    originals = {(m, p): _lookup(m, p) for _, m, p, *_ in TARGETS}
    config = tiny_config(tmp_path)
    tracer = Tracer()
    installed = install_spans(tracer, TARGETS, Installation())
    try:
        assert installed.missing == []
        assert cascsim.engine.select_batch_size is not originals[
            ("cascsim.engine", "select_batch_size")]
        code = cascsim.cli.main(["simulate", "--config", str(config), "--out",
                                 str(tmp_path / "out"), "--event-log", "--seed-list", "3"])
    finally:
        installed.remove()
    assert code == 0
    assert all(_lookup(m, p) is fn for (m, p), fn in originals.items())

    spans = tracer.spans(0)
    names = {s[0] for s in spans}
    for expected in ("cli.main", "config.load_config", "config.resolve_initial_thresholds",
                     "engine.run_simulation", "server.select_batch_size", "server.enqueue",
                     "server.dequeue_batch", "scheduler.tick", "metrics.build_report",
                     "metrics.to_json", "metrics.mean_report"):
        assert expected in names, expected
    (engine,) = [s for s in spans if s[0] == "engine.run_simulation"]
    assert engine[3] == next(s[4] for s in spans if s[0] == "cli.main")

    report = json.loads((tmp_path / "out" / "report_seed3.json").read_text())
    counts = [{k: report[k] for k in ("samples_finalized", "samples_local",
                                      "samples_served", "samples_in_flight")}]
    logged: dict[str, int] = {}
    for line in (tmp_path / "out" / "events_seed3.tsv").read_text().splitlines():
        kind = cascsim.engine.parse_event_log_line(line).kind
        logged[kind] = logged.get(kind, 0) + 1
    derived = event_counts(counts, tracer.counters)
    assert {f"device_{k}" if k == "sample_done" else k: v for k, v in derived.items()} == {
        k: v for k, v in logged.items() if k != "run_end"}

    metrics = body_metrics(spans, tracer.counters, counts, 4, 0)
    assert metrics["engine.runs"] == 1
    assert 0 < metrics["engine.self_s"] < metrics["engine.run_s"]
    assert metrics["engine.events"] == sum(logged.values()) - 1
    assert 0 < metrics["server.batch_fill"] <= 1


def _lookup(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj

"""The event log's text: format v3 lines and payloads, and chunk edges that change no byte.

The log is formatted one chunk of processing order at a time, in this process.
Every chunk size must give the same text, in pieces that each end a line, and an
iterator closed or dropped early must leave no process or open file behind.
"""

import json
import os
import tracemalloc
from importlib import resources

import pytest

from cascsim import eventlog
from cascsim.config import config_from_dict
from cascsim.engine import DeviceLayout, _Run, parse_event_log_line, run_simulation

from conftest import replay_decisions

PAYLOAD_KEYS = {
    "device_sample_done": {"decision", "device", "sample"},
    "request_arrival": {"device", "queue_len", "sample"},
    "batch_complete": {"batch_size", "launched_ms", "queue_len", "samples"},
    "response_arrival": {"batch_size", "samples"},
    "scheduler_tick": {"b_bar", "capacity", "flush", "queue_len", "updates"},
    "threshold_applied": {"device", "reason", "threshold"},
    "run_end": {"finalized", "local", "makespan_ms", "served"},
}


def heterog_doc(zero_delay=False):
    """The heterog preset on 1000-sample traces, optionally with no network delay and
    aligned starts, where requests, responses and updates land at their pusher's instant."""
    doc = json.loads(resources.files("cascsim").joinpath(
        "presets", "heterog_inceptionv3.json").read_text(encoding="utf-8"))
    for group in doc["fleet"]:
        group["trace"]["synthetic"]["count"] = 1000
    doc["scheduler"]["calibration"]["count"] = 1000
    if zero_delay:
        doc["network"] = {"uplink_ms": 0.0, "downlink_ms": 0.0}
        doc["sim"]["start_phase"] = "aligned"
    return doc


@pytest.mark.parametrize("zero_delay", [False, True])
def test_v3_payloads(zero_delay):
    """Every line is exactly time, kind and payload, each kind's payload has exactly its
    v3 keys, and every decision replays from the trace at the threshold the log's own
    lines put in force."""
    cfg = config_from_dict(heterog_doc(zero_delay)).with_device_count(12)
    report = run_simulation(cfg, seed=1, collect_event_log=True)
    lines = "".join(report.event_log).splitlines()
    assert all(len(line.split("\t")) == 3 for line in lines)
    events = [parse_event_log_line(line) for line in lines]
    keys = {}
    for event in events:
        keys.setdefault(event.kind, set()).add(frozenset(event.payload))
    assert keys == {kind: {frozenset(names)} for kind, names in PAYLOAD_KEYS.items()}
    assert [event.kind for event in events].count("run_end") == 1
    assert events[-1].kind == "run_end"
    forwarded = replay_decisions(cfg, cfg.build_traces(1), events)
    assert len(forwarded) == report.samples_finalized
    assert sum(forwarded) == report.samples_served


@pytest.mark.parametrize("zero_delay", [False, True])
def test_chunk_edges_change_no_byte(monkeypatch, zero_delay):
    """The same text, in pieces that each end a line: at 256-event chunks, at chunks
    that make the log exactly one chunk or one event short of it, and at a chunk edge
    between a batch's completion and its response."""
    cfg = config_from_dict(heterog_doc(zero_delay)).with_device_count(12)

    def text(chunk):
        with monkeypatch.context() as patch:
            patch.setattr(eventlog, "_CHUNK", chunk)
            pieces = list(run_simulation(cfg, seed=1, collect_event_log=True).event_log)
        assert all(piece.endswith("\n") for piece in pieces)
        return "".join(pieces)

    small = text(256)
    kinds = [parse_event_log_line(line).kind
             for line in small.splitlines()[:-1]]  # run_end aside
    events = len(kinds)
    assert events > 4 * 256
    # a chunk edge that falls while a batch completed before it is in flight
    completions, responses = ([i for i, kind in enumerate(kinds) if kind == name]
                              for name in ("batch_complete", "response_arrival"))
    in_flight = next(c + 1 for c, r in zip(completions, responses) if 2 * c >= events and r > c)
    for chunk in (events, events - 1, in_flight):
        assert text(chunk) == small, chunk


def test_building_the_log_holds_few_event_columns():
    """``_Log`` lets each event-sized array go once read and drops the event times
    before it makes the push table, so building it peaks, above the finished run, at
    no more than 5.5 int64 columns of one entry per event (4.6 here; 6.2 when the
    times lived beside the push table).
    12 heterogeneous devices on 1300-sample traces; a first build keeps first-call
    costs out."""
    doc = heterog_doc()
    for group in doc["fleet"]:
        group["trace"]["synthetic"]["count"] = 1300
    cfg = config_from_dict(doc).with_device_count(12)
    run = _Run(cfg, DeviceLayout(cfg, cfg.build_traces(1)), 1, False)
    run.run()
    columns = 8 * sum(len(times) for times in run.times)  # bytes of one int64 column
    eventlog._Log(run, {})
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        eventlog._Log(run, {})
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * columns, peak / columns


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@pytest.mark.parametrize("finish", ["close", "drop"])
def test_an_unfinished_log_leaves_no_process_or_file(monkeypatch, finish):
    """Reading one piece and then closing or dropping the log forks nothing and leaves
    no file open, and that piece is the start of the whole log."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    monkeypatch.setattr(eventlog, "_CHUNK", 256)
    cfg = config_from_dict(heterog_doc()).with_device_count(12)
    fds = open_fds()
    log = run_simulation(cfg, seed=1, collect_event_log=True).event_log
    first = next(log)
    assert first.endswith("\n")
    if finish == "close":
        log.close()
    else:
        del log
    assert not forked
    assert open_fds() == fds
    whole = "".join(run_simulation(cfg, seed=1, collect_event_log=True).event_log)
    assert len(first) < len(whole) and whole.startswith(first)

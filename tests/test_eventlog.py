"""The event log's forked helper: one child formats the second half of a long log.

The helper must change no byte of the log, and no process or temporary file may
outlive the log's iterator, whether it is read to the end, closed early,
dropped, or its helper fails.
"""

import json
import os
from importlib import resources

import pytest

from cascsim import eventlog
from cascsim.cli import main
from cascsim.config import config_from_dict
from cascsim.engine import run_simulation


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


@pytest.fixture
def forks(monkeypatch):
    """Count the forks the log makes."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("zero_delay", [False, True])
def test_the_helper_changes_no_byte(monkeypatch, forks, zero_delay):
    """With the helper and without it (one usable CPU), the same text, in pieces that
    each end a line: at 256-event chunks, and at chunks that make the log exactly one chunk (no fork) or two, one
    of them split between a batch's completion and its response."""
    cfg = config_from_dict(heterog_doc(zero_delay)).with_device_count(12)

    def text(chunk, cpus):
        with monkeypatch.context() as patch:
            patch.setattr(eventlog, "_CHUNK", chunk)
            patch.setattr(eventlog, "_usable_cpus", lambda: cpus)
            pieces = list(run_simulation(cfg, seed=1, collect_event_log=True).event_log)
        assert all(piece.endswith("\n") for piece in pieces)
        return "".join(pieces)

    alone = text(256, 1)
    kinds = [line.split("\t", 3)[2] for line in alone.splitlines()[:-1]]  # run_end aside
    events = len(kinds)
    assert not forks and events > 4 * 256
    # a second chunk that starts while a batch completed in the first is in flight
    completions, responses = ([i for i, kind in enumerate(kinds) if kind == name]
                              for name in ("batch_complete", "response_arrival"))
    in_flight = next(c + 1 for c, r in zip(completions, responses) if 2 * c >= events and r > c)
    for chunk, forked in ((256, 1), (events, 0), (events - 1, 1), (in_flight, 1)):
        del forks[:]
        assert text(chunk, 2) == alone, chunk
        assert len(forks) == forked, chunk
    assert_no_child_left()


@pytest.mark.parametrize("finish", ["close", "drop"])
def test_an_unfinished_log_leaves_no_process_or_file(monkeypatch, forks, finish):
    monkeypatch.setattr(eventlog, "_CHUNK", 256)
    monkeypatch.setattr(eventlog, "_usable_cpus", lambda: 2)
    cfg = config_from_dict(heterog_doc()).with_device_count(12)
    fds = open_fds()
    log = run_simulation(cfg, seed=1, collect_event_log=True).event_log
    assert next(log).endswith("\n")
    assert len(forks) == 1
    if finish == "close":
        log.close()
    else:
        del log
    assert_no_child_left()
    assert open_fds() == fds


def failing_in_child(monkeypatch):
    """Make the range formatter raise in any process but this one, after its first
    piece, whose lines the spill must not keep."""
    parent, pieces = os.getpid(), eventlog._Log.pieces

    def failing(self, lo, hi):
        for piece in pieces(self, lo, hi):
            yield piece
            if os.getpid() != parent:
                raise RuntimeError("the helper fails")

    monkeypatch.setattr(eventlog._Log, "pieces", failing)
    monkeypatch.setattr(eventlog, "_CHUNK", 256)
    monkeypatch.setattr(eventlog, "_usable_cpus", lambda: 2)


def test_a_failed_helper_fails_the_log(monkeypatch, forks):
    failing_in_child(monkeypatch)
    cfg = config_from_dict(heterog_doc()).with_device_count(12)
    log = run_simulation(cfg, seed=1, collect_event_log=True).event_log
    with pytest.raises(ChildProcessError,
                       match=r"exit code 1: RuntimeError\('the helper fails'\)$"):
        for _ in log:
            pass
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failed_helper_writes_no_events_file(tmp_path, monkeypatch, capsys, forks):
    """``simulate --event-log`` exits 1 with the helper's JSON error, and leaves the
    report but neither the events file nor its temporary file."""
    failing_in_child(monkeypatch)
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(heterog_doc()), encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--devices", "12", "--seed-list", "1",
                 "--out", str(out), "--event-log"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ChildProcessError"
    assert err["message"].endswith("exit code 1: RuntimeError('the helper fails')")
    assert sorted(p.name for p in out.iterdir()) == ["report_seed1.json"]
    assert json.loads((out / "report_seed1.json").read_text())["seed"] == 1
    assert_no_child_left()

"""Event-log stream: every event of a finished run as one line, in processing order.

A line is ``time<TAB>sequence<TAB>kind<TAB>payload``, the payload JSON with
sorted keys. The lines are made after the run from the engine's per-sample
columns and per-batch and per-tick records, which hold every event: a run ends
when every sample is final and the control loop has nothing left to deliver.
The engine's push table and ``processing_order`` order the lines. A line's
sequence number is its event's rank in push order, from 1: the initial pushes
first, by position, then every other event by its pusher's processing place and
its position among that pusher's pushes, which is the counter a heap-driven loop
stamps on each push. ``push_rank`` finds it from push counts, with no sort: the
pushes of every pusher placed earlier, plus the event's position. The closing
``run_end`` line sits at the last event's time and takes the next number.

The log is yielded as newline-terminated pieces of whole lines, formatted as
they are read, one ``_CHUNK`` of processing order at a time. Within a stream,
index order is processing order, so a chunk holds one index range of each
stream: only those rows are formatted, then merged. The text between a
sample's or request's sequence number and its last fields is made once per
device (and decision), and a chunk's batch sample lists are joined from one
``[device, sample]`` text per request.

Format v2: a ``device_sample_done`` payload is ``decision``, ``device`` and
``sample``. Its confidence gap is the trace's, and the threshold in force is
the device's initial one until its latest earlier ``threshold_applied`` line.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .engine import (BC, EVENT_BATCH_COMPLETE, EVENT_DEVICE_SAMPLE_DONE, EVENT_REQUEST_ARRIVAL,
                     EVENT_RESPONSE_ARRIVAL, EVENT_RUN_END, EVENT_SCHEDULER_TICK,
                     EVENT_THRESHOLD_APPLIED, RA, RESP, SD, TA, TICK, processing_order)
from .metrics import MetricsReport

_CHUNK = 1 << 12  # events formatted per step, which bounds the temporary Python objects


def rebuild_event_log(run, report: MetricsReport) -> Iterator[str]:
    """Every event of ``run`` as a log line, in processing order, then run_end: one pass,
    in newline-terminated pieces of whole lines."""
    # the run_end payload: the iterator holds no report, so a report that holds the
    # iterator is freed by its count, not by a cycle collection
    return _stream(run, {"finalized": report.samples_finalized,
                         "local": report.samples_local,
                         "served": report.samples_served,
                         "in_flight": report.samples_in_flight,
                         "makespan_ms": report.makespan_ms})


def _stream(run, end: dict) -> Iterator[str]:
    log = _Log(run, end)
    yield from log.pieces(0, log.order.size)
    yield log.end_line


def push_rank(up: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each event's rank in push order, from 1, given its pusher's processing place
    (-1 for an initial push) and its position among that pusher's pushes: the
    counter a heap stamps on each push. A pusher's positions run 0..k-1, so the
    rank is the count of pushes by every pusher placed earlier (the initial
    pushes first), plus the position, plus one."""
    pushes = np.bincount(up + 1)  # the initial pushes, then each place's pushes
    earlier = np.zeros(pushes.size + 1, dtype=np.int64)  # pushes before each place; 0 at -1
    np.cumsum(pushes, out=earlier[:-1])
    del pushes
    rank = earlier[up]
    rank += pos
    rank += 1
    return rank


class _Log:
    """The columns a finished run's event log is formatted from, in processing order."""

    def __init__(self, run, end: dict):
        self.run = run
        base = np.cumsum([0] + [len(t) for t in run.times])
        times = np.concatenate([np.asarray(t, dtype=np.float64) for t in run.times])
        parent, pos = run.push_table()
        order, place = processing_order(times, parent, pos)
        end_time = float(times[order[-1]])
        del times  # each array goes once read, which keeps the peak near the run's own
        # queue length after each arrival, and at each batch completion before it
        # relaunches: arrivals so far less the batches launched by an earlier event
        launch = place[parent[base[BC]:base[BC + 1]]]  # each batch's pusher's place, increasing
        ra_place, bc_place = place[base[RA]:base[RA + 1]], place[base[BC]:base[BC + 1]]
        first = np.cumsum([0] + run.bc_size)  # each batch's first request
        self.ra_queue = (np.arange(1, ra_place.size + 1)
                         - first[np.searchsorted(launch, ra_place)])
        self.bc_queue = (np.searchsorted(ra_place, bc_place)
                         - first[np.searchsorted(launch, bc_place)])
        del ra_place, bc_place, launch
        up = place[parent]  # each event's pusher's place, -1 for an initial push
        up[parent < 0] = -1
        del place, parent
        seq = push_rank(up, pos)
        del up, pos

        self.base, self.order, self.first = base, order, first
        self.ra_sd = np.asarray(run.ra_sd, dtype=np.int64)
        self.seqs = [seq[base[s]:base[s + 1]] for s in range(6)]
        self.updates = [update for tick in run.ticks for update in tick[3]]  # one per application
        # the text between a line's sequence number and its last field, per device (and
        # decision: ``sd_mid[2 * device + forwarded]``)
        devices = range(run.layout.n_devices)
        self.sd_mid = [f'\t{EVENT_DEVICE_SAMPLE_DONE}\t{{"decision": "{decision}", '
                       f'"device": {d}, "sample": '
                       for d in devices for decision in ("keep_local", "forward")]
        self.ra_mid = [f'\t{EVENT_REQUEST_ARRIVAL}\t{{"device": {d}, "queue_len": '
                       for d in devices]
        self.end_line = (f"{end_time!r}\t{seq.size + 1}\t{EVENT_RUN_END}\t"
                         + json.dumps(end, sort_keys=True) + "\n")

    def batch_samples(self, start: int, stop: int) -> list[str]:
        """Each batch's samples in ``[start, stop)`` as JSON text of (device, sample) pairs."""
        layout, first = self.run.layout, self.first
        rows = self.ra_sd[first[start]:first[stop]]
        pairs = [f"[{d}, {i}]"
                 for d, i in zip(layout.sd_dev[rows].tolist(), layout.sd_index[rows].tolist())]
        ends = (first[start:stop + 1] - first[start]).tolist()
        return ["[" + ", ".join(pairs[i:j]) + "]" for i, j in zip(ends, ends[1:])]

    def pieces(self, lo: int, hi: int) -> Iterator[str]:
        """Lines ``[lo, hi)`` of processing order, one newline-terminated piece per chunk."""
        run, layout, ra_sd, seqs, updates = (self.run, self.run.layout, self.ra_sd, self.seqs,
                                             self.updates)
        sd_mid, ra_mid = self.sd_mid, self.ra_mid
        base, order = self.base, self.order
        start = np.bincount(np.searchsorted(base, order[:lo], "right") - 1, minlength=6)
        for at in range(lo, hi, _CHUNK):
            flat = order[at:min(at + _CHUNK, hi)]
            stream = np.searchsorted(base, flat, "right") - 1
            count = np.bincount(stream, minlength=6)
            a, b = start.tolist(), (start + count).tolist()
            sd, ra, bc, resp, tick, ta = (slice(x, y) for x, y in zip(a, b))
            mids = map(sd_mid.__getitem__, (layout.sd_dev[sd] * 2 + run.forward[sd]).tolist())
            lines = [f"{t!r}\t{s}{mid}{i}}}\n"
                     for t, s, mid, i in zip(layout.sd_time[sd].tolist(), seqs[SD][sd].tolist(),
                                             mids, layout.sd_index[sd].tolist())]
            lines += [f'{t!r}\t{s}{mid}{q}, "sample": {i}}}\n'
                      for t, s, mid, q, i in zip(
                          run.ra_time[ra], seqs[RA][ra].tolist(),
                          map(ra_mid.__getitem__, layout.sd_dev[ra_sd[ra]].tolist()),
                          self.ra_queue[ra].tolist(), layout.sd_index[ra_sd[ra]].tolist())]
            # batches respond in the order they complete, each after its completion, so
            # one range holds the samples of every batch that completes or responds here
            samples = self.batch_samples(resp.start, bc.stop)
            lines += [f'{t!r}\t{s}\t{EVENT_BATCH_COMPLETE}\t{{"batch_size": {size}, '
                      f'"launched_ms": {launched!r}, "queue_len": {q}, '
                      f'"samples": {batch}}}\n'
                      for batch, t, s, size, launched, q in zip(
                          samples[bc.start - resp.start:], run.bc_time[bc],
                          seqs[BC][bc].tolist(), run.bc_size[bc], run.bc_launch[bc],
                          self.bc_queue[bc].tolist())]
            lines += [f'{t!r}\t{s}\t{EVENT_RESPONSE_ARRIVAL}\t{{"batch_size": {size}, '
                      f'"samples": {batch}}}\n'
                      for t, s, size, batch in zip(run.resp_time[resp], seqs[RESP][resp].tolist(),
                                                  run.bc_size[resp], samples)]
            for k, s in zip(range(tick.start, tick.stop), seqs[TICK][tick].tolist()):
                queue_len, b_bar, flush, tick_updates = run.ticks[k]
                lines.append(f"{run.tick_time[k]!r}\t{s}\t{EVENT_SCHEDULER_TICK}\t" + json.dumps(
                    {"queue_len": queue_len, "b_bar": b_bar, "capacity": run.capacity,
                     "flush": flush, "updates": tick_updates}, sort_keys=True) + "\n")
            lines += [f'{t!r}\t{s}\t{EVENT_THRESHOLD_APPLIED}\t{{"device": {d}, "reason": '
                      f'"{r}", "threshold": {v!r}}}\n'
                      for t, s, (d, v, r) in zip(run.ta_time[ta], seqs[TA][ta].tolist(),
                                                 updates[ta])]
            # an event's line sits at its index less its stream's first row, plus the
            # lines of the streams before it
            shift = base[:-1] + start - (np.cumsum(count) - count)
            yield "".join(map(lines.__getitem__, (flat - shift[stream]).tolist()))
            start += count

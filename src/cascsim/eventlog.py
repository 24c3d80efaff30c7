"""Event-log stream: every event of a finished run as one line, in processing order.

A line is ``time<TAB>sequence<TAB>kind<TAB>payload``, the payload JSON with
sorted keys. The lines are made after the run from the engine's per-sample
columns and per-batch and per-tick records, which hold every event: a run ends
when every sample is final and the control loop has nothing left to deliver.
The engine's push table and ``processing_order`` order the lines. A line's
sequence number is its event's rank in push order (``push_rank``), from 1: the
initial pushes first, by position, then every other event by its pusher's
processing place and its position among that pusher's pushes, which is the
counter a heap-driven loop stamps on each push. The closing ``run_end`` line
sits at the last event's time and takes the next number.

The lines are formatted as they are read, one ``_CHUNK`` of processing order at
a time. Within a stream, index order is processing order, so a chunk holds one
index range of each stream: only those rows are formatted, then merged.
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .engine import (BC, EVENT_BATCH_COMPLETE, EVENT_DEVICE_SAMPLE_DONE, EVENT_REQUEST_ARRIVAL,
                     EVENT_RESPONSE_ARRIVAL, EVENT_RUN_END, EVENT_SCHEDULER_TICK,
                     EVENT_THRESHOLD_APPLIED, RA, RESP, SD, TA, TICK, processing_order,
                     push_rank)
from .metrics import MetricsReport

_CHUNK = 1 << 12  # events formatted per step, which bounds the temporary Python objects


def rebuild_event_log(run, report: MetricsReport) -> Iterator[str]:
    """Every event of ``run`` as a log line, in processing order, then run_end: one pass."""
    base = np.cumsum([0] + [len(t) for t in run.times])
    times = np.concatenate([np.asarray(t, dtype=np.float64) for t in run.times])
    parent, pos = run.push_table()
    order, place = processing_order(times, parent, pos)
    end_time = float(times[order[-1]])
    del times  # each array goes once read, which keeps the peak near the run's own
    seq = push_rank(place, parent, pos)
    # queue length after each arrival, and at each batch completion before it
    # relaunches: arrivals so far less the batches launched by an earlier event
    launch = place[parent[base[BC]:base[BC + 1]]]  # each batch's pusher's place, increasing
    del parent, pos
    ra_place, bc_place = place[base[RA]:base[RA + 1]], place[base[BC]:base[BC + 1]]
    first = np.cumsum([0] + run.bc_size)  # each batch's first request
    ra_queue = np.arange(1, ra_place.size + 1) - first[np.searchsorted(launch, ra_place)]
    bc_queue = np.searchsorted(ra_place, bc_place) - first[np.searchsorted(launch, bc_place)]
    del place, ra_place, bc_place, launch

    layout, ra_sd = run.layout, np.asarray(run.ra_sd, dtype=np.int64)
    seqs = [seq[base[s]:base[s + 1]] for s in range(6)]
    updates = [update for tick in run.ticks for update in tick[3]]  # one per application
    samples: dict[int, str] = {}  # each batch's samples as JSON text, completion to response
    start = np.zeros(6, dtype=np.int64)  # each stream's first row not yet formatted
    for lo in range(0, order.size, _CHUNK):
        flat = order[lo:lo + _CHUNK]
        stream = np.searchsorted(base, flat, "right") - 1
        count = np.bincount(stream, minlength=6)
        a, b = start.tolist(), (start + count).tolist()
        sd, ra, bc, resp, tick, ta = (slice(x, y) for x, y in zip(a, b))
        codes, th = np.unique(run.applied[sd].view(np.int64), return_inverse=True)
        text = [repr(v) for v in codes.view(np.float64).tolist()]  # each distinct threshold
        lines = [
            f'{t!r}\t{s}\t{EVENT_DEVICE_SAMPLE_DONE}\t{{"bvsb": {v!r}, "decision": '
            f'"{"forward" if f else "keep_local"}", "device": {d}, "sample": {i}, '
            f'"threshold": {text[k]}}}'
            for t, s, v, f, d, i, k in zip(
                layout.sd_time[sd].tolist(), seqs[SD][sd].tolist(), layout.sd_bvsb[sd].tolist(),
                run.forward[sd].tolist(), layout.sd_dev[sd].tolist(),
                layout.sd_index[sd].tolist(), th.tolist())]
        lines += [f'{t!r}\t{s}\t{EVENT_REQUEST_ARRIVAL}\t{{"device": {d}, "queue_len": {q}, '
                  f'"sample": {i}}}'
                  for t, s, d, q, i in zip(
                      run.ra_time[ra], seqs[RA][ra].tolist(), layout.sd_dev[ra_sd[ra]].tolist(),
                      ra_queue[ra].tolist(), layout.sd_index[ra_sd[ra]].tolist())]
        rows = ra_sd[first[bc.start]:first[bc.stop]]
        pairs = list(zip(layout.sd_dev[rows].tolist(), layout.sd_index[rows].tolist()))
        ends = (first[bc.start:bc.stop + 1] - first[bc.start]).tolist()
        for k, i, j in zip(range(bc.start, bc.stop), ends, ends[1:]):
            samples[k] = json.dumps(pairs[i:j])
        lines += [f'{t!r}\t{s}\t{EVENT_BATCH_COMPLETE}\t{{"batch_size": {size}, '
                  f'"launched_ms": {launched!r}, "queue_len": {q}, "samples": {samples[k]}}}'
                  for k, t, s, size, launched, q in zip(
                      range(bc.start, bc.stop), run.bc_time[bc], seqs[BC][bc].tolist(),
                      run.bc_size[bc], run.bc_launch[bc], bc_queue[bc].tolist())]
        lines += [f'{t!r}\t{s}\t{EVENT_RESPONSE_ARRIVAL}\t{{"batch_size": {size}, '
                  f'"samples": {samples.pop(k)}}}'
                  for k, t, s, size in zip(range(resp.start, resp.stop), run.resp_time[resp],
                                           seqs[RESP][resp].tolist(), run.bc_size[resp])]
        for k, s in zip(range(tick.start, tick.stop), seqs[TICK][tick].tolist()):
            queue_len, b_bar, flush, tick_updates = run.ticks[k]
            lines.append(f"{run.tick_time[k]!r}\t{s}\t{EVENT_SCHEDULER_TICK}\t" + json.dumps(
                {"queue_len": queue_len, "b_bar": b_bar, "capacity": run.capacity,
                 "flush": flush, "updates": tick_updates}, sort_keys=True))
        lines += [f'{t!r}\t{s}\t{EVENT_THRESHOLD_APPLIED}\t{{"device": {d}, "reason": '
                  f'"{r}", "threshold": {v!r}}}'
                  for t, s, (d, v, r) in zip(run.ta_time[ta], seqs[TA][ta].tolist(), updates[ta])]
        # an event's line sits at its index less its stream's first row, plus the
        # lines of the streams before it
        shift = base[:-1] + start - (np.cumsum(count) - count)
        yield from map(lines.__getitem__, (flat - shift[stream]).tolist())
        start += count
    yield (f"{end_time!r}\t{seq.size + 1}\t{EVENT_RUN_END}\t"
           + json.dumps({"finalized": report.samples_finalized,
                         "local": report.samples_local,
                         "served": report.samples_served,
                         "in_flight": report.samples_in_flight,
                         "makespan_ms": report.makespan_ms}, sort_keys=True))

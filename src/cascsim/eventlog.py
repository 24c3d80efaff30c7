"""Event-log rebuild: every event of a finished run as one line, in processing order.

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
"""

from __future__ import annotations

import json

import numpy as np

from .engine import (BC, EVENT_BATCH_COMPLETE, EVENT_DEVICE_SAMPLE_DONE, EVENT_REQUEST_ARRIVAL,
                     EVENT_RESPONSE_ARRIVAL, EVENT_RUN_END, EVENT_SCHEDULER_TICK,
                     EVENT_THRESHOLD_APPLIED, RA, processing_order, push_rank)
from .metrics import MetricsReport

_CHUNK = 1 << 14  # rows formatted per step, which bounds the temporary Python objects


def rebuild_event_log(run, report: MetricsReport) -> list[str]:
    """Every event of ``run`` as a log line, in processing order, then run_end."""
    base = np.cumsum([0] + [len(t) for t in run.times])
    times = np.concatenate([np.asarray(t, dtype=np.float64) for t in run.times])
    parent, pos = run.push_table()
    order = processing_order(times, parent, pos)
    seq = push_rank(order, parent, pos)
    sd_seq, ra_seq, bc_seq, resp_seq, tick_seq, ta_seq = (
        seq[base[s]:base[s + 1]] for s in range(6))

    # queue length after each arrival, and at each batch completion before it
    # relaunches: arrivals so far minus earlier dequeues
    arrivals = np.zeros_like(seq)
    arrivals[base[RA]:base[RA + 1]] = 1
    dequeues = np.zeros_like(seq)
    dequeues[parent[base[BC]:base[BC + 1]]] = run.bc_size  # each launch, at its pusher
    queue_after = np.empty_like(seq)
    queue_after[order] = np.cumsum(arrivals[order]) - (np.cumsum(dequeues[order])
                                                       - dequeues[order])
    ra_sd = np.asarray(run.ra_sd, dtype=np.int64)

    lines: list[str] = []
    for lo in range(0, run.total_samples, _CHUNK):
        hi = min(lo + _CHUNK, run.total_samples)
        lines += [
            f'{t!r}\t{s}\t{EVENT_DEVICE_SAMPLE_DONE}\t{{"bvsb": {b!r}, "decision": '
            f'"{"forward" if f else "keep_local"}", "device": {d}, "sample": {i}, '
            f'"threshold": {th!r}}}'
            for t, s, b, f, d, i, th in zip(
                run.layout.sd_time[lo:hi].tolist(), sd_seq[lo:hi].tolist(),
                run.layout.sd_bvsb[lo:hi].tolist(), run.forward[lo:hi].tolist(),
                run.layout.sd_dev[lo:hi].tolist(), run.layout.sd_index[lo:hi].tolist(),
                run.applied[lo:hi].tolist())]
    ra_dev = run.layout.sd_dev[ra_sd].tolist()
    ra_index = run.layout.sd_index[ra_sd].tolist()
    lines += [f'{t!r}\t{s}\t{EVENT_REQUEST_ARRIVAL}\t{{"device": {d}, "queue_len": {q}, '
              f'"sample": {i}}}'
              for t, s, d, q, i in zip(run.ra_time, ra_seq.tolist(), ra_dev,
                                       queue_after[base[RA]:base[RA + 1]].tolist(),
                                       ra_index)]
    # each batch's samples as JSON text, once for its completion and its response
    first = np.cumsum([0] + run.bc_size).tolist()
    samples = [json.dumps([[d, i] for d, i in zip(ra_dev[lo:hi], ra_index[lo:hi])])
               for lo, hi in zip(first[:-1], first[1:])]
    lines += [f'{t!r}\t{s}\t{EVENT_BATCH_COMPLETE}\t{{"batch_size": {size}, '
              f'"launched_ms": {launched!r}, "queue_len": {q}, "samples": {text}}}'
              for t, s, size, launched, q, text in zip(
                  run.bc_time, bc_seq.tolist(), run.bc_size, run.bc_launch,
                  queue_after[base[BC]:base[BC + 1]].tolist(), samples)]
    lines += [f'{t!r}\t{s}\t{EVENT_RESPONSE_ARRIVAL}\t{{"batch_size": {size}, '
              f'"samples": {text}}}'
              for t, s, size, text in zip(run.resp_time, resp_seq.tolist(), run.bc_size,
                                          samples)]
    for k, s in enumerate(tick_seq.tolist()):
        queue_len, b_bar, flush, updates = run.ticks[k]
        lines.append(f"{run.tick_time[k]!r}\t{s}\t{EVENT_SCHEDULER_TICK}\t" + json.dumps(
            {"queue_len": queue_len, "b_bar": b_bar, "capacity": run.capacity,
             "flush": flush, "updates": updates}, sort_keys=True))
    applied = [update for tick in run.ticks for update in tick[3]]  # one per application
    lines += [f'{t!r}\t{s}\t{EVENT_THRESHOLD_APPLIED}\t{{"device": {d}, "reason": '
              f'"{r}", "threshold": {v!r}}}'
              for t, s, (d, v, r) in zip(run.ta_time, ta_seq.tolist(), applied)]

    log: list[str] = []
    for lo in range(0, order.size, _CHUNK):
        log += [lines[i] for i in order[lo:lo + _CHUNK].tolist()]
    del lines
    log.append(f"{float(times[order[-1]])!r}\t{seq.size + 1}\t"
               f"{EVENT_RUN_END}\t"
               + json.dumps({"finalized": report.samples_finalized,
                             "local": report.samples_local,
                             "served": report.samples_served,
                             "in_flight": report.samples_in_flight,
                             "makespan_ms": report.makespan_ms}, sort_keys=True))
    return log

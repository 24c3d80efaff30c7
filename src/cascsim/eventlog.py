"""Event-log rebuild: every event of a finished run as one line, in processing order.

A line is ``time<TAB>sequence<TAB>kind<TAB>payload``, the payload JSON with
sorted keys. The lines are made after the run from the engine's per-sample
columns and per-batch and per-tick records, which hold every event: a run ends
when every sample is final and the control loop has nothing left to deliver.
Events of different streams that share an instant are merged by the engine's
tie rule, and each event's sequence number is its push sequence: the initial
pushes plus every push made before its parent was processed, plus its position
among the parent's pushes. The closing ``run_end`` line sits at the last
event's time.
"""

from __future__ import annotations

import json
from functools import cmp_to_key

import numpy as np

from .engine import (BC, EVENT_BATCH_COMPLETE, EVENT_DEVICE_SAMPLE_DONE, EVENT_REQUEST_ARRIVAL,
                     EVENT_RESPONSE_ARRIVAL, EVENT_RUN_END, EVENT_SCHEDULER_TICK,
                     EVENT_THRESHOLD_APPLIED, RA, RESP, SD, TICK, tie_runs)
from .metrics import MetricsReport

_CHUNK = 1 << 14  # rows formatted per step, which bounds the temporary Python objects


def rebuild_event_log(run, report: MetricsReport) -> list[str]:
    """Every event of ``run`` as a log line, in processing order, then run_end."""
    counts = [len(t) for t in run.times]
    n_sd, n_ra, n_bc, n_resp, n_tick, n_ta = counts
    base = np.concatenate(([0], np.cumsum(counts)))
    layout_time = np.concatenate([np.asarray(t, dtype=np.float64) for t in run.times])
    layout_stream = np.repeat(np.arange(6), counts)
    layout_index = np.arange(base[-1]) - base[layout_stream]
    order = np.lexsort((layout_index, layout_stream, layout_time))

    # same-time events of different streams: merge them by the tie rule
    sorted_time = layout_time[order]
    sorted_stream = layout_stream[order]
    by_rule = cmp_to_key(lambda a, b: -1 if run.precedes(a, b) else 1)
    for lo, hi in tie_runs(sorted_time):
        if sorted_stream[lo:hi].min() != sorted_stream[lo:hi].max():
            refs = sorted(((int(layout_stream[p]), int(layout_index[p]))
                           for p in order[lo:hi]), key=by_rule)
            order[lo:hi] = [base[s] + i for s, i in refs]

    # pushes of each event, then the push count before each one in processing order
    bc_from_ra = np.asarray(run.bc_from_ra, dtype=np.int64)
    bc_size = np.asarray(run.bc_size, dtype=np.int64)
    ra_launch = np.zeros(n_ra, dtype=np.int64)
    ra_launch[bc_from_ra[bc_from_ra >= 0]] = 1
    bc_relaunch = np.append(bc_from_ra[1:] < 0, False).astype(np.int64)[:n_bc]
    tick_updates = np.array([len(t[3]) for t in run.ticks], dtype=np.int64)
    tick_next = (np.arange(n_tick) + 1 < n_tick).astype(np.int64)
    sd_forward = run.forward.astype(np.int64)
    pushes = np.concatenate((sd_forward + ~run.layout.sd_last, ra_launch, 1 + bc_relaunch,
                             np.zeros(n_resp, dtype=np.int64), tick_updates + tick_next,
                             np.zeros(n_ta, dtype=np.int64)))
    ordered = pushes[order]
    before = np.empty_like(pushes)
    before[order] = run.n_devices + 1 + np.cumsum(ordered) - ordered

    def seq(stream, index, pos):
        return before[base[stream] + np.asarray(index, dtype=np.int64)] + 1 + pos

    sd_parent = np.maximum(run.layout.sd_parent, 0)
    sd_seq = np.where(run.layout.sd_parent >= 0, seq(SD, sd_parent, sd_forward[sd_parent]),
                      run.layout.sd_dev + 1)
    ra_sd = np.asarray(run.ra_sd, dtype=np.int64)
    ra_seq = seq(SD, ra_sd, 0)
    bc_seq = np.where(bc_from_ra >= 0, seq(RA, np.maximum(bc_from_ra, 0), 0),
                      seq(BC, np.maximum(np.arange(n_bc) - 1, 0), 1))
    resp_seq = seq(BC, np.arange(n_resp), 0)
    tick_seq = np.where(np.arange(n_tick) > 0,
                        seq(TICK, np.maximum(np.arange(n_tick) - 1, 0),
                            np.concatenate(([0], tick_updates))[:n_tick]),
                        run.n_devices + 1)
    ta_seq = seq(TICK, np.asarray(run.ta_tick, dtype=np.int64),
                 np.asarray(run.ta_pos, dtype=np.int64))

    # queue length after each arrival: arrivals so far minus earlier dequeues
    arrivals = (layout_stream == RA).astype(np.int64)
    dequeues = np.zeros_like(arrivals)
    dequeues[base[RA]:base[RA] + n_ra] = ra_launch
    dequeues[base[BC]:base[BC] + n_bc] = bc_relaunch * np.append(bc_size[1:], 0)[:n_bc]
    queue_after = np.empty_like(arrivals)
    queue_after[order] = np.cumsum(arrivals[order]) - (np.cumsum(dequeues[order])
                                                       - dequeues[order])

    lines: list[str] = []
    for lo in range(0, n_sd, _CHUNK):
        hi = min(lo + _CHUNK, n_sd)
        lines += [
            f'{t!r}\t{s}\t{EVENT_DEVICE_SAMPLE_DONE}\t{{"bvsb": {b!r}, "decision": '
            f'"{"forward" if f else "keep_local"}", "device": {d}, "sample": {i}, '
            f'"threshold": {th!r}}}'
            for t, s, b, f, d, i, th in zip(
                run.layout.sd_time[lo:hi].tolist(), sd_seq[lo:hi].tolist(),
                run.layout.sd_bvsb[lo:hi].tolist(), sd_forward[lo:hi].tolist(),
                run.layout.sd_dev[lo:hi].tolist(), run.layout.sd_index[lo:hi].tolist(),
                run.applied[lo:hi].tolist())]
    ra_dev = run.layout.sd_dev[ra_sd].tolist()
    ra_index = run.layout.sd_index[ra_sd].tolist()
    lines += [f'{t!r}\t{s}\t{EVENT_REQUEST_ARRIVAL}\t{{"device": {d}, "queue_len": {q}, '
              f'"sample": {i}}}'
              for t, s, d, q, i in zip(run.ra_time, ra_seq.tolist(), ra_dev,
                                       queue_after[base[RA]:base[RA + 1]].tolist(),
                                       ra_index)]
    first = np.concatenate(([0], np.cumsum(bc_size)))

    def batch_samples(b):
        return [[d, i] for d, i in zip(ra_dev[first[b]:first[b + 1]],
                                       ra_index[first[b]:first[b + 1]])]

    for b, s in enumerate(bc_seq.tolist()):
        lines.append(f"{run.bc_time[b]!r}\t{s}\t{EVENT_BATCH_COMPLETE}\t" + json.dumps(
            {"batch_size": run.bc_size[b], "launched_ms": run.bc_launch[b],
             "queue_len": run.bc_qlen[b], "samples": batch_samples(b)}, sort_keys=True))
    for b, s in enumerate(resp_seq.tolist()):
        lines.append(f"{run.resp_time[b]!r}\t{s}\t{EVENT_RESPONSE_ARRIVAL}\t" + json.dumps(
            {"batch_size": run.bc_size[b], "samples": batch_samples(b)}, sort_keys=True))
    for k, s in enumerate(tick_seq.tolist()):
        queue_len, b_bar, flush, updates = run.ticks[k]
        lines.append(f"{run.tick_time[k]!r}\t{s}\t{EVENT_SCHEDULER_TICK}\t" + json.dumps(
            {"queue_len": queue_len, "b_bar": b_bar, "capacity": run.capacity,
             "flush": flush, "updates": updates}, sort_keys=True))
    lines += [f'{t!r}\t{s}\t{EVENT_THRESHOLD_APPLIED}\t{{"device": {d}, "reason": '
              f'"{r}", "threshold": {v!r}}}'
              for t, s, d, r, v in zip(run.ta_time, ta_seq.tolist(), run.ta_dev,
                                       run.ta_reason, run.ta_value)]

    log: list[str] = []
    for lo in range(0, order.size, _CHUNK):
        log += [lines[i] for i in order[lo:lo + _CHUNK].tolist()]
    del lines
    log.append(f"{float(sorted_time[-1])!r}\t{int(run.n_devices + 2 + pushes.sum())}\t"
               f"{EVENT_RUN_END}\t"
               + json.dumps({"finalized": report.samples_finalized,
                             "local": report.samples_local,
                             "served": report.samples_served,
                             "in_flight": report.samples_in_flight,
                             "makespan_ms": report.makespan_ms}, sort_keys=True))
    return log

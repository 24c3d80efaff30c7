import copy
import heapq
import signal
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascsim import eventlog
from cascsim.config import load_config, preset_names
from cascsim.engine import (
    SD,
    TA,
    DeviceLayout,
    _Run,
    classify_server_state,
    estimate_arrival_rate,
    parse_event_log_line,
    processing_order,
    run_simulation,
)
from cascsim.errors import ConfigError
from cascsim.metrics import SampleColumns
from cascsim.server import BatchLatencyTable

from conftest import (log_lines, make_trace, random_integral_config, replay_decisions,
                      small_config)


def constant_trace(n, bvsb, light=True, heavy=True):
    return make_trace([bvsb] * n, [light] * n, [heavy] * n)


class TestArrivalRate:
    def test_single_device(self):
        assert estimate_arrival_rate([(0.3, 43.0)]) == pytest.approx(0.3 / 0.043)

    def test_no_forwarding_no_arrivals(self):
        assert estimate_arrival_rate([(0.0, 43.0)]) == 0.0

    def test_scales_linearly_with_fleet(self):
        one = estimate_arrival_rate([(0.3, 43.0)])
        ten = estimate_arrival_rate([(0.3, 43.0)] * 10)
        assert ten == pytest.approx(10 * one)

    def test_non_positive_latency_rejected(self):
        """Device latencies come from the fleet config, which a run validates before
        it estimates any arrival rate."""
        for t_inf_ms in (0.0, -43.0):
            cfg = small_config(groups=[("mid", 1, t_inf_ms)], table_entries={1: 15})
            with pytest.raises(ConfigError) as err:
                run_simulation(cfg, {0: make_trace([0.3], [True], [True])}, seed=0)
            assert err.value.field == "fleet[0].t_inf_ms"


class TestServerStateClassification:
    def test_underutilized(self):
        assert classify_server_state(10, 100) == "underutilized"

    def test_equilibrium_at_equality(self):
        assert classify_server_state(100.0, 100.0) == "equilibrium"

    def test_overloaded(self):
        assert classify_server_state(200, 100) == "overloaded"

    def test_throughput_must_be_positive(self):
        """The server throughput is the latency table's peak, and the table refuses
        a latency that would make it zero, infinite or undefined."""
        for latency in (0.0, -15.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError) as err:
                BatchLatencyTable({1: latency})
            assert err.value.field == "batch_latency_table.1"
        assert BatchLatencyTable({1: 15.0, 2: 20.0}).peak_throughput == 100.0


class TestSingleDeviceClosedForms:
    def test_all_local_makespan_and_throughput(self):
        cfg = small_config(groups=[("mid", 1, 43.0)], table_entries={1: 15},
                           threshold=0.0)
        trace = constant_trace(100, bvsb=0.5)
        report = run_simulation(cfg, {0: trace}, seed=0)
        assert report.samples_local == 100
        assert report.samples_served == 0
        assert report.makespan_ms == 4300.0
        assert report.total_throughput == pytest.approx(100 / 4.3)
        assert (report.samples.latency_ms == 43.0).all()

    def test_all_forwarded_steady_state_has_no_wait(self):
        cfg = small_config(groups=[("mid", 1, 43.0)], table_entries={1: 15},
                           threshold=1.0)
        trace = constant_trace(100, bvsb=0.5)
        report = run_simulation(cfg, {0: trace}, seed=0)
        assert report.samples_served == 100
        # local inference 43 ms, zero-delay network, batch-of-1 service 15 ms
        assert report.samples.latency_ms == pytest.approx([58.0] * 100)


class TestValidation:
    def test_empty_fleet_rejected(self):
        cfg = small_config(groups=[], table_entries={1: 15})
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_simulation(cfg, {}, seed=0)

    def test_zero_device_count_rejected(self):
        cfg = small_config(groups=[("mid", 1, 43.0)], table_entries={1: 15})
        with pytest.raises(ConfigError):
            cfg.with_device_count(0)

    def test_device_count_beyond_any_fleet_rejected(self):
        """A count no fleet can hold fails at the flag, before any trace is drawn."""
        with pytest.raises(ConfigError) as info:
            load_config("homog_efflite0_inceptionv3").with_device_count(sys.maxsize + 1)
        assert info.value.field == "--devices"

    def test_missing_trace_rejected(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15})
        with pytest.raises(ConfigError):
            run_simulation(cfg, {0: constant_trace(5, 0.5)}, seed=0)

    def test_empty_bound_trace_rejected(self):
        cfg = small_config(groups=[("mid", 1, 43.0)], table_entries={1: 15})
        with pytest.raises(ConfigError):
            run_simulation(cfg, {0: make_trace([], [], [])}, seed=0)


class TestConservationAndCausality:
    def test_no_sample_lost_or_duplicated(self):
        cfg = small_config(groups=[("mid", 3, 43.0), ("low", 2, 31.0)],
                           table_entries={1: 15, 2: 20, 4: 30}, threshold=0.6,
                           uplink=5.0, downlink=5.0, start_phase="staggered")
        rng = np.random.default_rng(4)
        traces = {i: make_trace(rng.random(200), rng.random(200) < 0.7,
                                rng.random(200) < 0.8) for i in range(5)}
        report = run_simulation(cfg, traces, seed=0)
        assert report.samples_finalized == 1000
        assert report.samples_local + report.samples_served == 1000
        assert report.samples_in_flight == 0
        samples = report.samples
        seen = set(zip(samples.device_id.tolist(), samples.sample_index.tolist()))
        assert len(seen) == 1000

    def test_event_log_is_totally_ordered(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15},
                           threshold=0.6, uplink=5.0, downlink=5.0)
        rng = np.random.default_rng(5)
        traces = {i: make_trace(rng.random(100), rng.random(100) < 0.7,
                                rng.random(100) < 0.8) for i in range(2)}
        report = run_simulation(cfg, traces, seed=0, collect_event_log=True)
        events = [parse_event_log_line(line) for line in log_lines(report)]
        times = [e.time_ms for e in events]
        assert times == sorted(times)

    def test_lifetimes_never_precede_their_start(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15},
                           threshold=0.7, uplink=3.0, downlink=2.0)
        traces = {i: constant_trace(50, 0.4) for i in range(2)}
        report = run_simulation(cfg, traces, seed=0)
        assert (report.samples.completion_ms >= report.samples.start_ms).all()


class TestDeterminism:
    def test_identical_runs_produce_identical_output(self):
        cfg = small_config(groups=[("mid", 3, 43.0)], table_entries={1: 15, 2: 20},
                           kind="multitasc", threshold=0.6, uplink=5.0, downlink=5.0,
                           start_phase="staggered")
        rng = np.random.default_rng(6)
        traces = {i: make_trace(rng.random(300), rng.random(300) < 0.7,
                                rng.random(300) < 0.8) for i in range(3)}
        a = run_simulation(cfg, traces, seed=9, collect_event_log=True)
        b = run_simulation(cfg, traces, seed=9, collect_event_log=True)
        assert log_lines(a) == log_lines(b)
        assert a.to_json() == b.to_json()


class TestStartPhases:
    def test_aligned_devices_start_together(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15},
                           threshold=0.0, start_phase="aligned")
        traces = {i: constant_trace(3, 0.5) for i in range(2)}
        report = run_simulation(cfg, traces, seed=0)
        starts = sorted(set(report.samples.start_ms.tolist()))
        assert starts == [0.0, 43.0, 86.0]

    def test_staggered_devices_spread_phases(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15},
                           threshold=0.0, start_phase="staggered")
        traces = {i: constant_trace(2, 0.5) for i in range(2)}
        report = run_simulation(cfg, traces, seed=0)
        samples = report.samples
        dev0 = samples.start_ms[samples.device_id == 0]
        dev1 = samples.start_ms[samples.device_id == 1]
        assert min(dev0) == 0.0
        assert min(dev1) == pytest.approx(21.5)


class TestRealizedThresholdOracle:
    def test_report_accuracy_matches_offline_replay(self):
        """Replay the logged decisions through the pure cascade functions, each at the
        threshold the log's own ``threshold_applied`` lines put in force."""
        cfg = small_config(groups=[("mid", 3, 43.0)], table_entries={1: 15, 2: 20},
                           kind="multitasc", threshold=0.6, uplink=5.0, downlink=5.0,
                           start_phase="staggered")
        rng = np.random.default_rng(8)
        traces = {i: make_trace(rng.random(400), rng.random(400) < 0.7,
                                rng.random(400) < 0.8) for i in range(3)}
        report = run_simulation(cfg, traces, seed=0, collect_event_log=True)
        events = [parse_event_log_line(line) for line in log_lines(report)]
        assert any(event.kind == "threshold_applied" for event in events)

        forwarded = replay_decisions(cfg, traces, events)
        samples = [(event.payload["device"], event.payload["sample"]) for event in events
                   if event.kind == "device_sample_done"]
        correct = sum(int((traces[d].heavy_correct if f else traces[d].light_correct)[i])
                      for (d, i), f in zip(samples, forwarded))
        assert len(forwarded) == 1200
        assert report.cascade_accuracy == correct / len(forwarded)


class TestMonotoneLoad:
    def test_mean_queue_grows_with_fleet_size(self):
        lengths = []
        for count in (4, 8, 16):
            cfg = small_config(groups=[("mid", count, 43.0)],
                               table_entries={1: 15, 2: 20, 4: 30},
                               threshold=0.6, uplink=5.0, downlink=5.0,
                               start_phase="staggered")
            means = []
            for seed in (1, 2):
                rng = np.random.default_rng(seed)
                traces = {i: make_trace(rng.random(300), rng.random(300) < 0.7,
                                        rng.random(300) < 0.8) for i in range(count)}
                means.append(run_simulation(cfg, traces, seed=seed).mean_queue_length)
            lengths.append(sum(means) / len(means))
        assert lengths[0] <= lengths[1] <= lengths[2]


class TestBaselineEquivalence:
    def test_degenerate_adaptive_matches_static(self):
        """With zero margin, zero fraction and a flush factor no queue reaches, the
        control loop is inert (zero margin and fraction alone still flush)."""
        rng = np.random.default_rng(10)
        traces = {i: make_trace(rng.random(200), rng.random(200) < 0.7,
                                rng.random(200) < 0.8) for i in range(4)}
        static = small_config(groups=[("mid", 4, 43.0)], table_entries={1: 15, 2: 20},
                              kind="static", threshold=0.6, uplink=5.0, downlink=5.0)
        inert = small_config(groups=[("mid", 4, 43.0)], table_entries={1: 15, 2: 20},
                             kind="multitasc", threshold=0.6, uplink=5.0, downlink=5.0,
                             sched_overrides=dict(update_fraction=0.0, margin=0.0,
                                                  flush_factor=1e9))
        a = run_simulation(static, copy.deepcopy(traces), seed=0)
        b = run_simulation(inert, copy.deepcopy(traces), seed=0)
        for name in ("device_id", "sample_index", "completion_ms", "correct"):
            assert np.array_equal(getattr(a.samples, name), getattr(b.samples, name)), name
        assert a.slo_satisfaction == b.slo_satisfaction
        assert a.cascade_accuracy == b.cascade_accuracy


@st.composite
def completion_layouts(draw):
    """Local-completion columns laid out as the engine lays them out, device-major,
    with dense ties: small integral latencies (equal-latency devices are common),
    aligned, staggered or small integral start offsets (so first completions tie
    with later ones), and short traces."""
    n = draw(st.integers(1, 6))
    t_inf = draw(st.lists(st.sampled_from((1.0, 2.0, 3.0, 4.0, 6.0)), min_size=n, max_size=n))
    phase = draw(st.sampled_from(("aligned", "staggered", "integral")))
    offsets = {"aligned": [0.0] * n,
               "staggered": [(d / n) * t for d, t in enumerate(t_inf)],
               "integral": draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0)),
                                         min_size=n, max_size=n))}[phase]
    lengths = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    done = [[o + i * t + t for i in range(k)] for o, t, k in zip(offsets, t_inf, lengths)]
    return n, done


def heap_loop(initial, delays, label):
    """A literal heap-driven loop keyed on (time, push counter) over a push forest:
    the initial pushes at the times ``initial``, then the ``step``-th processed
    event pushes one event per delay in ``delays(step, pushed)`` (``pushed``: the
    events pushed so far), each at its pusher's time plus that delay. Returns the
    events under the labelling ``label(n)`` as ``(times, parent, pos)`` and the
    labels in processing order."""
    times, parent, pos = [], [], []
    heap = []

    def push(t, up, k):
        times.append(t)
        parent.append(up)
        pos.append(k)
        heapq.heappush(heap, (t, len(times), len(times) - 1))  # keyed on the push counter

    for k, t in enumerate(initial):
        push(t, -1, k)
    processed = []
    while heap:
        t, _, e = heapq.heappop(heap)
        for k, delay in enumerate(delays(len(processed), len(times))):
            push(t + delay, e, k)
        processed.append(e)
    label = label(len(times))
    at = np.argsort(label)  # event at each label
    parent = np.array(parent)[at]
    return ((np.array(times, dtype=np.float64)[at],
             np.where(parent >= 0, np.array(label)[parent], -1), np.array(pos)[at]),
            [label[e] for e in processed])


@st.composite
def heap_runs(draw):
    """``heap_loop`` over a random push forest: initial pushes, then up to three
    pushes per processed event, each after a small integral delay, zero included,
    under a random labelling."""
    initial = [draw(st.sampled_from((0, 0, 1, 2))) for _ in range(draw(st.integers(1, 5)))]

    def delays(step, pushed):
        return [draw(st.sampled_from((0, 0, 1, 2, 3)))
                for _ in range(draw(st.integers(0, 3)) if pushed < 40 else 0)]

    return heap_loop(initial, delays, lambda n: draw(st.permutations(range(n))))


def fixed_heap_run(initial, delays, label):
    """``heap_loop`` with each processed event's delays listed by step, none past the list."""
    return heap_loop(initial, lambda step, _: delays[step] if step < len(delays) else (),
                     lambda n: label)


class TestProcessingOrder:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(heap_runs())
    # a run of equal times whose pushers lie in no run, the later-placed pusher
    # and its push labelled first
    @example(fixed_heap_run([1, 2], [(2,), (1,)], [1, 0, 3, 2]))
    # a run whose pushers sit in an earlier run, placed unlike their labels
    @example(fixed_heap_run([0, 0], [(1,), (1,)], [1, 0, 3, 2]))
    # zero-delay pushes in their own pushers' run
    @example(fixed_heap_run([0, 0], [(0,), (0,)], [1, 0, 2, 3]))
    def test_matches_a_heap_keyed_on_time_and_push_counter(self, run):
        (times, parent, pos), expected = run
        order, place = processing_order(times, parent, pos)
        assert order.tolist() == expected
        assert place[order].tolist() == list(range(order.size))

    def test_push_table_is_the_scalar_rule_for_every_event(self):
        """On random integral configs, ``_Run.push_table`` states for every event of
        a finished run what ``_Run._parent`` states for it alone."""
        for trial in range(100):
            cfg, traces = random_integral_config(np.random.default_rng(trial))
            run = _Run(cfg, DeviceLayout(cfg, traces), 0, False)
            run.run()
            parent, pos = run.push_table()
            refs = [(stream, i) for stream in range(SD, TA + 1)
                    for i in range(len(run.times[stream]))]
            flat = {ref: k for k, ref in enumerate(refs)}
            assert parent.size == pos.size == len(refs)
            for k, ref in enumerate(refs):
                up, at = run._parent(ref)
                assert (parent[k], pos[k]) == (-1 if up is None else flat[up], at), ref

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(completion_layouts())
    def test_matches_a_sort_by_the_whole_chain(self, layout):
        """A completion sorts by its time, then its parent's, and so on back to the
        device's first; a chain that reaches its root first sorts first, and equal
        chains go by device id. Python's list order on ``[(0, t_i), ..., (0, t_0),
        (-1, device)]`` is exactly that rule."""
        n, done = layout
        times = np.array([t for ts in done for t in ts])
        device = np.repeat(np.arange(n), [len(ts) for ts in done])
        first = np.concatenate(([0], np.cumsum([len(ts) for ts in done])[:-1]))
        index = np.arange(times.size) - first[device]
        parent = np.where(index > 0, np.arange(times.size) - 1, -1)

        def chain(j):
            d, i = int(device[j]), int(index[j])
            return [(0, t) for t in reversed(done[d][:i + 1])] + [(-1, d)]

        expected = sorted(range(times.size), key=chain)
        assert processing_order(times, parent, device)[0].tolist() == expected


LAYOUT_COLUMNS = ("t_inf", "initial_thresholds", "levels", "sd_time", "sd_start", "sd_dev",
                  "sd_index", "sd_bvsb", "sd_light", "sd_heavy", "sd_parent")


def saturated_preset(name, devices=48, trace_count=400):
    """A shipped preset at ``devices`` devices (enough to saturate every preset's
    server, so the controller acts) with shorter synthetic traces."""
    cfg = load_config(name).with_device_count(devices)
    return replace(cfg, fleet=tuple(replace(g, synthetic=replace(g.synthetic, count=trace_count))
                                    for g in cfg.fleet))


def with_kind(cfg, kind):
    return replace(cfg, scheduler=replace(cfg.scheduler, kind=kind))


class TestDeviceLayout:
    @pytest.mark.parametrize("name", preset_names())
    def test_one_layout_serves_both_schedulers(self, name):
        """Runs on one shared layout equal fresh runs, and leave the layout as it was."""
        cfg = saturated_preset(name)
        layout = DeviceLayout(cfg, cfg.build_traces(1))
        before = {column: getattr(layout, column).copy() for column in LAYOUT_COLUMNS}
        for kind in ("static", "multitasc"):
            shared = run_simulation(with_kind(cfg, kind), seed=1, layout=layout)
            fresh = run_simulation(with_kind(cfg, kind), seed=1)
            assert shared.to_json() == fresh.to_json()
            for column in SampleColumns.__slots__:
                assert np.array_equal(getattr(shared.samples, column),
                                      getattr(fresh.samples, column)), column
        for column in LAYOUT_COLUMNS:
            assert np.array_equal(getattr(layout, column), before[column]), column
            with pytest.raises(ValueError):
                getattr(layout, column)[0] = 0

    def test_a_layout_from_another_source_is_refused(self):
        cfg = saturated_preset("heterog_inceptionv3", devices=6, trace_count=50)
        layout = DeviceLayout(cfg, cfg.build_traces(1))
        fixed = replace(cfg.scheduler, initial_threshold=0.5, calibration=None)
        for other, named in ((cfg.with_device_count(9), "fleet"),
                             (replace(cfg, start_phase="aligned"), "start_phase"),
                             (replace(cfg, scheduler=fixed), "initial_threshold")):
            with pytest.raises(ConfigError, match=named) as err:
                run_simulation(other, seed=1, layout=layout)
            assert err.value.field == "layout"
        with pytest.raises(ConfigError) as err:
            run_simulation(cfg, cfg.build_traces(1), seed=1, layout=layout)
        assert err.value.field == "layout"

    def test_the_build_holds_little_beside_the_columns_it_keeps(self):
        """Each device-major column is dropped once permuted into processing order, so
        building a layout of 20 homogeneous devices on 2,000-sample traces peaks at no
        more than 1.5x the bytes of the columns it keeps (about 2.6x when every
        device-major column lived to the end). A first build keeps the calibration
        and first-call costs out."""
        cfg = saturated_preset("homog_efflite0_inceptionv3", devices=20, trace_count=2000)
        traces, memo = cfg.build_traces(1), {}
        DeviceLayout(cfg, traces, memo)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            layout = DeviceLayout(cfg, traces, memo)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        kept = sum(getattr(layout, column).nbytes for column in LAYOUT_COLUMNS)
        assert peak <= 1.5 * kept, peak / kept

    def test_a_run_keeps_its_request_rows_as_one_array(self):
        """Once a run ends, each of its records is one numpy array: the forwarded
        completions' positions (every one, in order) and every list the loop appended
        to. No attribute is left a list but the per-tick records."""
        cfg = saturated_preset("heterog_inceptionv3", devices=12, trace_count=300)
        run = _Run(cfg, DeviceLayout(cfg, cfg.build_traces(1)), 1, False)
        run.run()
        records = {"ra_sd": np.int64, "ra_time": np.float64, "bc_time": np.float64,
                   "bc_launch": np.float64, "resp_time": np.float64, "tick_time": np.float64,
                   "ta_time": np.float64, "bc_size": np.int64, "bc_from_ra": np.int64,
                   "ta_tick": np.int64}
        for name, dtype in records.items():
            record = getattr(run, name)
            assert type(record) is np.ndarray and record.dtype == dtype, name
        assert run.ra_sd.size == run.ra_time.size > 0 and run.ta_time.size > 0
        assert np.array_equal(run.ra_sd, np.flatnonzero(run.forward))
        assert [name for name, value in vars(run).items() if isinstance(value, list)] == ["ticks"]
        assert all(times is getattr(run, name) for times, name in zip(
            run.times[1:], ("ra_time", "bc_time", "resp_time", "tick_time", "ta_time")))


class TestEventLogChunks:
    """The log is formatted one chunk of processing order at a time. Chunks of 1
    and 7 events give the default chunk's lines, line for line: on every preset
    under both schedulers and on random integral-time fleets, where many events
    tie. Among the cases, a chunk holds a batch's completion but not its
    response, and a chunk holds no row of a stream that has rows."""

    SIZES = (1, 7)

    def test_chunk_edges_change_no_line(self, monkeypatch):
        cases = [(with_kind(saturated_preset(name, trace_count=40), kind), None)
                 for name in preset_names() for kind in ("static", "multitasc")]
        rng = np.random.default_rng(18)
        cases += [random_integral_config(rng) for _ in range(6)]
        batch_split = stream_missed = False
        for cfg, traces in cases:
            logs = {}
            for size in (eventlog._CHUNK, *self.SIZES):
                with monkeypatch.context() as patch:
                    patch.setattr(eventlog, "_CHUNK", size)
                    logs[size] = log_lines(run_simulation(cfg, traces, seed=1,
                                                          collect_event_log=True))
            for size in self.SIZES:
                assert logs[size] == logs[eventlog._CHUNK], size
            kinds = [parse_event_log_line(line).kind
                     for line in logs[7][:-1]]  # run_end stands apart
            chunks = [set(kinds[lo:lo + 7]) for lo in range(0, len(kinds), 7)]
            stream_missed |= any(chunk < set(kinds) for chunk in chunks)
            completions, responses = ([p // 7 for p, kind in enumerate(kinds) if kind == name]
                                      for name in ("batch_complete", "response_arrival"))
            batch_split |= any(c != r for c, r in zip(completions, responses))
        assert batch_split and stream_missed


@st.composite
def extreme_configs(draw):
    """A 1-3 device fleet whose local latency, links and batch latency each take a
    magnitude from 1 ms up to the largest floats, with a tick period of 1, 1/10 or
    1/100 of the largest of them (so a run that starts has a few hundred ticks at
    most), and its traces."""
    magnitude = st.sampled_from((1.0, 1e150, 1e306, 1e307, 8e307, 1e308))
    devices, count = draw(st.integers(1, 3)), draw(st.integers(1, 20))
    t_inf, uplink, downlink, latency = (draw(magnitude) for _ in range(4))
    uplink, downlink = (draw(st.sampled_from((0.0, link))) for link in (uplink, downlink))
    largest = max(t_inf * count, uplink, downlink, latency * count * devices)
    cfg = small_config(groups=[("mid", devices, t_inf)], table_entries={1: latency},
                       kind=draw(st.sampled_from(("static", "multitasc"))),
                       threshold=draw(st.sampled_from((0.0, 0.5, 1.0))), uplink=uplink,
                       downlink=downlink, start_phase=draw(st.sampled_from(("aligned",
                                                                            "staggered"))),
                       sched_overrides=dict(tick_period_ms=min(largest, sys.float_info.max)
                                            / draw(st.sampled_from((1, 10, 100)))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return cfg, {d: make_trace(rng.random(count), rng.random(count) < 0.5,
                               rng.random(count) < 0.5) for d in range(devices)}


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread after ``seconds``, so a run that
    never ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def queue_area_overflow():
    """Every event of this run lands by 4.2e307 ms, but its 21 queue waits of up to
    that much would sum past the largest float (the report read a mean queue length
    of inf). The bound's largest terms tie: the batch table's comes first."""
    return (small_config(groups=[("mid", 3, 1.0)], table_entries={1: 1e306}, kind="static",
                         sched_overrides=dict(tick_period_ms=2.1e307)),
            {d: constant_trace(7, 0.1) for d in range(3)})


class TestEventTimeBound:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(extreme_configs())
    @example(queue_area_overflow())
    def test_a_run_is_refused_or_all_its_times_are_finite(self, case):
        cfg, traces = case
        try:
            with time_limit(5):
                report = run_simulation(cfg, traces, seed=0, collect_event_log=True)
        except ConfigError as err:
            assert err.field in ("fleet[0].t_inf_ms", "network.uplink_ms",
                                 "server.batch_latency_table", "network.downlink_ms",
                                 "scheduler.tick_period_ms"), err
            return
        times = [parse_event_log_line(line).time_ms for line in log_lines(report)]
        assert np.isfinite(times).all()
        assert np.isfinite(report.samples.completion_ms).all()
        assert np.isfinite(report.makespan_ms)
        assert np.isfinite(report.mean_queue_length)

    def test_the_last_ticks_updates_count_in_the_bound(self):
        """The one response lands at 6.1e307 ms; the tick after it, at 1.2e308 ms,
        raises a threshold, and that update lands a downlink later, past the
        largest float. The bound counts the downlink twice, so the run is refused."""
        cfg = small_config(groups=[("mid", 1, 1.0)], table_entries={1: 1.0},
                           kind="multitasc", downlink=6.1e307,
                           sched_overrides=dict(tick_period_ms=6e307))
        with pytest.raises(ConfigError) as err:
            run_simulation(cfg, {0: constant_trace(1, 0.1)}, seed=0)
        assert err.value.field == "network.downlink_ms"

    def test_a_tick_period_too_small_to_count_is_refused(self):
        """1e-15 ms ticks would number more than sys.maxsize before the 2-device
        homog preset's run ends, though the event-time bound itself is finite."""
        cfg = load_config("homog_efflite0_inceptionv3").with_device_count(2)
        cfg = replace(cfg, scheduler=replace(cfg.scheduler, tick_period_ms=1e-15))
        with pytest.raises(ConfigError) as err, time_limit(10):
            run_simulation(cfg, seed=1)
        assert err.value.field == "scheduler.tick_period_ms"
        assert "more than sys.maxsize ticks" in str(err.value)

    def test_the_queue_area_counts_in_the_bound(self):
        cfg, traces = queue_area_overflow()
        with pytest.raises(ConfigError) as err:
            run_simulation(cfg, traces, seed=0)
        assert err.value.field == "server.batch_latency_table"

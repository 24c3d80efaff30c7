"""End-to-end acceptance gates.

Each test checks one gate at its stated tolerance and prints a PASS line
(visible with `pytest -s`). The scenario sweeps are executed once per session
by the fixtures below and shared across gates.

Heterogeneous sweeps step by 9 devices so every point splits evenly across the
three tiers (counts that are not divisible by the tier count are rejected by
config validation, by design).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from cascsim.cascade import calibrate_static_threshold
from cascsim.config import load_config
from cascsim.engine import DeviceLayout, parse_event_log_line, run_simulation
from cascsim.scheduler import SchedulerConfig, threshold_change
from cascsim.server import compute_capacity_greedy
from cascsim.trace import SyntheticTraceParams, generate_synthetic_trace

from conftest import log_lines, random_monotone_table, small_config, make_trace
from oracle_capacity import compute_capacity_exact

SEEDS = (1, 2, 3)
SWEEPS = {
    "homog": ("homog_efflite0_inceptionv3", tuple(range(5, 51, 5))),
    "heterog": ("heterog_inceptionv3", tuple(range(9, 46, 9))),
}


def _scalars(report) -> dict:
    return {
        "sat": {float(k): v for k, v in report.slo_satisfaction.items()},
        "acc": report.cascade_accuracy,
        "fr": report.forward_rate,
        "tp": report.total_throughput,
        "ar": report.arrival_rate,
        "tserver": report.server_throughput,
    }


def _mean(runs: list[dict], key, slo=None) -> float:
    if slo is None:
        return sum(r[key] for r in runs) / len(runs)
    return sum(r["sat"][slo] for r in runs) / len(runs)


def _with(cfg, kind: str, slo_ms: float):
    return replace(cfg, scheduler=replace(cfg.scheduler, kind=kind, slo_ms=slo_ms))


@pytest.fixture(scope="session")
def sweep_data():
    """Run the scenario matrix once: static and adaptive, both fleets. The runs at
    one (count, seed) share a device layout, and each fleet's traces are drawn once."""
    t0 = time.monotonic()
    data = {}
    for label, (preset, counts) in SWEEPS.items():
        base = load_config(preset)
        entry = {"counts": counts, "static": {}, "mt100": {}, "mt200": {},
                 "n_star": {}}
        configs = {"static": _with(base, "static", 100.0),
                   "mt100": _with(base, "multitasc", 100.0),
                   "mt200": _with(base, "multitasc", 200.0)}
        memo = {}
        for n in counts:
            point = {key: cfg.with_device_count(n) for key, cfg in configs.items()}
            layouts = {s: DeviceLayout(point["static"], point["static"].build_traces(s, memo),
                                       memo) for s in SEEDS}

            def runs(key):
                return [_scalars(run_simulation(point[key], seed=s, layout=layouts[s]))
                        for s in SEEDS]

            entry["static"][n] = runs("static")
            entry["mt100"][n] = runs("mt100")
            for slo in (100.0, 200.0):
                if slo not in entry["n_star"] and _mean(entry["static"][n], "sat", slo) < 0.80:
                    entry["n_star"][slo] = n
            if entry["n_star"].get(200.0) == n:
                entry["mt200"][n] = runs("mt200")
        for slo in (100.0, 200.0):
            entry["n_star"].setdefault(slo, None)
        data[label] = entry
    data["elapsed_s"] = time.monotonic() - t0
    return data


def test_capacity_greedy_matches_exact_dp_on_monotone_tables():
    rng = np.random.default_rng(20_260_808)
    t0 = time.monotonic()
    mismatches = []
    for i in range(120):
        table = random_monotone_table(rng, max_latency=500)
        slo = int(rng.integers(50, 5001))
        greedy = compute_capacity_greedy(table, slo).capacity
        exact = compute_capacity_exact(table, slo).capacity
        if greedy != exact:
            mismatches.append((table.entries, table.max_effective_batch, slo,
                               greedy, exact))
    elapsed = time.monotonic() - t0
    assert not mismatches, f"greedy/DP disagreement: {mismatches}"
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE PASS: capacity greedy == exact DP on 120 random "
          f"throughput-monotone tables in {elapsed:.1f}s")


def test_threshold_change_branches_and_exclusivity():
    cfg = SchedulerConfig(kind="multitasc")  # alpha 0.83, beta 0.125, margin 0.05
    # the three branches on the worked capacity value
    assert threshold_change(32, 40, 36, cfg) == -0.05
    assert threshold_change(4, 3, 36, cfg) == 0.05
    assert threshold_change(32, 3, 36, cfg) == 0.0
    # boundary equalities with exactly representable products
    boundary = SchedulerConfig(kind="multitasc", alpha=0.75, beta=0.125)
    assert threshold_change(80, 75, 100, boundary) == 0.0     # QL == alpha*C holds
    assert threshold_change(75, 80, 100, boundary) == 0.0     # b_bar == alpha*C holds
    assert threshold_change(12.5, 12, 100, boundary) == 0.05  # b_bar == beta*C raises
    assert threshold_change(10, 1, 8, boundary) == 0.0        # QL == beta*C, b_bar above
    assert threshold_change(1, 1, 8, boundary) == 0.05        # both at/below beta*C

    rng = np.random.default_rng(17)
    for _ in range(10_000):
        beta = float(rng.uniform(0.01, 0.95))
        alpha = float(rng.uniform(beta + 1e-6, 2.0))
        capacity = int(rng.integers(0, 200))
        b_bar = float(rng.uniform(0, 3 * max(capacity, 1)))
        queue = int(rng.integers(0, 3 * max(capacity, 1) + 1))
        c = SchedulerConfig(kind="multitasc", alpha=alpha, beta=beta)
        decrease = b_bar > alpha * capacity and queue > alpha * capacity
        increase = b_bar <= beta * capacity and queue <= beta * capacity
        assert not (decrease and increase), (b_bar, queue, capacity, alpha, beta)
        expected = -c.margin if decrease else (c.margin if increase else 0.0)
        assert threshold_change(b_bar, queue, capacity, c) == expected
    print("\nACCEPTANCE PASS: change-rule branch coverage incl. boundary equalities; "
          "branch exclusivity on 10^4 random triples")


def test_cascade_accuracy_matches_brute_force_enumeration():
    """Calibration's forward rate and cascade accuracy at its pick equal a count of
    the records, for targets and tolerances that pick by the closest forward rate
    and by the accuracy fallback."""
    rng = np.random.default_rng(99)
    settings = [(target, tolerance) for target in (0.05, 0.3, 0.9) for tolerance in (0.0, 1.0)]
    checked, fallbacks = 0, 0
    for _ in range(50):
        params = SyntheticTraceParams(
            light_accuracy=float(rng.uniform(0.5, 0.95)),
            heavy_accuracy_given_light_correct=float(rng.uniform(0.5, 1.0)),
            heavy_accuracy_given_light_wrong=float(rng.uniform(0.0, 0.9)),
            bvsb_shape_correct=(float(rng.uniform(1, 8)), float(rng.uniform(0.5, 3))),
            bvsb_shape_wrong=(float(rng.uniform(0.5, 3)), float(rng.uniform(1, 8))),
            count=10_000,
        )
        trace = generate_synthetic_trace(params, seed=int(rng.integers(2**31)))
        cols = list(zip(trace.bvsb.tolist(), trace.light_correct.tolist(),
                        trace.heavy_correct.tolist()))
        for target, tolerance in settings:
            pick = calibrate_static_threshold(trace, target, tolerance)
            t = pick.value
            assert pick.forward_rate == sum(b < t for b, _, _ in cols) / len(cols)
            assert pick.cascade_accuracy == sum(l if b >= t else h for b, l, h in cols) / len(cols)
            # a tolerance of 1 never falls back, so a different pick is the fallback's
            fallbacks += t != calibrate_static_threshold(trace, target, 1.0).value
            checked += 1
    assert 0 < fallbacks < checked
    print(f"\nACCEPTANCE PASS: calibration's forward rate and cascade accuracy equal "
          f"brute-force enumeration on {checked} trace/target/tolerance picks "
          f"({fallbacks} by the accuracy fallback)")


def test_deterministic_event_logs_and_reports():
    cfg = load_config("heterog_inceptionv3").with_device_count(30)
    runs = []
    for _ in range(2):
        t0 = time.monotonic()
        report = run_simulation(cfg, seed=7, collect_event_log=True)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"run took {elapsed:.1f}s"
        runs.append(("".join(report.event_log), report.to_json()))
    assert runs[0][0] == runs[1][0], "event logs differ between identical runs"
    assert runs[0][1] == runs[1][1], "reports differ between identical runs"
    print("\nACCEPTANCE PASS: 30-device heterogeneous runs (seed 7) are "
          "byte-identical across repeats")


def test_static_baseline_congestion_floor(sweep_data):
    entry = sweep_data["homog"]
    counts = entry["counts"]
    ar = {n: _mean(entry["static"][n], "ar") for n in counts}
    tserver = _mean(entry["static"][counts[0]], "tserver")
    sat = {n: _mean(entry["static"][n], "sat", 100.0) for n in counts}
    fr = {n: _mean(entry["static"][n], "fr") for n in counts}

    overloaded = [n for n in counts if ar[n] > tserver]
    assert overloaded, "sweep never crosses the server's attainable throughput"
    n_over = overloaded[0]
    pre = [sat[n] for n in counts if n < n_over]
    post = [sat[n] for n in counts if n >= n_over]
    assert max(post) < min(pre), (
        f"satisfaction did not degrade past the overload point {n_over}")

    deep = counts[-1]
    floor = 1.0 - fr[deep]
    assert abs(sat[deep] - floor) <= 0.03, (
        f"deep-saturation satisfaction {sat[deep]:.3f} not within 3 pp of "
        f"1 - forward_rate = {floor:.3f}")
    print(f"\nACCEPTANCE PASS: baseline satisfaction degrades past {n_over} devices "
          f"(AR > {tserver:.0f}/s) and sits at {sat[deep]:.3f} vs floor {floor:.3f} "
          f"at {deep} devices")


def test_adaptive_scheduler_beats_saturated_baseline(sweep_data):
    assert sweep_data["elapsed_s"] < 600.0, (
        f"scenario matrix took {sweep_data['elapsed_s']:.0f}s")
    lines = []
    for label, entry in (("homog", sweep_data["homog"]),
                         ("heterog", sweep_data["heterog"])):
        for slo in (100.0, 200.0):
            n_star = entry["n_star"][slo]
            assert n_star is not None, f"{label}: baseline never dropped below 80%"
            adaptive = entry["mt100"] if slo == 100.0 else entry["mt200"]
            base_runs = entry["static"][n_star]
            adapt_runs = adaptive[n_star]
            gain = _mean(adapt_runs, "sat", slo) - _mean(base_runs, "sat", slo)
            acc_drop = _mean(base_runs, "acc") - _mean(adapt_runs, "acc")
            assert gain >= 0.10, (
                f"{label}/{slo:.0f}ms at {n_star} devices: gain {gain * 100:.1f} pp < 10 pp")
            assert acc_drop <= 0.02, (
                f"{label}/{slo:.0f}ms at {n_star} devices: accuracy drops "
                f"{acc_drop * 100:.1f} pp > 2 pp")
            lines.append(f"{label}/{slo:.0f}ms @ {n_star} devices: "
                         f"+{gain * 100:.1f} pp satisfaction, "
                         f"{acc_drop * 100:+.2f} pp accuracy cost")
    print("\nACCEPTANCE PASS: adaptive scheduler vs saturated baseline -- "
          + "; ".join(lines))


def test_throughput_scaling_and_baseline_plateau(sweep_data):
    entry = sweep_data["homog"]
    counts = entry["counts"]
    mt_tp = [_mean(entry["mt100"][n], "tp") for n in counts]
    for a, b in zip(mt_tp, mt_tp[1:]):
        assert b >= a * 0.98, f"adaptive throughput fell more than 2%: {a:.1f} -> {b:.1f}"

    ar = {n: _mean(entry["static"][n], "ar") for n in counts}
    tserver = _mean(entry["static"][counts[0]], "tserver")
    saturated = [n for n in counts if ar[n] > tserver]
    st_tp = {n: _mean(entry["static"][n], "tp") for n in counts}
    plateau_pairs = [
        (a, b) for a, b in zip(saturated, saturated[1:])
        if st_tp[b] < st_tp[a] * 1.05
    ]
    assert plateau_pairs, "baseline throughput shows no plateau between saturated points"
    print(f"\nACCEPTANCE PASS: adaptive throughput monotone over {counts[0]}-{counts[-1]} "
          f"devices; baseline plateau pairs {plateau_pairs}")


def test_emergency_flush_round_trip_from_event_log():
    cfg = small_config(groups=[("mid", 3, 43.0)], table_entries={1: 40.0},
                       kind="multitasc", threshold=1.0, uplink=0.0, downlink=0.0,
                       start_phase="aligned", trace_count=400)
    traces = {i: make_trace([0.5] * 400, [True] * 400, [i % 2 == 0] * 400)
              for i in range(3)}
    report = run_simulation(cfg, traces, seed=0, collect_event_log=True)

    ticks = [parse_event_log_line(line) for line in log_lines(report)
             if "\tscheduler_tick\t" in line]
    enters = [t for t in ticks if t.payload["flush"] == "entered"]
    exits = [t for t in ticks if t.payload["flush"] == "exited"]
    assert enters, "flush never entered under stress"
    assert exits, "flush never exited"
    first_enter = enters[0]
    first_exit = next(t for t in exits if t.time_ms > first_enter.time_ms)
    # entry zeroes every device threshold
    assert sorted(u[0] for u in first_enter.payload["updates"]) == [0, 1, 2]
    assert all(u[1] == 0.0 and u[2] == "flush_enter"
               for u in first_enter.payload["updates"])
    # the queue drained before the exit transition fired
    assert first_exit.payload["queue_len"] <= cfg.scheduler.beta * 2
    # exit restores the pre-flush thresholds exactly
    assert all(u[1] == 1.0 and u[2] == "flush_exit"
               for u in first_exit.payload["updates"])
    print(f"\nACCEPTANCE PASS: flush entered at {first_enter.time_ms:.0f} ms, queue "
          f"drained, thresholds restored at {first_exit.time_ms:.0f} ms")


def test_satisfaction_monotone_in_slo(sweep_data):
    checked = 0
    for label in ("homog", "heterog"):
        entry = sweep_data[label]
        for family in ("static", "mt100", "mt200"):
            for n, runs in entry[family].items():
                for run in runs:
                    assert run["sat"][200.0] >= run["sat"][100.0], (
                        f"{label}/{family} at {n} devices")
                    checked += 1
    print(f"\nACCEPTANCE PASS: satisfaction at 200 ms >= satisfaction at 100 ms "
          f"across {checked} completed runs")

import numpy as np
import pytest

from cascsim.engine import run_simulation
from cascsim.errors import ConfigError
from cascsim.metrics import (
    SWEEP_CSV_HEADER,
    SampleColumns,
    mean_report,
    rollup,
    sweep_csv_rows,
)

from conftest import make_trace, small_config


def columns(latency, correct=True, device_id=0, served=False):
    """Samples started at 0 with these latencies; any argument may be one value or a list."""
    latency, correct, device_id, served = np.broadcast_arrays(latency, correct, device_id,
                                                              served)
    return SampleColumns(device_id, np.zeros_like(device_id), np.zeros_like(latency),
                         latency, served, correct, latency)


def rolled_up(cols, devices=slice(None), slos=(100.0,), makespan_ms=1000.0):
    """``rollup`` of the selected devices, from per-device counts of ``cols``."""
    n = int(cols.device_id.max()) + 1
    count = np.bincount(cols.device_id, minlength=n)
    correct = np.bincount(cols.device_id[cols.correct], minlength=n)
    within = {slo: np.bincount(cols.device_id[cols.latency_ms <= slo], minlength=n)
              for slo in slos}
    return rollup(devices, count, correct, within, makespan_ms)


def satisfaction(cols, slo: float) -> float:
    return rolled_up(cols, slos=(slo,))["satisfaction"][slo]


class TestSloSatisfaction:
    def test_all_within(self):
        assert satisfaction(columns([43.0] * 10), 100.0) == 1.0

    def test_counted_by_enumeration(self):
        assert satisfaction(columns([50.0, 150.0, 250.0]), 200.0) == pytest.approx(2 / 3)

    def test_slo_below_every_latency(self):
        assert satisfaction(columns([50.0, 150.0]), 10.0) == 0.0

    def test_monotone_in_slo(self):
        rng = np.random.default_rng(1)
        lts = columns(rng.uniform(10, 500, 200))
        sats = [satisfaction(lts, s) for s in range(10, 510, 25)]
        assert all(a <= b for a, b in zip(sats, sats[1:]))

    def test_satisfaction_follows_the_slo_order(self):
        lts = columns([50.0, 150.0, 250.0])
        assert list(rolled_up(lts, slos=(200.0, 100.0, 300.0))["satisfaction"]) == \
            [200.0, 100.0, 300.0]


class TestThroughputAndAccuracy:
    def test_worked_throughput(self):
        assert rolled_up(columns([43.0] * 100), makespan_ms=4300.0)["throughput"] == \
            pytest.approx(100 / 4.3)

    @pytest.mark.parametrize("makespan", [-1.0, float("nan")])
    def test_negative_makespan_rejected(self, makespan):
        """A run's makespan is never negative or NaN: one device whose one sample stays
        local ends at its local latency, and the config refuses such a latency."""
        trace = {0: make_trace([0.9], [True], [True])}
        ran = run_simulation(small_config(groups=[("mid", 1, 43.0)], table_entries={1: 15}),
                             trace, seed=0)
        assert ran.makespan_ms == 43.0
        cfg = small_config(groups=[("mid", 1, makespan)], table_entries={1: 15})
        with pytest.raises(ConfigError, match=r"^fleet\[0\]\.t_inf_ms: "):
            run_simulation(cfg, trace, seed=0)

    def test_all_correct(self):
        assert rolled_up(columns([10.0] * 5, correct=True))["accuracy"] == 1.0

    def test_fractional(self):
        cols = columns(10.0, correct=[i % 4 != 0 for i in range(8)])
        assert rolled_up(cols)["accuracy"] == 0.75

    def test_forward_rate_counts_served_samples(self):
        cfg = small_config(groups=[("mid", 3, 20.0)], table_entries={1: 15}, threshold=0.5)
        rng = np.random.default_rng(5)
        traces = {i: make_trace(rng.random(40), rng.random(40) < 0.7, rng.random(40) < 0.8)
                  for i in range(3)}
        report = run_simulation(cfg, traces, seed=0)
        served = sum(int((t.bvsb < 0.5).sum()) for t in traces.values())
        assert report.samples_served == served
        assert report.forward_rate == served / 120


class TestTierAggregation:
    def test_single_tier_matches_totals(self):
        lts = columns(40.0, correct=[i % 2 == 0 for i in range(12)],
                      device_id=[i % 3 for i in range(12)])
        assert rolled_up(lts, np.ones(3, dtype=bool)) == rolled_up(lts)

    def test_tier_throughputs_sum_to_total(self):
        rng = np.random.default_rng(2)
        tiers = np.array([i % 3 for i in range(9)])
        draws = [(rng.uniform(10, 300), rng.integers(9)) for _ in range(500)]
        lts = columns([d[0] for d in draws], device_id=[d[1] for d in draws])
        parts = [rolled_up(lts, tiers == t, makespan_ms=2000.0)["throughput"] for t in range(3)]
        total = rolled_up(lts, makespan_ms=2000.0)["throughput"]
        assert sum(parts) == pytest.approx(total, rel=1e-9)

    def test_partition_by_tier(self):
        lts = columns(10.0, device_id=[0, 1, 1])
        assert rolled_up(lts, np.array([True, False]))["samples"] == 1
        assert rolled_up(lts, np.array([False, True]))["samples"] == 2

    def test_every_fleet_tier_is_reported(self):
        cfg = small_config(groups=[("low", 1, 30.0), ("mid", 2, 20.0), ("high", 1, 10.0)],
                           table_entries={1: 15}, threshold=0.5, slos=(50.0,))
        rng = np.random.default_rng(6)
        traces = {i: make_trace(rng.random(30), rng.random(30) < 0.7, rng.random(30) < 0.8)
                  for i in range(4)}
        report = run_simulation(cfg, traces, seed=0)
        assert set(report.per_tier) == {"low", "mid", "high"}
        assert [report.per_tier[t]["samples"] for t in ("low", "mid", "high")] == [30, 60, 30]
        assert sum(t["throughput"] for t in report.per_tier.values()) == \
            pytest.approx(report.total_throughput, rel=1e-9)


class TestSatisfactionFloor:
    def test_floor_holds_when_local_latency_fits_slo(self):
        """With local latency under the SLO, satisfaction cannot drop below the
        share of samples that never left the device."""
        cfg = small_config(groups=[("mid", 6, 43.0)], table_entries={1: 40},
                           threshold=0.6, uplink=5.0, downlink=5.0,
                           start_phase="staggered")
        rng = np.random.default_rng(3)
        traces = {i: make_trace(rng.random(200), rng.random(200) < 0.7,
                                rng.random(200) < 0.8) for i in range(6)}
        report = run_simulation(cfg, traces, seed=0)
        for slo, sat in report.slo_satisfaction.items():
            assert sat >= (1.0 - report.forward_rate) - 1e-12


class TestReportPlumbing:
    def run_reports(self):
        cfg = small_config(groups=[("mid", 2, 43.0)], table_entries={1: 15},
                           threshold=0.5)
        rng = np.random.default_rng(4)
        out = []
        for seed in (1, 2):
            traces = {i: make_trace(rng.random(50), rng.random(50) < 0.7,
                                    rng.random(50) < 0.8) for i in range(2)}
            out.append(run_simulation(cfg, traces, seed=seed))
        return out

    def test_mean_report_averages_numeric_fields(self):
        reports = self.run_reports()
        mean = mean_report(reports)
        assert mean["seeds"] == [1, 2]
        expected = sum(r.total_throughput for r in reports) / 2
        assert mean["total_throughput"] == pytest.approx(expected)
        for slo in reports[0].slo_satisfaction:
            expected = sum(r.slo_satisfaction[slo] for r in reports) / 2
            assert mean["slo_satisfaction"][str(slo)] == pytest.approx(expected)

    def test_sweep_csv_shape(self):
        reports = self.run_reports()
        rows = sweep_csv_rows(reports)
        assert len(rows) == 2 * len(reports[0].slo_satisfaction)
        assert SWEEP_CSV_HEADER.count(",") == rows[0].count(",")
        first = rows[0].split(",")
        assert first[0] == "2"          # devices
        assert first[1] == "1"          # seed
        assert first[2] == "static"     # scheduler kind

    def test_report_json_round_trips(self):
        import json
        report = self.run_reports()[0]
        doc = json.loads(report.to_json())
        assert doc["samples_finalized"] == 100
        assert "sample_lifetimes" not in doc
        assert len(report.samples) == 100

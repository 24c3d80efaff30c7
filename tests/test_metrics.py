import numpy as np
import pytest

from cascsim.engine import run_simulation
from cascsim.errors import ConfigError
from cascsim.metrics import (
    SWEEP_CSV_HEADER,
    SampleColumns,
    accuracy,
    aggregate_by_tier,
    forward_rate,
    mean_report,
    slo_satisfaction,
    sweep_csv_rows,
    throughput,
)

from conftest import make_trace, small_config


def columns(latency, correct=True, device_id=0, served=False):
    """Samples started at 0 with these latencies; any argument may be one value or a list."""
    latency, correct, device_id, served = np.broadcast_arrays(latency, correct, device_id,
                                                              served)
    return SampleColumns(device_id, np.zeros_like(device_id), np.zeros_like(latency),
                         latency, served, correct, latency)


class TestSloSatisfaction:
    def test_all_within(self):
        assert slo_satisfaction(columns([43.0] * 10), 100.0) == 1.0

    def test_counted_by_enumeration(self):
        assert slo_satisfaction(columns([50.0, 150.0, 250.0]), 200.0) == pytest.approx(2 / 3)

    def test_slo_below_every_latency(self):
        assert slo_satisfaction(columns([50.0, 150.0]), 10.0) == 0.0

    def test_empty_is_zero(self):
        assert slo_satisfaction(columns([]), 100.0) == 0.0

    def test_monotone_in_slo(self):
        rng = np.random.default_rng(1)
        lts = columns(rng.uniform(10, 500, 200))
        sats = [slo_satisfaction(lts, s) for s in range(10, 510, 25)]
        assert all(a <= b for a, b in zip(sats, sats[1:]))


class TestThroughputAndAccuracy:
    def test_worked_throughput(self):
        assert throughput(columns([43.0] * 100), 4300.0) == pytest.approx(100 / 4.3)

    def test_empty_denominators_are_zero(self):
        for value in (throughput(columns([]), 0.0), accuracy(columns([]))):
            assert type(value) is float and value == 0.0

    @pytest.mark.parametrize("makespan", [-1.0, float("nan")])
    def test_negative_makespan_rejected(self, makespan):
        with pytest.raises(ConfigError, match=r"^makespan_ms: "):
            throughput(columns([]), makespan)

    def test_all_correct(self):
        assert accuracy(columns([10.0] * 5, correct=True)) == 1.0

    def test_fractional(self):
        assert accuracy(columns(10.0, correct=[i % 4 != 0 for i in range(8)])) == 0.75

    def test_forward_rate_counts_served_samples(self):
        lts = columns(10.0, served=[False, True, True, True])
        assert forward_rate(lts) == 0.75
        assert forward_rate(columns([])) == 0.0


class TestTierAggregation:
    def test_single_tier_matches_totals(self):
        lts = columns(40.0, correct=[i % 2 == 0 for i in range(12)],
                      device_id=[i % 3 for i in range(12)])
        tiers = ["mid", "mid", "mid"]
        report = aggregate_by_tier(lts, tiers, makespan_ms=1000.0, slos_ms=[100.0])
        assert set(report) == {"mid"}
        assert report["mid"]["accuracy"] == accuracy(lts)
        assert report["mid"]["throughput"] == throughput(lts, 1000.0)
        assert report["mid"]["satisfaction"][100.0] == slo_satisfaction(lts, 100.0)

    def test_tier_throughputs_sum_to_total(self):
        rng = np.random.default_rng(2)
        tiers = [("low", "mid", "high")[i % 3] for i in range(9)]
        draws = [(rng.uniform(10, 300), rng.integers(9)) for _ in range(500)]
        lts = columns([d[0] for d in draws], device_id=[d[1] for d in draws])
        report = aggregate_by_tier(lts, tiers, makespan_ms=2000.0, slos_ms=[100.0])
        total = throughput(lts, 2000.0)
        assert sum(t["throughput"] for t in report.values()) == pytest.approx(total, rel=1e-9)

    def test_partition_by_tier(self):
        lts = columns(10.0, device_id=[0, 1, 1])
        report = aggregate_by_tier(lts, ["low", "high"], 1000.0, [50.0])
        assert report["low"]["samples"] == 1
        assert report["high"]["samples"] == 2

    def test_every_fleet_tier_is_reported(self):
        lts = columns(10.0, device_id=[0, 0])
        report = aggregate_by_tier(lts, ["low", "mid", "high", "high"], 1000.0, [50.0])
        assert set(report) == {"low", "mid", "high"}
        assert report["low"]["satisfaction"][50.0] == 1.0
        assert report["high"]["samples"] == 0
        assert report["high"]["satisfaction"][50.0] == 0.0


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

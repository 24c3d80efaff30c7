import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascsim.cascade import (
    CALIBRATION_GRID,
    Calibration,
    CalibrationSpec,
    calibrate_static_threshold,
    forwards,
)
from cascsim.cli import main
from cascsim.errors import ConfigError, TraceError
from cascsim.scheduler import TIER_LEVEL, SchedulerConfig, SchedulerState, Tier, scheduler_tick
from cascsim.trace import (generate_synthetic_trace, load_trace_csv, SyntheticTraceParams,
                           write_trace_csv)

from conftest import make_trace
from oracle_calibration import calibrate_grid_matrix


class TestThreshold:
    """A commanded forwarding threshold stays in [0, 1] (0 never forwards; 1 forwards
    every gap below 1): the controller clamps each step it takes."""

    @staticmethod
    def stepped(threshold: float, decrease: bool) -> float:
        """The threshold of a one-device fleet after one tick whose batches and queue
        sit above alpha (decrease) or at or below beta (increase) of a capacity of 36;
        the default margin is 0.05."""
        state = SchedulerState([threshold], [TIER_LEVEL[Tier.MID]])
        b_bar, queue_length = (32, 40) if decrease else (4, 3)
        scheduler_tick(state, b_bar, queue_length, 36,
                       SchedulerConfig(kind="multitasc", initial_threshold=threshold))
        return float(state.thresholds[0])

    def test_clamped_high(self):
        assert self.stepped(0.98, decrease=False) == 1.0
        assert self.stepped(1.0, decrease=False) == 1.0

    def test_clamped_low(self):
        assert self.stepped(0.02, decrease=True) == 0.0
        assert self.stepped(0.0, decrease=True) == 0.0

    def test_in_range_untouched(self):
        assert self.stepped(0.62, decrease=False) == 0.62 + 0.05
        assert self.stepped(0.62, decrease=True) == 0.62 - 0.05


class TestDecide:
    """The keep/forward rule: a confidence gap below the threshold forwards."""

    def test_boundary_keeps_local(self):
        assert not forwards(0.5, 0.5)

    def test_zero_threshold_keeps_everything(self):
        assert not forwards(np.array([0.0, 0.3, 1.0]), 0.0).any()

    def test_below_threshold_forwards(self):
        assert forwards(0.49, 0.5)

    def test_monotone_in_threshold(self):
        # raising the threshold never flips forward back to keep_local
        rng = np.random.default_rng(0)
        grid = forwards(rng.random(50)[:, None], np.linspace(0, 1, 51)[None, :])
        assert (grid[:, 1:] >= grid[:, :-1]).all()


def closest_rate(trace, target: float) -> Calibration:
    """Calibration with a tolerance of 1, which never falls back: the pick is the
    lowest grid point whose forward rate is closest to ``target``."""
    return calibrate_static_threshold(trace, target, 1.0)


class TestCascadeOutcome:
    """Which model answers a one-record trace, read from the cascade accuracy at the pick."""

    def test_local_branch(self):
        trace = make_trace([0.9], [True], [False])
        assert closest_rate(trace, 0.3) == (0.0, 0.0, 1.0)

    def test_server_branch(self):
        trace = make_trace([0.1], [True], [False])
        assert closest_rate(trace, 0.9) == (0.105, 1.0, 0.0)

    def test_boundary_keeps_local_even_when_wrong(self):
        # a gap of exactly 1 stays local at every grid point, 1 included
        trace = make_trace([1.0], [False], [True])
        assert closest_rate(trace, 0.9) == (0.0, 0.0, 0.0)


def rows(trace):
    """(bvsb, light_correct, heavy_correct) of each record, as Python values."""
    return list(zip(trace.bvsb.tolist(), trace.light_correct.tolist(),
                    trace.heavy_correct.tolist()))


def enumeration_accuracy(trace, threshold: float) -> float:
    """Independent per-record oracle for cascade accuracy."""
    correct = 0
    for bvsb, light_correct, heavy_correct in rows(trace):
        if bvsb >= threshold:
            correct += light_correct
        else:
            correct += heavy_correct
    return correct / len(trace)


def enumeration_rate(trace, threshold: float) -> float:
    """Independent per-record oracle for the forward rate."""
    return sum(bvsb < threshold for bvsb, _, _ in rows(trace)) / len(trace)


class TestCascadeAccuracy:
    def test_threshold_zero_equals_light_accuracy(self):
        trace = make_trace([0.2, 0.8, 0.5, 0.9], [1, 0, 1, 1], [0, 0, 0, 0])
        assert closest_rate(trace, 0.01) == (0.0, 0.0, trace.light_correct.mean())

    def test_hand_enumerated_mix(self):
        trace = make_trace([0.9, 0.4, 0.4, 0.8],
                           [True, False, False, True],
                           [True, True, False, False])
        # local T, server T, server F, local T
        assert closest_rate(trace, 0.5) == (0.405, 0.5, 0.75)

    def test_all_heavy_correct_bounds_from_below(self):
        rng = np.random.default_rng(2)
        trace = make_trace(rng.random(200), rng.random(200) < 0.6, np.ones(200, dtype=bool))
        # every gap lies below 1, so the highest grid points forward everything to an
        # always-right model
        pick = closest_rate(trace, 0.999)
        assert (pick.forward_rate, pick.cascade_accuracy) == (1.0, 1.0)

    def test_empty_trace_rejected(self, tmp_path, capsys):
        """A CSV trace without records is refused before any figure is counted."""
        path = tmp_path / "empty.csv"
        path.write_text("sample_index,bvsb,light_correct,heavy_correct\n", encoding="utf-8")
        assert main(["calibrate", "--trace", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "TraceError",
                                   "message": "--trace: row 2: trace file has a header but "
                                              "no records"}

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            trace = make_trace(rng.random(1000), rng.random(1000) < 0.7,
                               rng.random(1000) < 0.8)
            for target in np.linspace(0.05, 0.95, 19):
                for tolerance in (0.0, 1.0):
                    pick = calibrate_static_threshold(trace, float(target), tolerance)
                    assert pick.forward_rate == enumeration_rate(trace, pick.value)
                    assert pick.cascade_accuracy == enumeration_accuracy(trace, pick.value)


def calibration_oracle(trace, target: float, tolerance: float) -> float:
    """Grid-scan oracle mirroring the calibration contract, written plainly."""
    n = len(trace)
    records = rows(trace)
    stats = []
    for t in CALIBRATION_GRID:
        fwd = sum(1 for bvsb, _, _ in records if bvsb < t)
        correct = sum((heavy if bvsb < t else light) for bvsb, light, heavy in records)
        stats.append((t, fwd / n, correct / n))
    best = min(stats, key=lambda s: (abs(s[1] - target), s[0]))
    max_acc = max(s[2] for s in stats)
    if best[2] < max_acc - tolerance:
        best = next(s for s in stats if s[2] >= max_acc - tolerance)
    return best[0]


class TestCalibration:
    def test_uniform_grid_trace_picks_rate_closest_to_target(self):
        trace = make_trace([i / 10 for i in range(11)], [1] * 11, [1] * 11)
        threshold = calibrate_static_threshold(trace, 0.30, 0.01)
        # forward rates jump 0/11 -> 1/11 -> ...; 3/11 is nearest 0.30 and the
        # tie across the grid breaks toward the lowest threshold.
        assert threshold.value == pytest.approx(0.205)
        assert threshold.value == pytest.approx(calibration_oracle(trace, 0.30, 0.01))

    def test_degenerate_all_confident_trace(self):
        trace = make_trace([1.0] * 20, [1] * 10 + [0] * 10, [1] * 20)
        threshold = calibrate_static_threshold(trace, 0.30, 0.01)
        # forward rate is 0 at every threshold; accuracy is flat so the
        # fallback never fires and the tie resolves to the lowest threshold
        assert threshold.value == 0.0

    def test_accuracy_fallback_matches_oracle(self):
        # heavy model much worse than light: chasing the forward-rate target
        # costs accuracy, so calibration must fall back
        rng = np.random.default_rng(21)
        n = 2000
        trace = make_trace(rng.random(n), rng.random(n) < 0.9, rng.random(n) < 0.1)
        for target in (0.3, 0.5, 0.7):
            got = calibrate_static_threshold(trace, target, 0.01).value
            assert got == pytest.approx(calibration_oracle(trace, target, 0.01))

    def test_random_traces_match_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            trace = generate_synthetic_trace(
                SyntheticTraceParams(0.75, 0.9, 0.4, count=500), seed=int(rng.integers(1e6)))
            got = calibrate_static_threshold(trace, 0.30, 0.01).value
            assert got == pytest.approx(calibration_oracle(trace, 0.30, 0.01))

    def test_invalid_target_rejected(self, tmp_path, capsys):
        """A config's calibration target and the ``--target`` flag are both checked
        before calibration runs."""
        path = tmp_path / "trace.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_trace_csv(make_trace([0.5], [1], [1]), fh)
        for target in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigError) as err:
                CalibrationSpec(target_forward_rate=target).validate()
            assert err.value.field == "scheduler.calibration.target_forward_rate"
            assert main(["calibrate", "--trace", str(path), "--target", str(target)]) == 1
            out, err_text = capsys.readouterr()
            assert out == ""
            assert json.loads(err_text)["message"].startswith("--target: must be in (0, 1)")

    def test_empty_trace_rejected(self):
        """No trace without records reaches calibration: the CSV loader refuses one,
        and a synthetic trace holds at least one record."""
        with pytest.raises(TraceError, match="header but no records"):
            load_trace_csv(b"sample_index,bvsb,light_correct,heavy_correct\n")
        with pytest.raises(ConfigError) as err:
            SyntheticTraceParams(0.75, 0.9, 0.4, count=0).validate("calibration")
        assert err.value.field == "calibration.count"


# Gaps on grid points (where keep and forward meet), at 0 and 1, and anywhere.
GAPS = st.one_of(st.sampled_from(CALIBRATION_GRID), st.sampled_from((0.0, 1.0)),
                 st.floats(0.0, 1.0))
BITS = st.one_of(st.just("all"), st.just("none"), st.lists(st.booleans(), min_size=1))


def bit_column(spec, n: int) -> list[bool]:
    """``n`` correctness bits: all right, all wrong, or a drawn pattern repeated."""
    if isinstance(spec, str):
        return [spec == "all"] * n
    return (spec * n)[:n]


ON_GRID = [CALIBRATION_GRID[j] for j in (1, 37, 60, 100, 199)]
# one ulp below and above a few grid points
BESIDE_GRID = [float(np.nextafter(g, side)) for g in ON_GRID for side in (0.0, 1.0)]
# every grid point, and one ulp below and above each that lies in [0, 1]
AROUND_GRID = [v for g in CALIBRATION_GRID
               for v in (float(np.nextafter(g, -1.0)), g, float(np.nextafter(g, 2.0)))
               if 0.0 <= v <= 1.0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(distinct=st.lists(GAPS, min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 11), min_size=1, max_size=80),
       light=BITS, heavy=BITS,
       target=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tolerance=st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
@example(distinct=ON_GRID, picks=[0, 1, 2, 3, 4, 2, 1, 3, 2], light=[True, False, False],
         heavy="all", target=0.4, tolerance=0.0)
@example(distinct=[0.0, 1.0], picks=[0, 1, 1, 0, 1, 1, 1], light=[False, True],
         heavy=[True, False, True], target=0.3, tolerance=0.0)
@example(distinct=BESIDE_GRID, picks=list(range(10)) * 3, light=[True, True, False],
         heavy=[True, False], target=0.5, tolerance=0.0)
@example(distinct=[0.3], picks=[0] * 9, light=[True, False, False], heavy="all",
         target=0.3, tolerance=0.0)
@example(distinct=AROUND_GRID, picks=list(range(len(AROUND_GRID))),
         light=[True, False, True, True, False], heavy=[False, True, True], target=0.3,
         tolerance=0.0)
@example(distinct=[0.2, 0.7], picks=[0, 1, 0, 1, 1], light="all", heavy="none",
         target=0.5, tolerance=0.0)
def test_calibration_matches_grid_matrix(distinct, picks, light, heavy, target, tolerance):
    """The grid-bin counts pick the threshold the grid × n decision matrix picks, with
    the same forward rate and cascade accuracy, on traces of 1 to 80 samples drawn
    from a few gaps, so most repeat; pinned: gaps on grid points, at 0 and 1, one
    ulp either side of grid points (of a few, and of all 201), all equal, and a
    pick by the accuracy fallback."""
    gaps = [distinct[i % len(distinct)] for i in picks]
    trace = make_trace(gaps, bit_column(light, len(gaps)), bit_column(heavy, len(gaps)))
    assert calibrate_static_threshold(trace, target, tolerance) == \
        calibrate_grid_matrix(trace, target, tolerance)


def test_each_gap_around_a_grid_point_is_binned_as_the_rule_keeps_it():
    """A lone sample that only the heavy model gets right is forwarded from the
    lowest grid point above its gap on, and there the cascade is most accurate, so
    calibration with no tolerance picks that point (0 when none lies above): at
    every grid point and one ulp either side of it."""
    for gap in AROUND_GRID:
        above = [g for g in CALIBRATION_GRID if forwards(gap, g)]
        picked = calibrate_static_threshold(make_trace([gap], [False], [True]), 0.5, 0.0)
        assert picked.value == (above[0] if above else 0.0), gap

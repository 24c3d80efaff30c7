import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascsim.errors import CascSimError, ConfigError, TraceError
from cascsim.cascade import trace_forward_rate
from cascsim.trace import (
    SyntheticTraceParams,
    TraceSet,
    generate_synthetic_trace,
    load_trace_csv,
    write_trace_csv,
)

from conftest import make_trace
from oracle_trace import load_trace_csv_rows


def params(**overrides) -> SyntheticTraceParams:
    base = dict(light_accuracy=0.75,
                heavy_accuracy_given_light_correct=0.9,
                heavy_accuracy_given_light_wrong=0.4,
                count=100)
    base.update(overrides)
    return SyntheticTraceParams(**base)


class TestGenerateSynthetic:
    def test_degenerate_bernoulli_all_correct(self):
        trace = generate_synthetic_trace(params(light_accuracy=1.0), seed=1)
        assert len(trace) == 100
        assert trace.light_correct.all()

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_trace(params(count=0), seed=1)

    def test_empirical_light_accuracy_matches_parameter(self):
        # oracle: direct counting against the Bernoulli parameter
        trace = generate_synthetic_trace(params(count=10_000), seed=42)
        observed = int(trace.light_correct.sum()) / 10_000
        assert abs(observed - 0.75) <= 0.02

    def test_pure_function_of_params_and_seed(self):
        a = generate_synthetic_trace(params(), seed=7)
        b = generate_synthetic_trace(params(), seed=7)
        assert np.array_equal(a.bvsb, b.bvsb)
        assert np.array_equal(a.light_correct, b.light_correct)
        assert np.array_equal(a.heavy_correct, b.heavy_correct)
        c = generate_synthetic_trace(params(), seed=8)
        assert not np.array_equal(a.bvsb, c.bvsb)

    def test_bvsb_within_unit_interval(self):
        trace = generate_synthetic_trace(params(count=5000), seed=3)
        assert trace.bvsb.min() >= 0.0 and trace.bvsb.max() <= 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_marginal_heavy_accuracy_within_binomial_bound(self, seed):
        p = params(count=20_000)
        trace = generate_synthetic_trace(p, seed=seed)
        expected = p.marginal_heavy_accuracy
        sigma = (expected * (1 - expected) / len(trace)) ** 0.5
        assert abs(trace.heavy_correct.mean() - expected) <= 3 * sigma

    @pytest.mark.parametrize("bad", [
        dict(light_accuracy=1.5),
        dict(heavy_accuracy_given_light_wrong=-0.1),
        dict(bvsb_shape_correct=(0.0, 1.0)),
        dict(bvsb_shape_wrong=(1.0, -2.0)),
        dict(count=-5),
        dict(bvsb_shape_correct=(float("nan"), 1.0)),
        dict(bvsb_shape_wrong=(1.0, float("inf"))),
    ])
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(ConfigError) as info:
            generate_synthetic_trace(params(**bad), seed=1)
        assert info.value.field == f"synthetic.{next(iter(bad))}"


class TestCsv:
    HEADER = "sample_index,bvsb,light_correct,heavy_correct"

    def test_single_row(self):
        trace = load_trace_csv(f"{self.HEADER}\n0,0.5,1,1\n")
        assert len(trace) == 1
        assert (trace.bvsb[0], trace.light_correct[0], trace.heavy_correct[0]) == \
            (0.5, True, True)

    def test_bvsb_out_of_range_names_row(self):
        with pytest.raises(TraceError) as err:
            load_trace_csv(f"{self.HEADER}\n0,0.2,1,1\n1,1.2,0,0\n", "fleet[2].trace.csv")
        assert (err.value.field, err.value.row) == ("fleet[2].trace.csv", 3)
        assert str(err.value) == "fleet[2].trace.csv: row 3: bvsb 1.2 outside [0, 1]"

    def test_header_only_is_empty_trace(self):
        with pytest.raises(TraceError):
            load_trace_csv(self.HEADER + "\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(TraceError):
            load_trace_csv("a,b,c,d\n0,0.5,1,1\n")

    def test_malformed_row_names_row(self):
        with pytest.raises(TraceError) as err:
            load_trace_csv(f"{self.HEADER}\n0,0.5,1,1\n1,oops,1,0\n")
        assert err.value.row == 3

    def test_non_consecutive_index_rejected(self):
        with pytest.raises(TraceError):
            load_trace_csv(f"{self.HEADER}\n5,0.5,1,1\n")

    def test_boolean_must_be_zero_or_one(self):
        with pytest.raises(TraceError):
            load_trace_csv(f"{self.HEADER}\n0,0.5,true,1\n")

    def test_round_trip(self):
        trace = generate_synthetic_trace(params(count=50), seed=11)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        again = load_trace_csv(buf.getvalue())
        assert np.array_equal(again.bvsb, trace.bvsb)
        assert np.array_equal(again.light_correct, trace.light_correct)
        assert np.array_equal(again.heavy_correct, trace.heavy_correct)
        # the exact bytes: shortest round-trip floats, booleans as 0/1, LF endings
        buf = io.StringIO()
        write_trace_csv(make_trace([0.1, 1.0, 2 / 3], [1, 0, 1], [0, 0, 1]), buf)
        assert buf.getvalue() == (f"{self.HEADER}\n0,0.1,1,0\n1,1.0,0,0\n"
                                  "2,0.6666666666666666,1,1\n")

    def test_invalid_utf8_names_row(self):
        with pytest.raises(TraceError) as err:
            load_trace_csv(f"{self.HEADER}\n0,0.5,1,1\n".encode("utf-8") + b"1,0.\xff,1,1\n")
        assert err.value.row == 3

    def test_reads_bytes(self):
        trace = load_trace_csv(f"{self.HEADER}\n0,0.25,0,1\n".encode("utf-8"))
        assert trace.bvsb[0] == 0.25


HEADER = "sample_index,bvsb,light_correct,heavy_correct"
# What a record may get wrong, and the values it may get wrong. Some are valid:
# Python's int and float accept surrounding whitespace, ``_`` between digits
# and other scripts' digits, and float reads nan and inf.
FLAWS = ("fields", "index", "gap", "light", "heavy", "line_end")
BAD_INDEX = [" {i}", "{i} ", "0_{i}", "+{i}", "{j}", "-1", "{i}_", "x", "", "1.0", "１"]
BAD_GAP = ["0", "1", "1e-1", " 0.5", "0.5 ", "0_5", "1_0", "-0.0", "nan", "inf", "-inf",
           "1.5", "-0.1", "1e400", "x", "", "0.5.5", "０.5", "1.0000000000000001"]
BAD_BIT = ["2", "", " 1", "1 ", "true", "01", "-0", "１"]
BAD_SHAPE = ["three", "five", "one", "blank", "cr"]
RECORD = st.fixed_dictionaries({
    "flaws": st.one_of(st.just(()), st.just(()), st.just(()),
                       st.sets(st.sampled_from(FLAWS), min_size=1, max_size=3)),
    "index": st.sampled_from(BAD_INDEX), "j": st.integers(0, 20),
    "gap": st.floats(0.0, 1.0).map(repr), "bad_gap": st.sampled_from(BAD_GAP),
    "light": st.sampled_from("01"), "bad_light": st.sampled_from(BAD_BIT),
    "heavy": st.sampled_from("01"), "bad_heavy": st.sampled_from(BAD_BIT),
    "shape": st.sampled_from(BAD_SHAPE), "line_end": st.sampled_from(["\r\n", "\r\r\n"])})


def record_line(i: int, r: dict) -> str:
    """Record ``i`` with the flaws ``r`` names, and its line ending."""
    flaws = r["flaws"]
    fields = [r["index"].format(i=i, j=r["j"]) if "index" in flaws else str(i),
              r["bad_gap"] if "gap" in flaws else r["gap"],
              r["bad_light"] if "light" in flaws else r["light"],
              r["bad_heavy"] if "heavy" in flaws else r["heavy"]]
    if "fields" in flaws:
        fields = {"three": fields[:3], "five": fields + ["1"], "one": fields[:1],
                  "blank": [], "cr": ["\r"]}[r["shape"]]
    return ",".join(fields) + (r["line_end"] if "line_end" in flaws else "\n")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(header=st.sampled_from([HEADER] * 6 + [HEADER + "\r"] * 2 + [HEADER + ",x"]),
       records=st.lists(RECORD, max_size=12),
       tail=st.sampled_from(["", "", "\n", "\r", "\n\n"]),
       as_bytes=st.booleans())
def test_loader_matches_row_by_row_oracle(header, records, tail, as_bytes):
    """On generated CSV text, the column-wise loader returns the row-by-row
    loader's columns bit for bit, or raises its error with its message."""
    text = header + "\n" + "".join(record_line(i, r) for i, r in enumerate(records)) + tail
    source = text.encode("utf-8") if as_bytes else text
    outcomes = []
    for load in (load_trace_csv, load_trace_csv_rows):
        try:
            trace = load(source, "fleet[0].trace.csv")
        except CascSimError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        else:
            outcomes.append((trace.bvsb.tobytes(), trace.light_correct.tobytes(),
                             trace.heavy_correct.tobytes()))
    assert outcomes[0] == outcomes[1]


class TestForwardRate:
    def test_threshold_zero_forwards_nothing(self):
        trace = make_trace([0.0, 0.5, 1.0], [1, 0, 1], [1, 1, 0])
        assert trace_forward_rate(trace, 0.0) == 0.0

    def test_hand_enumerated_fraction(self):
        trace = make_trace([0.1, 0.6, 0.9], [1, 1, 1], [1, 1, 1])
        assert trace_forward_rate(trace, 0.5) == pytest.approx(1 / 3)

    def test_exact_one_stays_local_at_threshold_one(self):
        trace = make_trace([1.0, 1.0], [1, 0], [1, 1])
        assert trace_forward_rate(trace, 1.0) == 0.0

    def test_rate_at_threshold_one_counts_everything_below_one(self):
        trace = make_trace([0.2, 1.0, 0.8, 1.0], [1, 1, 1, 1], [1, 1, 1, 1])
        assert trace_forward_rate(trace, 1.0) == 0.5

    def test_empty_trace_is_zero(self):
        assert trace_forward_rate(make_trace([], [], []), 0.5) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        trace = make_trace(rng.random(500), rng.random(500) < 0.7, rng.random(500) < 0.8)
        rates = [trace_forward_rate(trace, t) for t in np.linspace(0, 1, 101)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_threshold_outside_unit_interval_rejected(self):
        trace = make_trace([0.5], [1], [1])
        with pytest.raises(ConfigError):
            trace_forward_rate(trace, 1.5)


class TestTraceSet:
    def test_columns_must_align(self):
        with pytest.raises(ConfigError):
            TraceSet([0.5, 0.6], [True], [False])

    def test_bvsb_bounds_enforced(self):
        with pytest.raises(ConfigError):
            make_trace([1.5], [1], [1])
        with pytest.raises(ConfigError):
            make_trace([0.5, float("nan")], [1, 1], [1, 1])

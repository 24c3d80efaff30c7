import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascsim.trace
from cascsim.errors import CascSimError, ConfigError, TraceError
from cascsim.cascade import calibrate_static_threshold
from cascsim.scheduler import SchedulerConfig
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
        la = p.light_accuracy  # the marginal: la*hc + (1-la)*hw
        expected = la * p.heavy_accuracy_given_light_correct + \
            (1.0 - la) * p.heavy_accuracy_given_light_wrong
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


def record(**changes) -> dict:
    """A RECORD draw: a valid record ``{i},0.5,1,0`` unless ``changes`` say otherwise."""
    return {"flaws": (), "index": "", "j": 0, "gap": "0.5", "bad_gap": "", "light": "1",
            "bad_light": "", "heavy": "0", "bad_heavy": "", "shape": "three",
            "line_end": "\n", **changes}


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
# rows that a template of their row's numeral, a comma, the gap and ``,L,H`` misreads:
@example(header=HEADER, records=[record()] * 3 + [record(flaws={"fields"}, shape="five")],
         tail="", as_bytes=True)  # 3,0.5,1,0,1: a fifth field behind a valid-looking tail
@example(header=HEADER, records=[record()] * 3 + [record(flaws={"index"}, index="0{i}")],
         tail="", as_bytes=True)  # 03 at row 3
@example(header=HEADER, records=[record()] * 10 + [record(flaws={"index"}, index="1")],
         tail="", as_bytes=True)  # 1 at row 10: the comma after 2 digits falls on the gap
@example(header=HEADER, records=[record()] * 2 + [record(gap="1e-05"), record()],
         tail="", as_bytes=True)  # a gap ``float`` reads, on an otherwise valid row
@example(header=HEADER, records=[record()] * 3 + [record(flaws={"index", "fields"},
                                                        index="{i},1,0", shape="one")],
         tail="", as_bytes=False)  # 3,1,0: too short for the template, though it ends in ,1,0
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


def load_outcome(load, source):
    """The columns ``load`` reads from ``source``, as bytes, or its error's type and message."""
    try:
        trace = load(source, "fleet[0].trace.csv")
    except CascSimError as exc:
        return type(exc).__name__, str(exc)
    return trace.bvsb.tobytes(), trace.light_correct.tobytes(), trace.heavy_correct.tobytes()


def block_outcomes(source) -> list:
    """The loader's outcome on ``source`` with blocks of 1, 3 and 7 records, then
    with its default block."""
    outcomes = []
    for block in (1, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cascsim.trace, "_BLOCK", block)
            outcomes.append(load_outcome(load_trace_csv, source))
    return outcomes + [load_outcome(load_trace_csv, source)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(header=st.sampled_from([HEADER] * 6 + [HEADER + "\r"] * 2 + [HEADER + ",x"]),
       records=st.lists(RECORD, max_size=20),
       tail=st.sampled_from(["", "", "\n", "\r", "\n\n"]),
       as_bytes=st.booleans())
def test_small_blocks_match_row_by_row_oracle(header, records, tail, as_bytes):
    """On the CSV text the oracle property draws, loading a few records at a
    time returns the row-by-row loader's columns or raises its error."""
    text = header + "\n" + "".join(record_line(i, r) for i, r in enumerate(records)) + tail
    source = text.encode("utf-8") if as_bytes else text
    assert block_outcomes(source) == [load_outcome(load_trace_csv_rows, source)] * 4


# indexes ``int`` reads though they are not the plain numeral of a row
INDEXES = ["+{i}", "0{i}", " {i}", "{wide}", "99999999999999999999", "", "1{i:08d}"]
FLAWED = [None, (0, "-8"), (0, "0:"), (1, "x"), (1, "1.5"), (2, "2"), (3, ""), (4, "1")]


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("row", [0, 1, 8])
@pytest.mark.parametrize("flaw", FLAWED)
def test_blocks_read_other_numerals_and_later_flaws_as_the_oracle(index, row, flaw):
    """An index read by ``int`` (a sign, a leading zero, a space, a fullwidth digit,
    a numeral wider than int64, an empty field) in the first or second block, and a
    flaw at row 10: every block size gives the row-by-row loader's columns or error."""
    lines = [[str(i), repr(i / 16), str(i % 2), str(i // 2 % 2)] for i in range(12)]
    wide = str(row).translate(str.maketrans("0123456789", "０１２３４５６７８９"))
    lines[row][0] = index.format(i=row, wide=wide)
    if flaw is not None:
        column, value = flaw
        lines[10][column:column + 1] = [value]  # column 4 adds a fifth field
    source = HEADER + "\n" + "".join(",".join(line) + "\n" for line in lines)
    assert block_outcomes(source) == [load_outcome(load_trace_csv_rows, source)] * 4


def test_a_block_reads_eight_digit_indexes_without_int_and_wider_ones_with_it():
    """Rows 99,999,998 on: an 8-digit index that spells its row passes without
    ``int``, a 9-digit one goes through ``int``, and a wrong 9-digit index fails
    with the oracle's message."""
    first, rows = 99_999_998, 5
    read = []

    def spy(value):
        if isinstance(value, str):
            read.append(value)
        return int(value)

    def load(indexes):
        block = np.frombuffer("\n".join(f"{index},0.5,1,0" for index in indexes).encode(),
                              np.uint8)
        ends = np.append(np.flatnonzero(block == ord("\n")), block.size)
        gaps, light, heavy = np.empty(rows), np.empty(rows, bool), np.empty(rows, bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cascsim.trace, "int", spy, raising=False)
            outcome = cascsim.trace._load_block(block, ends, first, gaps, light, heavy)
        return outcome, gaps.tolist(), light.tolist(), heavy.tolist()

    indexes = list(range(first, first + rows))
    assert load(indexes) == ((rows, None), [0.5] * rows, [True] * rows, [False] * rows)
    assert read == ["100000000", "100000001", "100000002"]
    indexes[3] = 100_000_007
    assert load(indexes)[0] == (3, "sample_index 100000007 is not consecutive from 0")


def gap_csv(gaps: list[str]) -> str:
    return HEADER + "\n" + "".join(f"{i},{gap},1,0\n" for i, gap in enumerate(gaps))


class TestGapsFromBytes:
    def test_decimals_of_every_length_read_as_float_reads_them(self):
        """'0.' and 1 to 18 digits, and 19 or 20, which go through ``float``: each
        length 4,000 times, enough for the quotients that round onto a tie
        between two doubles (about 1 in 2,048), which ``float`` must settle."""
        rng = np.random.default_rng(5)
        gaps = ["1.0", "1.000000000000000001", "0.000000000000000001", "0.999999999999999999"]
        for places in range(1, 21):
            digits = rng.integers(0, 10, (4000, places)) + ord("0")
            gaps += ["0." + bytes(row).decode() for row in digits.astype(np.uint8)]
        trace = load_trace_csv(gap_csv(gaps))
        assert trace.bvsb.tobytes() == np.array([float(gap) for gap in gaps]).tobytes()

    def test_repr_of_doubles_reads_back(self):
        values = np.concatenate((np.random.default_rng(6).random(20000),
                                 np.random.default_rng(7).beta(1.2, 3.0, 20000), [0.0, 1.0]))
        trace = load_trace_csv(gap_csv([repr(v) for v in values.tolist()]))
        assert trace.bvsb.tobytes() == values.tobytes()

    def test_most_gaps_do_not_become_strings(self):
        """Where long doubles are x87 extended, ``float`` reads only the gaps that
        are not a digit, a point and 1 to 18 digits, and a tie."""
        if not cascsim.trace._EXTENDED:
            pytest.skip("long doubles are not x87 extended here")
        gaps = [repr(v) for v in np.random.default_rng(8).random(4096).tolist()]
        other = ["1e-05", "0.5 ", ".5", "+.5", "-.5", "x.5", "0..5", "0.1234567890123456789"]
        gaps[:len(other)] = other
        source = np.frombuffer(",".join(gaps).encode() + b",", np.uint8)
        stops = np.flatnonzero(source == ord(","))
        starts = np.append(0, stops[:-1] + 1)
        out = np.zeros(len(gaps))
        padded = np.concatenate((np.zeros(cascsim.trace._PAD, np.uint8), source))
        words = np.ndarray((padded.size - 7,), "<u8", padded, 0, (1,))
        plain = cascsim.trace._read_plain_gaps(words, starts, stops, out)
        assert not plain[:len(other)].any() and plain[len(other):].mean() > 0.99
        assert out[plain].tobytes() == np.array(gaps)[plain].astype(float).tobytes()

    def test_a_bad_gap_is_not_hidden_by_the_memory_before_it(self):
        """The gaps before a field ``float`` rejects, read from their bytes or by
        ``float``, are written before the range check reads them, whatever the
        freed memory the column reuses held."""
        gaps = ["0.5", "5e-1"] * 20
        gaps[30] = "x"
        source = gap_csv(gaps)
        expected = load_outcome(load_trace_csv_rows, source)
        for size in range(30, 50):
            junk = [np.full(size, -1.0) for _ in range(20)]
            del junk
            assert load_outcome(load_trace_csv, source) == expected

    def test_without_x87_long_doubles_every_gap_goes_through_float(self, monkeypatch):
        """Where long doubles are not x87 extended, no gap is read from its bytes: a
        written 50,000-record trace loads bit for bit as the trace it was written
        from, and a bad gap fails as it does where they are."""
        trace = generate_synthetic_trace(params(count=50_000), seed=13)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        gaps = ["0.5", "5e-1"] * 20
        gaps[30] = "x"
        bad = load_outcome(load_trace_csv, gap_csv(gaps))
        monkeypatch.setattr(cascsim.trace, "_EXTENDED", False)
        assert load_outcome(load_trace_csv, buf.getvalue()) == (
            trace.bvsb.tobytes(), trace.light_correct.tobytes(), trace.heavy_correct.tobytes())
        assert load_outcome(load_trace_csv, gap_csv(gaps)) == bad
        assert bad[0] == "TraceError"


class TestSourceBytes:
    """A file or bytes source is read as a view of its own bytes (only inline str
    text is encoded), and only its header line is kept as text."""

    @pytest.fixture(params=["file", "bytes"])
    def as_source(self, request, tmp_path):
        """Turns CSV bytes into a path of a file that holds them, or keeps them."""
        def source(data: bytes):
            if request.param == "bytes":
                return data
            path = tmp_path / "trace.csv"
            path.write_bytes(data)
            return str(path)
        return source

    def test_empty_source_fails_at_row_1(self, as_source):
        with pytest.raises(TraceError) as err:
            load_trace_csv(as_source(b""), "fleet[0].trace.csv")
        assert str(err.value) == "fleet[0].trace.csv: row 1: trace file is empty"

    def test_valid_non_ascii_loads_as_its_text(self, as_source):
        """Fullwidth digits are UTF-8 text that ``int`` reads: bytes that are not
        ASCII are checked and then read as they are, as the same text is."""
        text = f"{HEADER}\r\n\uff10,0.5,1,0\r\n\uff11,0.25,0,1\n2,1.0,1,1\n"
        loaded = load_outcome(load_trace_csv, as_source(text.encode("utf-8")))
        assert loaded == load_outcome(load_trace_csv, text)
        assert loaded == (np.array([0.5, 0.25, 1.0]).tobytes(), bytes([1, 0, 1]),
                          bytes([0, 1, 1]))

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r\r\n"])
    def test_a_large_file_peaks_within_a_small_multiple_of_its_size(self, tmp_path, line_end):
        """A 200,000-record file's traced load peaks below 2.7x its size, LF, CRLF or
        CR CR LF (decoded whole and encoded back, it peaked at 3.0x and 5.1x; with
        the CR CR LF lines split and joined, at 6.65x). Smaller files do not show
        it: the ~5 MB of a block's temporaries dominate them."""
        buf = io.StringIO()
        write_trace_csv(generate_synthetic_trace(params(count=200_000), seed=12), buf)
        path = tmp_path / "trace.csv"
        path.write_bytes(buf.getvalue().replace("\n", line_end).encode("utf-8"))
        del buf
        load_trace_csv(str(path))  # first-call costs stay out of the peak
        tracemalloc.start()
        try:
            load_trace_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7 * path.stat().st_size, (peak, path.stat().st_size)


class TestForwardRate:
    """A trace's forward rate at the threshold calibration picks; a tolerance of 1
    never falls back, so the pick is the lowest grid point closest to the target."""

    @staticmethod
    def pick(trace, target):
        return calibrate_static_threshold(trace, target, 1.0)

    def test_threshold_zero_forwards_nothing(self):
        trace = make_trace([0.0, 0.5, 1.0], [1, 0, 1], [1, 1, 0])
        assert self.pick(trace, 0.01)[:2] == (0.0, 0.0)

    def test_hand_enumerated_fraction(self):
        trace = make_trace([0.1, 0.6, 0.9], [1, 1, 1], [1, 1, 1])
        assert self.pick(trace, 0.3)[:2] == (0.105, 1 / 3)

    def test_exact_one_stays_local_at_threshold_one(self):
        trace = make_trace([1.0, 1.0], [1, 0], [1, 1])
        assert self.pick(trace, 0.9).forward_rate == 0.0

    def test_rate_at_threshold_one_counts_everything_below_one(self):
        trace = make_trace([0.999, 1.0, 0.2, 1.0], [1, 1, 1, 1], [1, 1, 1, 1])
        assert self.pick(trace, 0.5)[:2] == (1.0, 0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        trace = make_trace(rng.random(500), rng.random(500) < 0.7, rng.random(500) < 0.8)
        picks = sorted(self.pick(trace, t)[:2] for t in np.linspace(0.01, 0.99, 99))
        rates = [rate for _, rate in picks]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_threshold_outside_unit_interval_rejected(self):
        """A fixed starting threshold outside [0, 1] is refused with the config."""
        for threshold in (1.5, -0.1, float("nan")):
            with pytest.raises(ConfigError) as err:
                SchedulerConfig(kind="static", initial_threshold=threshold).validate()
            assert err.value.field == "scheduler.initial_threshold"


class TestTraceSet:
    def test_columns_must_align(self):
        with pytest.raises(ConfigError):
            TraceSet([0.5, 0.6], [True], [False])

    def test_bvsb_bounds_enforced(self):
        with pytest.raises(ConfigError):
            make_trace([1.5], [1], [1])
        with pytest.raises(ConfigError):
            make_trace([0.5, float("nan")], [1, 1], [1, 1])

"""Per-sample trace data model: synthetic generation and CSV ingestion.

A trace stands in for running the real model pair. Each record keeps the light
model's confidence gap (difference of the two largest softmax probabilities)
and the correctness of both models on that sample, which is all the cascade
semantics ever look at.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import isfinite
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, TraceError

TRACE_CSV_HEADER = "sample_index,bvsb,light_correct,heavy_correct"
_BLOCK = 1 << 14  # records checked and converted at a time: the memory held beyond the text
_PIECE = 1 << 16  # the fewest bytes a piece stripped of line-ending CR runs holds
_CR_RUN = re.compile(rb"\r+\n")
_NL, _COMMA, _POINT, _ZERO, _ONE = b"\n,.01"
# a template record's last 4 bytes ``,L,H`` with its bits L and H set, and those bits
_TAIL, _TAIL_BITS = (int.from_bytes(tail, "little") for tail in (b",1,1", b"\0\1\0\1"))
_PAD = 24  # zero bytes before a block's words: one ends at a field's end and reaches 24 before it
_PLACES = 18  # digits after the point in a gap read from its bytes: its numeral stays below 10**19
_POW10 = 10 ** np.arange(_PLACES + 1, dtype=np.uint64)
# The bytes of each digit count 0..8 at the top of a little-endian word, and '0' below them.
_TOP_BYTES = np.array([~((1 << 64 - 8 * m) - 1) & (1 << 64) - 1 for m in range(9)], np.uint64)
_ZERO_FILL = np.array([0x3030303030303030 & (1 << 64 - 8 * m) - 1 for m in range(9)], np.uint64)
# Gaps are divided in x87 extended precision, whose 64-bit significand is the first 8 of a
# long double's 16 bytes; where long doubles are other, every gap goes through ``float``.
_EXTENDED = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
             and np.longdouble(1.5).tobytes()[:8] == (3 << 62).to_bytes(8, "little"))


class TraceSet:
    """Ordered, immutable trace held as three read-only numpy columns.

    Row i is sample i: sample indices are implicit and consecutive from 0.
    """

    __slots__ = ("bvsb", "light_correct", "heavy_correct")

    def __init__(self, bvsb, light_correct, heavy_correct):
        bvsb = np.asarray(bvsb, dtype=np.float64)
        light = np.asarray(light_correct, dtype=bool)
        heavy = np.asarray(heavy_correct, dtype=bool)
        if not (bvsb.shape == light.shape == heavy.shape) or bvsb.ndim != 1:
            raise ConfigError("trace", "columns must be 1-D and of equal length")
        if bvsb.size and not (bvsb.min() >= 0.0 and bvsb.max() <= 1.0):  # NaN fails too
            raise ConfigError("trace.bvsb", "values must lie in [0, 1]")
        bvsb.setflags(write=False)
        light.setflags(write=False)
        heavy.setflags(write=False)
        self.bvsb = bvsb
        self.light_correct = light
        self.heavy_correct = heavy

    def __len__(self) -> int:
        return int(self.bvsb.size)


@dataclass(frozen=True)
class SyntheticTraceParams:
    """Knobs for generating a synthetic trace.

    Correctness bits are drawn first (light as a Bernoulli, heavy conditioned
    on the light outcome so the light/heavy error correlation is explicit);
    the confidence gap is then drawn from a Beta distribution whose shape
    depends on whether the light model was right. The marginal heavy accuracy
    is la*hc + (1-la)*hw.
    """

    light_accuracy: float
    heavy_accuracy_given_light_correct: float
    heavy_accuracy_given_light_wrong: float
    bvsb_shape_correct: tuple[float, float] = (5.0, 1.0)
    bvsb_shape_wrong: tuple[float, float] = (1.2, 3.0)
    count: int = 5000

    def validate(self, path: str = "synthetic") -> None:
        """Raise ConfigError at ``path.<field>`` for the first value out of range."""
        for name in ("light_accuracy", "heavy_accuracy_given_light_correct",
                     "heavy_accuracy_given_light_wrong"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{path}.{name}", f"must be in [0, 1], got {value}")
        for name in ("bvsb_shape_correct", "bvsb_shape_wrong"):
            shape = getattr(self, name)
            if len(shape) != 2 or not all(isfinite(v) and v > 0 for v in shape):
                raise ConfigError(f"{path}.{name}",
                                  f"must be a pair of finite positive reals, got {shape}")
        if not 1 <= self.count <= sys.maxsize:
            raise ConfigError(f"{path}.count", f"must be in [1, {sys.maxsize}], got {self.count}")


def generate_synthetic_trace(params: SyntheticTraceParams, seed) -> TraceSet:
    """Generate a trace; a pure function of (params, seed).

    The seed may be an int or a sequence of ints (numpy SeedSequence entropy).
    """
    params.validate()
    rng = np.random.default_rng(seed)
    n = params.count
    light = rng.random(n) < params.light_accuracy
    heavy_p = np.where(light, params.heavy_accuracy_given_light_correct,
                       params.heavy_accuracy_given_light_wrong)
    heavy = rng.random(n) < heavy_p
    ac, bc = params.bvsb_shape_correct
    aw, bw = params.bvsb_shape_wrong
    bvsb_correct = rng.beta(ac, bc, n)
    bvsb_wrong = rng.beta(aw, bw, n)
    bvsb = np.where(light, bvsb_correct, bvsb_wrong)
    return TraceSet(bvsb, light, heavy)


def _first_false(ok: np.ndarray) -> Optional[int]:
    """Position of the first false entry of a boolean array, or None."""
    return None if ok.all() else int(np.argmin(ok))


def _text(chars: np.ndarray) -> str:
    """The text whose UTF-8 bytes ``chars`` holds."""
    return chars.tobytes().decode("utf-8", "surrogatepass")


def _digits(words: np.ndarray, counts: np.ndarray):
    """The value of the last ``counts`` bytes of each 8-byte little-endian word read
    as decimal digits, and whether they all are ASCII digits."""
    word = words & _TOP_BYTES[counts]
    word |= _ZERO_FILL[counts]
    ok = (((word + 0x4646464646464646) | (word - 0x3030303030303030)) & 0x8080808080808080) == 0
    for mask, scale, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),  # pairs of digits, then
                               (0x00FF00FF00FF00FF, 6553601, 16),  # fours, then eights
                               (0x0000FFFF0000FFFF, 42949672960001, 32)):
        word &= mask
        word *= scale  # wraps modulo 2**64; the shift keeps only the wanted digits
        word >>= shift
    return word, ok


def _read_plain_gaps(words: np.ndarray, starts: np.ndarray, stops: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Write the value ``float`` gives each field that is a digit, a point and 1 to
    18 digits (how ``repr`` writes a gap of at least 1e-4) into ``out``, and return
    which fields those are. ``words[i + _PAD]`` holds the 8 bytes from byte i of
    the fields' text on.

    The numeral w without its point is below 10**19, so w and 10**places are exact
    in the 64-bit significand, and one division rounds w / 10**places to it. Rounding
    that to a double gives the correctly rounded double, as ``float`` does, unless the
    first rounding landed on a tie between two doubles: such a field is left out.
    """
    if not _EXTENDED:
        return np.zeros(starts.size, bool)
    places = stops - starts - 2
    plain = (places >= 1) & (places <= _PLACES)
    places = np.where(plain, places, 0)
    head = words[starts + _PAD - 6] >> 48  # the lead digit and the point, a word's top 2 bytes
    lead = (head & 0xFF) - _ZERO  # others wrap
    plain &= (lead <= 9) & (head >> 8 == _POINT)
    numeral = lead * _POW10[places]
    for k in range(3):  # the last 8 digits, the 8 before them, the 2 before those
        value, ok = _digits(words[stops + _PAD - 8 * (k + 1)], np.clip(places - 8 * k, 0, 8))
        plain &= ok
        value *= _POW10[8 * k]
        numeral += value
    quotient = numeral.astype(np.longdouble) / _POW10.astype(np.longdouble)[places]
    plain &= (quotient.view(np.uint64)[::2] & 0x7FF) != 0x400  # the 11 bits below a double's
    np.copyto(out, quotient, "same_kind", plain)
    return plain


def _load_block(block: np.ndarray, ends: np.ndarray, first: int, gaps: np.ndarray,
                light: np.ndarray, heavy: np.ndarray):
    """Check the records whose bytes ``block`` holds, one a line ending where ``ends``
    says and rows ``first`` on, and write their columns into ``gaps``, ``light``
    and ``heavy``.

    A record that fits the template, its row's numeral of 1 to 8 digits, a comma,
    the gap and ``,L,H`` with bits L and H, has its fields where its line's start
    and end put them; any other record is split on its commas. Returns ``(row,
    message)`` for the block's earliest failing row and its first failing check,
    or ``(rows, None)``. Each check looks only at the rows before the earliest
    failure found so far, which have passed every earlier check.
    """
    begins = np.append(0, ends[:-1] + 1)
    rows = np.arange(first, first + ends.size, dtype=np.uint64)
    width = np.full(ends.size, len(str(first)))  # the digits of each row's numeral
    for places in range(len(str(first)), len(str(first + ends.size - 1))):
        width[10 ** places - first:] += 1
    comma = begins + width  # where the template puts the first comma
    padded = np.concatenate((np.zeros(_PAD, np.uint8), block))
    words = np.ndarray((padded.size - 7,), "<u8", padded, 0, (1,))  # 8 bytes from each byte
    value, digits = _digits(words[np.minimum(comma, block.size) + _PAD - 8],
                            np.minimum(width, 8))
    tail = words[ends + _PAD - 8] >> 32  # each line's last 4 bytes
    # the template: the row's numeral, a comma, a gap of one byte or more, then ``,L,H``
    fit = (width <= 8) & digits & (value == rows) & \
        (padded[np.minimum(comma, block.size - 1) + _PAD] == _COMMA) & \
        (ends - comma >= 6) & ((tail | _TAIL_BITS) == _TAIL)
    starts = np.stack((begins, comma + 1, ends - 3, ends - 1))  # each field's bounds, as
    stops = np.stack((comma, ends - 4, ends - 2, ends))  # the template puts them
    limit, failure = gaps.size, None  # every row before ``limit`` passes the checks so far
    for row in np.flatnonzero(~fit).tolist():
        at = int(begins[row])
        fields = block[at:ends[row]].tobytes().split(b",")
        if len(fields) != 4:
            limit, failure = row, f"expected 4 fields, got {len(fields)}"
            break
        for k, text in enumerate(fields):
            starts[k, row] = at
            at += len(text)
            stops[k, row] = at
            at += 1
    widths = stops - starts
    plain = _read_plain_gaps(words, starts[1, :limit], stops[1, :limit], gaps[:limit])
    # a template row holds 3 commas when its gap is plain; any other gap may hide more
    others = []  # each row whose gap goes through ``float``, with the gap's text
    for row in np.flatnonzero(~plain).tolist():
        text = _text(block[starts[1, row]:stops[1, row]])
        if "," in text:
            limit, failure = row, f"expected 4 fields, got {4 + text.count(',')}"
            break
        others.append((row, text))

    # a template row's index spells its row, which is what ``int`` reads it as
    nonconsecutive = None  # the first (row, index) read as another row's
    for row in np.flatnonzero(~fit[:limit]).tolist():
        try:
            index = int(_text(block[starts[0, row]:stops[0, row]]))
        except ValueError as exc:
            limit, failure = row, str(exc)
            break
        if index != first + row and nonconsecutive is None:
            nonconsecutive = row, index
    for row, text in others:
        if row >= limit:
            break
        try:
            gaps[row] = float(text)
        except ValueError as exc:
            limit, failure = row, str(exc)
            break
    if nonconsecutive is not None and nonconsecutive[0] < limit:
        limit, failure = nonconsecutive[0], \
            f"sample_index {nonconsecutive[1]} is not consecutive from 0"
    row = _first_false((gaps[:limit] >= 0.0) & (gaps[:limit] <= 1.0))  # NaN fails too
    if row is not None:
        limit, failure = row, f"bvsb {float(gaps[row])} outside [0, 1]"
    for name, k, bits in (("light_correct", 2, light), ("heavy_correct", 3, heavy)):
        byte = block[np.minimum(starts[k, :limit], block.size - 1)]
        row = _first_false((widths[k, :limit] == 1) & ((byte == _ZERO) | (byte == _ONE)))
        if row is not None:
            limit, failure = row, \
                f"{name} must be 0 or 1, got {_text(block[starts[k, row]:stops[k, row]])!r}"
        bits[:limit] = byte[:limit] == _ONE
    return limit, failure


def load_trace_csv(source: Union[str, bytes], field: str = "csv") -> TraceSet:
    """Load a trace from CSV text.

    Accepts a path, or raw bytes/str content containing a newline. Format:
    header `sample_index,bvsb,light_correct,heavy_correct`, booleans as 0/1, LF
    line endings (carriage returns that end a line are dropped), no quoting. A
    path that holds a NUL or cannot be read raises ConfigError at ``field``; a
    malformed record raises TraceError at ``field`` and the row.

    Records are read from a view of the file's or bytes source's own bytes (copied
    only to drop carriage returns; only inline str text is encoded), ``_BLOCK`` rows
    at a time. A record's fields are found from its line's start and end: its row's
    numeral in 1 to 8 ASCII digits, a comma, a gap of one byte or more, then
    ``,L,H`` with L and H each 0 or 1. A record that does not fit this template is
    split on its commas, and its index goes through ``int``. A gap goes through
    ``float`` only when ``_read_plain_gaps`` cannot read it, and a template record's
    gap is first checked for a comma. The error raised is at the earliest failing row and,
    within that row, is the first failing check in the order: field count, ``int``
    index, ``float`` gap, consecutive index, gap in [0, 1], light bit, heavy bit.
    """
    data = source
    if isinstance(source, str) and "\n" not in source:
        if "\0" in source:  # no file name holds one
            raise ConfigError(field, f"must not contain a NUL character, got {source!r}")
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(field, f"cannot read {source!r}: {exc.strerror}") from None
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif not data.isascii():
        try:
            data.decode("utf-8")  # a check only: the records are read from the bytes
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise TraceError(field, row, "not UTF-8 text") from None
    if not data:
        raise TraceError(field, 1, "trace file is empty")
    final = data.endswith(b"\n")  # a line end after the last record, which ends no record
    if b"\r" in data:  # each run of carriage returns that ends a line is dropped
        data = data.rstrip(b"\r").replace(b"\r\n", b"\n")
        if b"\r\n" in data:  # some line ended in several CRs: as ``sub`` makes an
            rest, data, at = data, bytearray(), 0  # object of each line, it takes a piece
            while at < len(rest):  # of whole lines at a time
                cut = rest.find(b"\n", at + _PIECE) + 1 or len(rest)
                data += _CR_RUN.sub(b"\n", rest[at:cut])
                at = cut
            del rest
    stop = len(data) - final
    newline = data.find(b"\n", 0, stop)
    header = data[:stop if newline < 0 else newline].decode("utf-8", "surrogatepass")
    if header != TRACE_CSV_HEADER:
        raise TraceError(field, 1, f"expected header {TRACE_CSV_HEADER!r}, got {header!r}")
    if newline < 0:
        raise TraceError(field, 2, "trace file has a header but no records")

    raw = np.frombuffer(data, np.uint8, stop - newline - 1, newline + 1)
    ends = np.append(np.flatnonzero(raw == _NL), raw.size)  # where each record's line ends
    gaps = np.empty(ends.size)
    light = np.empty(ends.size, bool)
    heavy = np.empty(ends.size, bool)
    for first in range(0, ends.size, _BLOCK):
        rows = slice(first, first + _BLOCK)
        start = ends[first - 1] + 1 if first else 0
        row, failure = _load_block(raw[start:ends[rows][-1]], ends[rows] - start, first,
                                   gaps[rows], light[rows], heavy[rows])
        if failure is not None:
            raise TraceError(field, first + row + 2, failure)
    return TraceSet(gaps, light, heavy)


def write_trace_csv(trace: TraceSet, stream) -> None:
    """Write a trace in the CSV format load_trace_csv accepts."""
    stream.write(TRACE_CSV_HEADER + "\n")
    rows = zip(trace.bvsb.tolist(), trace.light_correct.tolist(), trace.heavy_correct.tolist())
    for i, (bvsb, light, heavy) in enumerate(rows):
        stream.write(f"{i},{bvsb!r},{int(light)},{int(heavy)}\n")

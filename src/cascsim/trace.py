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
from functools import partial
from itertools import compress, count
from math import isfinite
from operator import ne
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, TraceError

TRACE_CSV_HEADER = "sample_index,bvsb,light_correct,heavy_correct"
_BITS = frozenset("01")
_LINE_END_CR = re.compile(r"\r+$", re.MULTILINE)  # what ``line.rstrip("\r")`` drops


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
        if not 0.0 <= self.marginal_heavy_accuracy <= 1.0:
            raise ConfigError(path, f"marginal heavy accuracy {self.marginal_heavy_accuracy} "
                              "outside [0, 1]")

    @property
    def marginal_heavy_accuracy(self) -> float:
        la = self.light_accuracy
        return la * self.heavy_accuracy_given_light_correct + \
            (1.0 - la) * self.heavy_accuracy_given_light_wrong


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


def _first(flags) -> Optional[int]:
    """Position of the first true item of an iterable, or None."""
    return next(compress(count(), flags), None)


def _first_false(ok: np.ndarray) -> Optional[int]:
    """Position of the first false entry of a boolean array, or None."""
    return None if ok.all() else int(np.argmin(ok))


def _parse_column(parse, column: list[str], collect=list):
    """Parse every string of ``column`` and ``collect`` the values into
    ``(values, None, None)``; at the first string ``parse`` rejects with a
    ``ValueError``, ``(the values before it, its row, the error's message)``."""
    try:
        return collect(map(parse, column)), None, None
    except ValueError:
        pass
    for row, raw in enumerate(column):  # rescan to find the row
        try:
            parse(raw)
        except ValueError as exc:
            return collect(map(parse, column[:row])), row, str(exc)


def _bit_column(name: str, column: list[str]):
    """The 0/1 strings of ``column`` as booleans: ``(bits, row, message)``, with
    ``row`` and ``message`` naming the first other string (None when there is none)."""
    if set(column) <= _BITS:  # one character a record, so the joined text is the column
        return np.frombuffer("".join(column).encode(), np.uint8) == ord("1"), None, None
    row = next(row for row, raw in enumerate(column) if raw not in _BITS)
    return None, row, f"{name} must be 0 or 1, got {column[row]!r}"


def load_trace_csv(source: Union[str, bytes], field: str = "csv") -> TraceSet:
    """Load a trace from CSV text.

    Accepts a path, or raw bytes/str content containing a newline. Format:
    header `sample_index,bvsb,light_correct,heavy_correct`, booleans as 0/1, LF
    line endings (carriage returns that end a line are dropped), no quoting. A
    path that cannot be read raises ConfigError at ``field``; a malformed record
    raises TraceError at ``field`` and the row.

    Records are checked a column at a time. The error raised is at the
    earliest failing row and, within that row, is the first failing check in
    the order: field count, ``int`` index, ``float`` gap, consecutive index, gap
    in [0, 1], light bit, heavy bit. Each check looks only at the rows before
    the earliest failure found so far, which have passed every earlier check.
    """
    data = source
    if isinstance(source, str) and "\n" not in source:
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(field, f"cannot read {source!r}: {exc.strerror}") from None
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise TraceError(field, row, "not UTF-8 text") from None
    del data  # each copy of the text goes once used: the peak is the split fields

    if not text:
        raise TraceError(field, 1, "trace file is empty")
    header, newline, body = text.removesuffix("\n").partition("\n")
    del text
    header = header.rstrip("\r")
    if header != TRACE_CSV_HEADER:
        raise TraceError(field, 1, f"expected header {TRACE_CSV_HEADER!r}, got {header!r}")
    if not newline:
        raise TraceError(field, 2, "trace file has a header but no records")

    # fields per record, from where its commas and its line break sit
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
    field_counts = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends),
                           prepend=0) + 1
    del raw
    limit, failure = ends.size, None  # every row before ``limit`` passes the checks so far
    row = _first_false(field_counts == 4)
    if row is not None:
        limit, failure = row, f"expected 4 fields, got {field_counts[row]}"

    if "\r" in body:
        body = _LINE_END_CR.sub("", body)
    body = body.replace("\n", ",")
    fields = body.split(",")
    del body
    # every record before ``limit`` has 4 fields, so field 4r + k is column k of row r
    index_col, gap_col, light_col, heavy_col = (fields[k:4 * limit:4] for k in range(4))
    del fields

    index, row, message = _parse_column(int, index_col)
    del index_col
    if row is not None:
        limit, failure = row, message
    gaps, row, message = _parse_column(float, gap_col[:limit],
                                        partial(np.fromiter, dtype=np.float64))
    del gap_col
    if row is not None:
        limit, failure = row, message
    row = _first(map(ne, index, range(limit)))
    if row is not None:
        limit, failure = row, f"sample_index {index[row]} is not consecutive from 0"
    del index
    row = _first_false((gaps[:limit] >= 0.0) & (gaps[:limit] <= 1.0))  # NaN fails too
    if row is not None:
        limit, failure = row, f"bvsb {float(gaps[row])} outside [0, 1]"
    light, row, message = _bit_column("light_correct", light_col[:limit])
    if row is not None:
        limit, failure = row, message
    heavy, row, message = _bit_column("heavy_correct", heavy_col[:limit])
    if row is not None:
        limit, failure = row, message

    if failure is not None:
        raise TraceError(field, limit + 2, failure)
    return TraceSet(gaps, light, heavy)


def write_trace_csv(trace: TraceSet, stream) -> None:
    """Write a trace in the CSV format load_trace_csv accepts."""
    stream.write(TRACE_CSV_HEADER + "\n")
    rows = zip(trace.bvsb.tolist(), trace.light_correct.tolist(), trace.heavy_correct.tolist())
    for i, (bvsb, light, heavy) in enumerate(rows):
        stream.write(f"{i},{bvsb!r},{int(light)},{int(heavy)}\n")

"""Per-sample trace data model: synthetic generation and CSV ingestion.

A trace stands in for running the real model pair. Each record keeps the light
model's confidence gap (difference of the two largest softmax probabilities)
and the correctness of both models on that sample, which is all the cascade
semantics ever look at.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from math import isfinite
from typing import Union

import numpy as np

from .errors import ConfigError, TraceError

TRACE_CSV_HEADER = "sample_index,bvsb,light_correct,heavy_correct"


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


def _parse_bool(field: str, column: str, raw: str, row: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise TraceError(field, row, f"{column} must be 0 or 1, got {raw!r}")


def load_trace_csv(source: Union[str, bytes, io.IOBase], field: str = "csv") -> TraceSet:
    """Load a trace from CSV text.

    Accepts a path, raw bytes/str content containing a newline, or a file-like
    object. Format: header `sample_index,bvsb,light_correct,heavy_correct`,
    booleans as 0/1, LF line endings, no quoting. A path that cannot be read
    raises ConfigError at ``field``; a malformed row raises TraceError at
    ``field`` and the row.
    """
    if hasattr(source, "read"):
        data = source.read()
    elif isinstance(source, bytes):
        data = source
    elif isinstance(source, str) and "\n" not in source:
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(field, f"cannot read {source!r}: {exc.strerror}") from None
    else:
        data = source
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = data.count(b"\n", 0, exc.start) + 1
            raise TraceError(field, row, "not UTF-8 text") from None

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceError(field, 1, "trace file is empty")
    header = lines[0].rstrip("\r")
    if header != TRACE_CSV_HEADER:
        raise TraceError(field, 1, f"expected header {TRACE_CSV_HEADER!r}, got {header!r}")
    if len(lines) == 1:
        raise TraceError(field, 2, "trace file has a header but no records")

    bvsb, light, heavy = [], [], []
    for row_no, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\r").split(",")
        if len(fields) != 4:
            raise TraceError(field, row_no, f"expected 4 fields, got {len(fields)}")
        try:
            idx = int(fields[0])
            score = float(fields[1])
        except ValueError as exc:
            raise TraceError(field, row_no, str(exc)) from None
        if idx != row_no - 2:
            raise TraceError(field, row_no, f"sample_index {idx} is not consecutive from 0")
        if not 0.0 <= score <= 1.0:
            raise TraceError(field, row_no, f"bvsb {score} outside [0, 1]")
        bvsb.append(score)
        light.append(_parse_bool(field, "light_correct", fields[2], row_no))
        heavy.append(_parse_bool(field, "heavy_correct", fields[3], row_no))

    return TraceSet(bvsb, light, heavy)


def write_trace_csv(trace: TraceSet, stream) -> None:
    """Write a trace in the CSV format load_trace_csv accepts."""
    stream.write(TRACE_CSV_HEADER + "\n")
    rows = zip(trace.bvsb.tolist(), trace.light_correct.tolist(), trace.heavy_correct.tolist())
    for i, (bvsb, light, heavy) in enumerate(rows):
        stream.write(f"{i},{bvsb!r},{int(light)},{int(heavy)}\n")

"""Row-by-row CSV trace loader: the reference ``cascsim.trace.load_trace_csv`` is
compared against.

It reads one record at a time and stops at the first check a record fails, in
the order field count, ``int`` index, ``float`` gap, consecutive index, gap in
[0, 1], light bit, heavy bit, so the error it raises is by construction the
earliest row's first failing check.
"""

from __future__ import annotations

import io
from typing import Union

from cascsim.errors import ConfigError, TraceError
from cascsim.trace import TRACE_CSV_HEADER, TraceSet


def _parse_bool(field: str, column: str, raw: str, row: int) -> bool:
    if raw == "0":
        return False
    if raw == "1":
        return True
    raise TraceError(field, row, f"{column} must be 0 or 1, got {raw!r}")


def load_trace_csv_rows(source: Union[str, bytes, io.IOBase], field: str = "csv") -> TraceSet:
    """Load a trace from a path, CSV bytes or text, or a file-like object,
    checking one record after another."""
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

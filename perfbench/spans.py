"""In-memory spans around calls into cascsim, and the per-layer arithmetic on them.

A span is one call of a wrapped cascsim function: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began (its
parent, -1 for none) and the id of the workload body it belongs to. Spans are
appended to flat arrays, so a traced body with a few hundred thousand calls
costs a few megabytes, and are written out once at the end of a run.

Wrappers are installed on the names that callers look up: ``cli`` imported
``run_simulation`` into its own namespace, so the wrapper goes on
``cascsim.cli.run_simulation``; methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Iterable, Optional, Sequence


class Tracer:
    """Span store for one process. ``run_id`` tags every span opened while set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self._open: list[int] = []
        self.run_id = 0
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[["Tracer", tuple, object], None]] = None) -> Callable:
        """Return ``fn`` wrapped so every call records one span named ``name``."""
        nid = self._intern(name)
        clock = time.perf_counter
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def spans(self, run_id: int) -> list[tuple[str, float, float, int, int]]:
        """(name, start, end, parent index, own index) for every span of one run."""
        names = self.names
        return [(names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], i)
                for i in range(len(self.start)) if self.run[i] == run_id]

    def write_tsv(self, path) -> None:
        """Write every span as ``index run name start end parent`` (times from the first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\trun\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.run[i]}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i] - origin!r}\t{self.end[i] - origin!r}\t"
                          f"{self.parent[i]}\n")


# -- interval arithmetic ------------------------------------------------------

def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def time_in(spans: Sequence[tuple], names: set[str]) -> float:
    """Time covered by spans with one of ``names``; nested ones count once."""
    return covered((s[1], s[2]) for s in spans if s[0] in names)


def self_time(spans: Sequence[tuple], name: str) -> float:
    """Summed duration of spans named ``name`` minus the time their direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return sum((s[2] - s[1]) - covered(children.get(s[4], ()))
               for s in spans if s[0] == name)


# -- installing wrappers ------------------------------------------------------

def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installation:
    """Wrappers set on live attributes; ``remove`` puts the originals back."""

    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap_attr(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.path`` with ``make(original)``; record it as missing if absent."""
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        setattr(owner, attr, make(original))
        self.installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()


def install_spans(tracer: Tracer, targets: Sequence[tuple], into: Installation) -> Installation:
    """Wrap each (span name, module, attribute path[, on_return]) target with ``tracer``."""
    for name, module, path, *hook in targets:
        on_return = hook[0] if hook else None
        into.wrap_attr(module, path,
                       lambda fn, name=name, on_return=on_return:
                       tracer.wrap(name, fn, on_return))
    return into

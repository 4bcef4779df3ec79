"""In-memory span recorder for the benchmark's traced run.

A :class:`SpanRecorder` wraps public methods of the fleet stack while a
traced phase runs.  Every wrapped call records one span — name, start,
end, parent span and the number of rows it handled — in plain lists;
nothing is written until the benchmark ends.  :meth:`SpanRecorder.patched`
restores the original methods on exit, so the untraced phases of the
same process run the unmodified code.

Self time of a span is its duration minus the time its child spans
cover.  The benchmark is single-threaded on the parent side, so the
children of one span never overlap and that cover is a plain sum.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = ["LayerTotals", "SpanRecorder"]


@dataclass(frozen=True)
class LayerTotals:
    """Time, self time, calls and rows of every span with one name."""

    seconds: float
    self_seconds: float
    calls: int
    busy_calls: int     # calls that handled at least one row
    rows: int


class SpanRecorder:
    """Record call spans of wrapped methods, parent-linked, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.rows.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, function, name: str, rows):
        recorder = self

        def traced(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._close(index)
            if rows is not None:
                recorder.rows[index] = int(rows(args, result))
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, span name, rows)`` targets, then restore.

        ``rows(args, result)`` gives the row count of one call, or is
        ``None`` for calls that carry no rows.
        """
        originals = []
        try:
            for owner, attribute, name, rows in targets:
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, rows))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name totals; self time excludes direct children."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        self_time = durations - child_time
        out = {}
        names = np.asarray(self.names, dtype=object)
        rows = np.asarray(self.rows, dtype=np.int64)
        for name in sorted(set(self.names)):
            mask = names == name
            out[name] = LayerTotals(
                seconds=float(durations[mask].sum()),
                self_seconds=float(self_time[mask].sum()),
                calls=int(mask.sum()),
                busy_calls=int((mask & (rows > 0)).sum()),
                rows=int(rows[mask].sum()),
            )
        return out

    def coverage(self, intervals) -> float:
        """Share of the ``(start, end)`` intervals covered by top-level spans.

        The reconciliation self-check: the layers the benchmark wraps
        must account for the wall time of the timed phase, with only the
        benchmark's own loop overhead left uncovered.
        """
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        top = np.asarray(self.parents, dtype=np.int64) < 0
        wall = covered = 0.0
        for lo, hi in intervals:
            wall += hi - lo
            inside = top & (starts >= lo) & (ends <= hi)
            covered += float((ends[inside] - starts[inside]).sum())
        return covered / wall if wall > 0 else 0.0

    def as_records(self) -> dict:
        """Column-wise span dump for the results file."""
        return {
            "name": list(self.names),
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
            "rows": list(self.rows),
        }

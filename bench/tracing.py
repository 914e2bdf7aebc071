"""In-memory spans around the calls the benchmark makes into the package's layers.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the index
of the enclosing span or -1. Spans are only appended while a run is in
progress and written out once, at exit. A span's self time is its duration
minus the durations of its direct children (calls are sequential, so
children never overlap). Host-speed calibrations are kept beside the spans,
each at the position it was taken, so self times can be scaled by the
calibrations nearest to them.
"""
from __future__ import annotations

import bisect
import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calibrations: list[tuple[int, dict]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index][2] = perf_counter_ns()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a leaf span and return its result."""
        parent = self._open[-1] if self._open else -1
        start = perf_counter_ns()
        result = fn(*args)
        self.spans.append([name, start, perf_counter_ns(), parent])
        return result

    def calibration(self, calibrate) -> dict:
        """Run ``calibrate`` and keep its result, placed after the spans recorded so far."""
        result = calibrate()
        self.calibrations.append((len(self.spans), result))
        return result

    def self_times_ns(self, factor=None) -> dict[str, list[float]]:
        """Self time of every span in recording order, keyed ``parent_name/name``.

        Root spans are keyed by their own name. With ``factor``, each self
        time is multiplied by ``factor(key, nearby)``, ``nearby`` being the
        (up to) five calibrations taken nearest to the span.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        positions = [position for position, _ in self.calibrations]
        out: dict[str, list[float]] = {}
        for i, ((name, start, end, parent), children) in enumerate(zip(self.spans, child_ns)):
            key = name if parent < 0 else f"{self.spans[parent][0]}/{name}"
            scale = 1.0
            if factor and self.calibrations:
                j = bisect.bisect(positions, i)
                scale = factor(key, [cal for _, cal in self.calibrations[max(0, j - 3): j + 2]])
            out.setdefault(key, []).append((end - start - children) * scale)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans,
                       "calibrations": self.calibrations}, fh)

"""In-memory spans around calls into the program's layers.

A span is (name, start, end, parent, run id). Spans are kept in a list while
the execution runs and written out once it ends; a layer's self time is its
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a version that records a span per call."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child_time[index])
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                handle.write(json.dumps(row) + "\n")

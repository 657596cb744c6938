"""In-memory spans around the benchmark's calls into ramseykit.

A span records its name, start, end, parent span and op id.  Names are
``<layer>.<call>``, where the layer is a ramseykit module (``coloring``,
``counting``, ``search``, ``structure``, ``regularity``, ``verify``,
``cli``); ``op.<kind>`` spans wrap one benchmark op and are the parents of
the layer spans made while it runs.  Spans are kept in a list and written
out once, when the run ends.

With tracing disabled, ``call`` is a plain call and nothing is recorded,
so the untraced run pays one extra Python call per layer call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; when enabled, record a span named ``name`` around it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Mark every span made inside as belonging to op ``op_id``."""
        self._op_id = op_id
        try:
            if self.enabled:
                with self._span(f"op.{kind}"):
                    yield
            else:
                yield
        finally:
            self._op_id = None

    @contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self._op_id))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op_id)

    def self_times(self, paused) -> list[float]:
        """Per span: its duration minus the time its child spans cover and
        minus ``paused(start, end)``, the benchmark's own time inside it."""
        duration = [end - start - paused(start, end) for _, start, end, _, _ in self.spans]
        self_time = list(duration)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                self_time[parent] -= duration[i]
        return self_time

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}))

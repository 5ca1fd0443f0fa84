"""Spans recorded around the benchmark's calls into ciprec's layers.

A span has a name (``<module>.<operation>``), start and end times from
``perf_counter``, the id of the span open around it, and a request id:
one per evaluated event or stream batch. Spans stay in memory and are
written as JSON lines when the run ends. With tracing off, ``call``
is a plain call and nothing is recorded.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder; a no-op when not ``enabled``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, str, int | None, float, float, object]] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, req=None, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, name, parent, start, end, req)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end, "req": req}) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds (total minus the
    time covered by direct children) and every duration in ms. Spans
    nest on one thread, so direct children never overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, parent, start, end, _req in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, name, _parent, start, end, _req in spans:
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_time[sid]
        s["ms"].append((end - start) * 1e3)
    return out

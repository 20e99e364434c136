"""In-memory spans around calls into the lorafreq package.

A span records its name, start and end (perf_counter_ns), its parent, the
workload, command and matrix it belongs to, counters set at the same boundary
and, when asked, the peak bytes tracemalloc saw inside it. numpy reports its
buffers to tracemalloc, so that peak attributes memory to the call.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Collects spans; a disabled tracer runs the same code and records nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, command, matrix=None, shape=None, alloc=False):
        """Yield a dict of counters that the caller may fill in."""
        counters: dict = {}
        if not self.enabled:
            yield counters
            return
        if alloc and tracemalloc.is_tracing():
            raise RuntimeError(f"allocation span {name} may not nest in another")
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "command": command,
            "matrix": matrix,
            "shape": list(shape) if shape else None,
            "counters": counters,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        if alloc:
            tracemalloc.start()
        span["start_ns"] = time.perf_counter_ns()
        try:
            yield counters
        finally:
            span["end_ns"] = time.perf_counter_ns()
            if alloc:
                span["alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it that its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"])
        - covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        for s in spans
    }


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

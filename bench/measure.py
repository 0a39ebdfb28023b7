"""Timing against a reference kernel, and span tracing.

The host's speed drifts by tens of percent over a few seconds, and process
CPU time drifts with wall time, so raw seconds from two runs are not
comparable. Every timed call is therefore followed by a fixed pure-Python
reference kernel; a call's wall time is divided by the mean of the kernel
times just before and just after it and multiplied by the kernel's nominal
seconds. The result is in seconds on a host running the kernel in exactly
NOMINAL_KERNEL_S.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import deque
from contextlib import contextmanager

# Typical time of one reference_kernel() call on the 2-CPU host the bounds in
# BENCHMARK.json were set on. A fixed constant: it only sets the scale.
NOMINAL_KERNEL_S = 0.2


def reference_kernel() -> int:
    """Fixed pure-Python work resembling the program's: tuple adjacency of a
    100k-node implicit graph (tens of MB, visited in scattered order), a BFS,
    a dict keyed by tuples, and edge-list formatting and parsing."""
    n = 100_000
    adj = [((i * 7919 + 1) % n, (i * 104729 + 5) % n, (i + 1) % n) for i in range(n)]
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for w in adj[x]:
            if dist[w] < 0:
                dist[w] = dx
                queue.append(w)
    index = {(i, ws[1]): ws[0] for i, ws in enumerate(adj)}
    total = sum(index[(i, adj[i][1])] for i in range(0, n, 2))
    text = "\n".join(f"{i} {dist[i]}" for i in range(0, n, 10))
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()]
    return total + len(pairs)


def process_age() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


class Clock:
    """Times calls, each between two reference-kernel runs."""

    def __init__(self) -> None:
        self.kernel_times: list[float] = []
        self._last = self.kernel()

    def kernel(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        reference_kernel()
        k = time.perf_counter() - t0
        self.kernel_times.append(k)
        return k

    def scale(self, before: float, after: float) -> float:
        return NOMINAL_KERNEL_S / ((before + after) / 2)

    def time(self, fn):
        """(result, raw wall seconds, normalized seconds) of fn()."""
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        before, self._last = self._last, self.kernel()
        return out, wall, wall * self.scale(before, self._last)


class Tracer:
    """Spans (name, start, end, parent) around calls into the program, with
    the gen-2 collections that ran inside each, counted via gc.callbacks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._gen2 = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] == 2:
            self._gen2 += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    @contextmanager
    def span(self, name: str, edges: int = 0):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "edges": edges,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        g0 = self._gen2
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["gen2"] = self._gen2 - g0
            self._stack.pop()

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)

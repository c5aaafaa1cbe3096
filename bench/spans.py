"""In-memory spans around the benchmark's own calls into cayleykit.

A span is ``[id, name, start, end, parent]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in a
child process line up with the parent's).  A span's layer is the part of
its name before the first dot; ``bench.*`` spans belong to the benchmark
itself and count as uncovered time.
"""

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

BENCH = "bench"
PASS = "bench.pass"


class Tracer:
    """Records nested spans; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [len(self.spans), name, perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def adopt(self, spans):
        """Append spans recorded elsewhere under the currently open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for sid, name, start, end, par in spans:
            self.spans.append([base + sid, name, start, end,
                               parent if par is None else base + par])


class NullTracer:
    """Stand-in used by untraced runs: every span is a no-op."""

    spans = ()
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def adopt(self, spans):
        pass


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name and per-layer figures over the spans under ``bench.pass``.

    Returns ``(passes, by_name, self_s, uncovered_s)``: the number of traced
    passes; for each span name its list of durations (every span, passes or
    not); the mean self time per pass of each layer; and the median per
    pass of the time no layer span covers.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s[3] - s[2])

    passes = [s for s in spans if s[1] == PASS]
    self_total = defaultdict(float)
    uncovered = []

    def walk(span):
        """Self times below ``span``; returns the time its layer spans cover."""
        dur = span[3] - span[2]
        kids = children[span[0]]
        layer = layer_of(span[1])
        if layer != BENCH:
            self_total[layer] += dur - sum(k[3] - k[2] for k in kids)
        kid_covered = sum(walk(k) for k in kids)
        return kid_covered if layer == BENCH else dur

    for p in passes:
        uncovered.append((p[3] - p[2]) - walk(p))
    n = len(passes)
    self_s = {k: v / n for k, v in self_total.items()} if n else {}
    return n, by_name, self_s, (statistics.median(uncovered) if n else 0.0)

"""In-memory spans recorded around calls into actsim's modules.

A span has a name ("predicates.RVal"), the layer it belongs to (the text
before the first dot), start and end times, the span that caused it and the
identifier of the history it serves.  Spans stay in memory and are summarised
when the run ends.  Probe spans time extra calls the benchmark makes only to
attribute cost (for example `rdt.context_of` per event); they are excluded
from every self-time sum.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    history: int | None
    start: float
    end: float = 0.0
    probe: bool = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and per-history counts when enabled; a disabled tracer
    makes `span` a no-op so the untraced run times the same code."""

    def __init__(self, enabled=True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []
        self.history = None

    @contextmanager
    def span(self, name, probe=False):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.history, self.clock(),
                 probe=probe)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield
        finally:
            s.end = self.clock()
            self._stack.pop()

    def count(self, name, n):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> its duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([k for k in kids if k[0] < k[1]])
    return out

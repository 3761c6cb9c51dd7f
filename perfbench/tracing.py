"""Spans around the benchmark's calls into condlat, kept in memory.

A span records its name, start, end, parent span and the id of the
verdict it belongs to.  Self time (a span's duration minus the time its
child spans cover) is accumulated per name as spans close, and the raw
spans are written out once the run is over.  Untraced runs use ``plain``
instead, which only forwards the call.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter


def plain(name, fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self, meters=None):
        self.meters = meters or {}     # function -> meter(args, result, counts)
        self.counts = Counter()
        self.self_time = Counter()     # span name -> seconds
        self.names = []
        self._name_id = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._verdict = array("l")
        self._stack = []               # (span index, child seconds)
        self.verdict = -1

    def _open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._verdict.append(self.verdict)
        self._end.append(0.0)
        self._stack.append([i, 0.0])
        self._start.append(perf_counter())
        return i

    def _close(self, i):
        end = perf_counter()
        self._end[i] = end
        _, child = self._stack.pop()
        dur = end - self._start[i]
        self.self_time[self.names[self._name[i]]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def call(self, name, fn, *args):
        i = self._open(name)
        try:
            result = fn(*args)
        finally:
            self._close(i)
        meter = self.meters.get(fn)
        if meter is not None:
            meter(args, result, self.counts)
        return result

    def verdict_span(self, vid, kind, run):
        """Run one verdict under a root span named after its kind."""
        self.verdict = vid
        i = self._open("verdict." + kind)
        try:
            return run(self.call)
        finally:
            self._close(i)
            self.verdict = -1

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, verdict.

        Times are seconds on the process's perf_counter clock.
        """
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tverdict\n")
            for i in range(len(self._start)):
                out.write(f"{self.names[self._name[i]]}\t{self._start[i]:.9f}\t"
                          f"{self._end[i]:.9f}\t{self._parent[i]}\t{self._verdict[i]}\n")

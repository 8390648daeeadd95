"""Span recording for the benchmark's traced mode.

A `Tracer` replaces chosen library functions and methods with wrappers
that record one span per call: name, start, end and the span that was
open when the call began.  Wrappers are installed by `wrap` and
removed by `uninstall`, so an untraced run executes the library
unpatched.  Spans live in flat arrays (about 22 bytes each) and are
written out with `write` when the run ends.

Self time is a span's duration minus the time covered by its direct
children.  Wrapper overhead lands in the caller's self time, which is
why the benchmark reports `trace_overhead_ratio` next to the numbers.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple] = []
        # counters kept at the same boundaries as the spans
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr, remembering the old value for uninstall."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around every call of owner.attr.

        before(args, kwargs) runs ahead of the span; after(args, kwargs,
        result) runs once the call has returned.
        """
        orig = vars(owner)[attr]
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        n = len(self.start)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k])
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as a length-prefixed JSON header and four raw arrays
        (name index, parent span index or -1, start, end in seconds of
        time.perf_counter) in native byte order."""
        arrays = (("name", self.name_of), ("parent", self.parent),
                  ("start", self.start), ("end", self.end))
        header = json.dumps({
            "names": self.names, "spans": len(self.start),
            "arrays": [[k, a.typecode] for k, a in arrays]}).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for _, a in arrays:
                a.tofile(fh)

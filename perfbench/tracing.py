"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces module attributes such as ``sle_dyson.dyson.sample_stationary``
with timing wrappers.  ``cli`` and the library modules look those names up at
call time, so the wrappers also see the calls the program makes internally.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
import functools
import json
import time


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int | None  # workload-operation id, None outside the timed pass


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    ``label`` maps the call's arguments to a suffix of the span name;
    ``count`` maps (result, *args) to counters.  With ``span=False`` only
    the counters are kept (for functions called thousands of times).
    """

    module: object
    attr: str
    name: str
    label: object = None
    count: object = None
    span: bool = True


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        # the same counters split by operation id
        self.op_counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.span:
                name = target.name + (target.label(*args, **kwargs)
                                      if target.label else "")
                with self.span(name):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            if target.count:
                for key, val in target.count(out, *args, **kwargs).items():
                    self.counts[key] += val
                    if self.op is not None:
                        self.op_counts[self.op][key] += val
            return out
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in targets:
                if not hasattr(t.module, t.attr):
                    continue  # the program no longer has this function
                orig = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, orig))
                setattr(t.module, t.attr, self._wrap(orig, t))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def totals(self) -> tuple[dict, dict]:
        """Summed duration per span name, and self time per layer.

        A span's self time is its duration minus its children's; the layer
        is the first dotted component of the span name.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, s in enumerate(self.spans):
            d = s.end - s.start
            total[s.name] += d
            self_time[s.name.split(".", 1)[0]] += d - child[i]
        return total, self_time

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

"""In-process spans around the public functions of each ineqscan layer.

The tracer swaps module attributes for wrappers, so the package itself is
not edited: a call that goes through `verifier.partition_y` or
`sequences.row` is seen, because the package looks those names up in
their modules at call time.  Spans stay in memory until the run ends.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent, trace id), for
  the few coarse functions such as the claim checks;
* timed: per-call time summed into one total, for hot functions such as
  `sequences.row` that run hundreds of thousands of times;
* counted: a call count only, for the comparison kernel.

Span and timed wrappers add their duration to the enclosing span's child
time, so a span's self time is its duration minus the part its children
cover.  Calls run on one thread, so children never overlap.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # [trace_id, name, start, end, parent index or None, child seconds]
        self.spans = []
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.aggregates = []
        self.trace_id = 0
        self._stack = []
        self._patched = []

    def _patch(self, module, attr, make_wrapper):
        orig = getattr(module, attr)
        self._patched.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make_wrapper(orig)))

    def restore(self):
        """Put every wrapped attribute back."""
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def span(self, module, attr, name):
        spans, stack = self.spans, self._stack

        def make(orig):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                rec = [self.trace_id, name, 0.0, 0.0, parent, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                rec[2] = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    stack.pop()
                    if parent is not None:
                        spans[parent][5] += rec[3] - rec[2]

            return wrapper

        self._patch(module, attr, make)

    def timed(self, module, attr, name):
        spans, stack, calls, seconds = self.spans, self._stack, self.calls, self.seconds

        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    calls[name] += 1
                    seconds[name] += dt
                    if stack:
                        spans[stack[-1]][5] += dt

            return wrapper

        self._patch(module, attr, make)

    def counted(self, modules, attr, name):
        """Count calls of one function under every module that binds it."""
        calls = self.calls
        orig = getattr(modules[0], attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        for module in modules:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def end_trace(self):
        """Close the current trace: keep its call totals, start the next id."""
        self.aggregates.append(
            {"trace_id": self.trace_id, "calls": dict(self.calls), "seconds": dict(self.seconds)}
        )
        self.calls.clear()
        self.seconds.clear()
        self.trace_id += 1
        return self.aggregates[-1]

    def span_totals(self, trace_id):
        """Per span name in one trace: (total seconds, self seconds)."""
        total, own = defaultdict(float), defaultdict(float)
        for tid, name, start, end, _, child in self.spans:
            if tid == trace_id:
                total[name] += end - start
                own[name] += end - start - child
        return total, own

    def to_json(self):
        return {
            "spans": [
                {"trace_id": t, "name": name, "start": s, "end": e, "parent": p}
                for t, name, s, e, p, _ in self.spans
            ],
            "aggregates": self.aggregates,
        }

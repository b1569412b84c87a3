"""Spans and counts around calls into the package's public functions.

Tracer.install rebinds each traced function in every omegatrans module that
holds it, so calls that a module makes through its own imported name (cli's
is_1_bounded, sst's sst_monoid, fot's bulk_evaluate, ...) are seen as well
as calls the benchmark makes.  Spans stay in memory until dump().  A span's
self time is its duration minus the time covered by its child spans.
"""

import json
import time


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child", "counts")

    def __init__(self, name, parent, op, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None
        self.child = 0.0
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._installed = []

    def begin_op(self, op_id, name):
        """Open the root span of one benchmark operation."""
        self._op = op_id
        return self._open(name)

    def end_op(self, index):
        self._close(index)
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._op, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child += span.duration

    def wrap(self, func, name, count):
        """A stand-in for func recording one span per call.

        count(args, kwargs, result, exc) returns the span's counts; it sees
        the exception instead of a result when the call raises.
        """

        def traced(*args, **kwargs):
            if self._op is None:
                # outside an operation: the benchmark's own checks
                return func(*args, **kwargs)
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self._close(index)
                self.spans[index].counts = count(args, kwargs, None, exc)
                raise
            self._close(index)
            self.spans[index].counts = count(args, kwargs, result, None)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, modules, specs):
        """specs: (module, attribute, span name, count function) tuples."""
        for module, attr, name, count in specs:
            func = getattr(module, attr)
            traced = self.wrap(func, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, traced)
                        self._installed.append((mod, key, func))

    def uninstall(self):
        for mod, key, func in reversed(self._installed):
            setattr(mod, key, func)
        self._installed = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": s.parent,
                            "op": s.op,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "counts": s.counts or {},
                        }
                    )
                    + "\n"
                )


"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.wrap`` replaces a
module attribute with a wrapper that times each call.  Callers that look
the function up through the module at call time (``dyn.detected_stokes``,
``solve_ivp`` inside ``dynamics``) then go through the wrapper; nothing
inside ``nlfaraday`` is edited.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import json
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []   # [id, parent, op, name, start, end, counters]
        self._stack = []
        self.op = None    # id of the operation in progress, None in set-up

    def wrap(self, module, attr, name, on_result=None) -> bool:
        """Time every call of ``module.attr``; False when it does not exist.

        ``name`` is a span name or a function of the call's positional
        arguments; ``on_result(counters, result)`` adds counters to the span.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False

        def wrapper(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else None, self.op,
                   name(*args) if callable(name) else name, _clock(), None, {}]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[5] = _clock()
            if on_result is not None:
                on_result(rec[6], result)
            return result

        setattr(module, attr, wrapper)
        return True

    def per_op(self, name, kind):
        """{op: value} summed over the op's spans called ``name``.

        ``kind`` is "total" (inclusive seconds), "self" (seconds not
        covered by child spans), "calls", or the name of a span counter.
        """
        child_time = {}
        if kind == "self":
            for s in self.spans:
                if s[1] is not None:
                    child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        out = {}
        for s in self.spans:
            if s[3] != name:
                continue
            if kind == "total":
                v = s[5] - s[4]
            elif kind == "self":
                v = (s[5] - s[4]) - child_time.get(s[0], 0.0)
            elif kind == "calls":
                v = 1
            else:
                v = s[6].get(kind, 0)
            out[s[2]] = out.get(s[2], 0) + v
        return out

    def write(self, path, header):
        """One JSON header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end, counters in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, **counters,
                }) + "\n")

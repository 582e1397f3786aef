"""Timing wrappers installed around the package's public functions.

Functions are wrapped from outside: every module attribute that is
bound to a traced function object is replaced by its wrapper, so a
call through ``hier.log_gamma``, ``refdist.log_gamma`` or a
``np.vectorize(log_gamma)`` built at call time is counted as well as
one through ``numerics.log_gamma``.  A traced name that the package no
longer defines is skipped and reports zero calls.

Functions called 10^5-10^7 times per workload are counters (calls and
accumulated time); the others record one span (name, start, end,
parent) per call.  Spans stay in memory until ``write_spans``.  Self
time is a call's duration minus the time covered by its traced
children, so the self times of all names sum to the root span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Names are "<module>.<attribute>" under the overallprior package.
# Counters: functions called 10^5-10^7 times per workload.
COUNTERS = ("numerics.log_gamma", "numerics.digamma", "numerics.trigamma",
            "numerics.kl_beta", "refdist.reference_predictive")
# Counters that call no other traced function.
LEAVES = ("numerics.log_gamma", "numerics.digamma", "numerics.trigamma")
# Every other public function of these modules records spans.
SPAN_MODULES = ("numerics", "hier", "refdist", "shrinkage", "cli")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []                   # (name, start_ns, end_ns, parent)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.iterations = defaultdict(int)
        # Open calls: [name, span index or None, enclosing span, child_ns]
        self._stack = []

    def _enter(self, name, is_span):
        parent = self._stack[-1] if self._stack else None
        enclosing = None if parent is None else (
            parent[1] if parent[1] is not None else parent[2])
        index = None
        if is_span:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, index, enclosing, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        name, index, enclosing, child_ns = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        if index is not None:
            self.spans[index] = (name, start, end, enclosing)

    def wrap(self, name, fn):
        stack, calls, total_ns = self._stack, self.calls, self.total_ns
        if name in LEAVES:
            def leaf(*args, **kwargs):
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _clock() - start
                    calls[name] += 1
                    total_ns[name] += duration
                    self.self_ns[name] += duration
                    if stack:
                        stack[-1][3] += duration
            return leaf

        is_span = name not in COUNTERS

        def traced(*args, **kwargs):
            frame = self._enter(name, is_span)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, _clock())
            iterations = getattr(result, "iterations", None)
            if isinstance(iterations, int):
                self.iterations[name] += iterations
            return result
        return traced

    @contextmanager
    def span(self, name):
        frame = self._enter(name, True)
        start = _clock()
        try:
            yield
        finally:
            self._exit(frame, start, _clock())

    @contextmanager
    def installed(self):
        """Patch every binding of each traced function in the
        overallprior modules; restore them on exit."""
        wrappers = {}
        for qualified in COUNTERS + public_functions():
            mod_name, attr = qualified.split(".")
            fn = getattr(_module(mod_name), attr, None)
            if callable(fn) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.wrap(qualified, fn))
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "overallprior" or name.startswith("overallprior.")]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def descendants(self, index, name):
        """Spans called ``name`` nested under span ``index``."""
        out = []
        for i in range(index + 1, len(self.spans)):
            span = self.spans[i]
            if span[1] >= self.spans[index][2]:
                break
            if span[0] == name:
                out.append(span)
        return out

    def span_indices(self, name, parent=None):
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (parent is None or s[3] == parent)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}))
                fh.write("\n")



def _module(name):
    try:
        return importlib.import_module("overallprior." + name)
    except ImportError:
        return None


def public_functions():
    """Qualified names of the functions listed in each span module's
    ``__all__`` (``main`` for cli), counters excluded."""
    names = []
    for mod_name in SPAN_MODULES:
        module = _module(mod_name)
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            qualified = f"{mod_name}.{attr}"
            if callable(fn) and not isinstance(fn, type) \
                    and qualified not in COUNTERS:
                names.append(qualified)
    return tuple(names)

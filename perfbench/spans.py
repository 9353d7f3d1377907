"""Outside-in spans around connexion's public functions, for traced runs.

The package binds functions by name (``from .engine import trace``), so a
wrapper has to replace every module attribute that refers to a function, not
only the attribute of the module that defines it.  ``Tracer.install`` does
that for the functions in ``TRACED`` and ``Tracer.uninstall`` puts the
originals back, so untraced passes run the unmodified package.

Spans are kept in memory and turned into metrics once, after the run.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _trace_info(traj):
    switches = sum(1 for e in traj.events if e[1] == "chart_switch")
    return {"steps": len(traj.samples) - 1,
            "t_span": traj.t_end - traj.samples[0].t,
            "term": traj.termination, "switches": switches}


def _verdict_info(verdict):
    return {"tag": verdict.tag}


# (defining module, public function, summary of its result kept on the span)
TRACED = (
    ("engine", "trace", _trace_info),
    ("engine", "self_intersections", None),
    ("engine", "cross_intersections", None),
    ("engine", "first_integral", None),
    ("omega", "classify", _verdict_info),
    ("omega", "detect_period", None),
    ("omega", "section_crossings", None),
    ("omega", "transversal_analysis", None),
    ("omega", "ring_domain_probe", None),
    ("omega", "saddle_connection_search", None),
    ("polygons", "connect_unique", None),
    ("localchart", "adapted_chart", None),
    ("svg", "render_scene", None),
    ("cli", "main", None),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Records spans (name, start, end, parent) around wrapped calls.

    A call is recorded only inside a root span opened with ``root``.  Calls
    made from worker threads (the portrait thread pool) take the innermost
    open span of the thread that opened the root as their parent.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root_stack = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name):
        stack = self._stack()
        self._root_stack = stack
        span = Span(name, None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._root_stack:
                parent = self._root_stack[-1]
            else:
                return fn(*args, **kwargs)
            span = Span(name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if info is not None:
                span.info = info(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if not self._patched:
            modules = [m for n, m in list(sys.modules.items()) if m is not None
                       and (n == "connexion" or n.startswith("connexion."))]
            for mod_name, fn_name, info in TRACED:
                orig = getattr(sys.modules.get(f"connexion.{mod_name}"), fn_name, None)
                if orig is None:      # gone from this version: its metrics stay 0
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig, wrapper))
        for mod, attr, _orig, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _wrapper in self._patched:
            setattr(mod, attr, orig)

    @contextmanager
    def recording(self, name):
        """Wrappers installed and a root span open for the body only."""
        self.install()
        try:
            with self.root(name):
                yield
        finally:
            self.uninstall()


def self_times(spans) -> dict:
    """Self time of each span, keyed by ``id(span)``.

    A span's exclusive intervals are the parts of [start, end] that none of
    its children cover.  Where exclusive intervals of several spans overlap
    (children running in parallel threads), the overlap is shared evenly, so
    the self times of all spans sum to the total duration of the root spans.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    edges = []
    for s in spans:
        cur = s.start
        for c in sorted(kids[id(s)], key=lambda c: c.start):
            if c.start > cur:
                edges.append((cur, 1, s))
                edges.append((c.start, -1, s))
            cur = max(cur, c.end)
        if s.end > cur:
            edges.append((cur, 1, s))
            edges.append((s.end, -1, s))
    edges.sort(key=lambda e: (e[0], e[1]))
    out = defaultdict(float)
    active = {}
    prev = None
    for t, delta, span in edges:
        if active and t > prev:
            share = (t - prev) / len(active)
            for key in active:
                out[key] += share
        key = id(span)
        if delta > 0:
            active[key] = span
        else:
            active.pop(key, None)
        prev = t
    return out

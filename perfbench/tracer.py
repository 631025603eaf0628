"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` wraps every public function defined in the traced layers
and rebinds each wrapper wherever a ``clausius_lab`` module namespace (or a
module-level dict such as the CLI's scenario table) holds the original, so
calls made through imported names are seen too. ``uninstall`` puts every
original back. Spans (id, parent, name, start, end, raised) stay in memory;
the benchmark writes them out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("gaussian", "bath", "process", "oracle", "info", "cli")


class Tracer:
    def __init__(self, capture=()):
        # spans: (id, parent id or None, name, start, end, raised, captured call or None)
        self.spans: list[tuple] = []
        self.capture = frozenset(capture)
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        keep = name in self.capture

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, raised = None, True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                call = (fn, args, kwargs, result) if keep and not raised else None
                spans.append((sid, parent, name, t0, t1, raised, call))

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"clausius_lab.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "clausius_lab" and not modname.startswith("clausius_lab."):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]
                            self._patched.append((val, key, item))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span(self, name):
        """Context manager recording a benchmark-side span (e.g. one op)."""
        return _Span(self, name)

    def stats(self) -> dict[str, dict]:
        """calls, inclusive time, self time and raise count per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the same thread.
        """
        child_time: dict[int, float] = {}
        for sid, parent, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, _, name, t0, t1, raised, _ in self.spans:
            s = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "raised": 0})
            s["calls"] += 1
            s["time_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            s["raised"] += int(raised)
        return out

    def captured(self, names):
        """(name, start, end, bound arguments, result) of each captured call to ``names``."""
        for _, _, name, t0, t1, _, call in self.spans:
            if call is not None and name in names:
                fn, args, kwargs, result = call
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                yield name, t0, t1, bound.arguments, result

    def write(self, path: Path) -> None:
        rows = [[sid, parent, name, t0, t1, raised] for sid, parent, name, t0, t1, raised, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"columns": ["id", "parent", "name", "start", "end", "raised"], "spans": rows}),
            encoding="utf-8",
        )


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        stack = getattr(t._local, "stack", None)
        if stack is None:
            stack = t._local.stack = []
        self.sid, self.parent = next(t._ids), (stack[-1] if stack else None)
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append((self.sid, self.parent, self.name, self.t0, t1, exc_type is not None, None))
        self.start, self.end = self.t0, t1

"""Outside-in tracer: times a module's public functions by rebinding them.

``Tracer.install`` replaces every public function defined in a module with a
wrapper on the module object.  A call looked up through the module attribute
passes through the wrapper: ``spectral.companion_kmd(...)`` from ``cli``, and
also a bare ``energy_norm(...)`` inside ``spectral``, because a module's
globals are its attributes.  Names another module bound with
``from module import name`` are not rebound, so those calls count as the
caller's own time.  No file of the program changes.

Each span records a name, start, end and parent.  Spans stay in memory until
``write`` dumps them at the end of the process.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self, module, prefix: str) -> None:
        """Wrap every public function defined in ``module``."""
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            self._saved.append((module, name, obj))
            setattr(module, name, self._wrap(f"{prefix}.{name}", obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span_name, fn, *args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  A span nested inside a span of the same name does not add
    again to the inclusive time.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
        row["self_s"] += (end - start) - child_s[i]
        if not _has_ancestor(spans, i, name):
            row["total_s"] += end - start
    return out


def nested(spans, name: str, ancestor: str) -> list[float]:
    """Durations of the spans called ``name`` that run inside ``ancestor``."""
    return [
        end - start
        for i, (n, start, end, _) in enumerate(spans)
        if n == name and _has_ancestor(spans, i, ancestor)
    ]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False

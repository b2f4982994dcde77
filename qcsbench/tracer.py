"""Outside-in span tracer for the qcsradar package.

The tracer wraps public functions of the package from the outside: for each
target it replaces every module-level binding of the function inside
``qcsradar`` (the defining module and every module that imported it by
name), so calls made between modules and within a module are both seen.
Nothing under ``src/`` changes; ``restore`` puts the original objects back.

Each call records one span ``(name, start, end, parent)`` in memory, where
``parent`` is the index of the enclosing traced call (-1 at the top).
Spans are written out once, at the end of a run.  A span's self time is
its duration minus the durations of its direct children; calls are
synchronous, so children never overlap each other or outlive the parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Holds spans and per-boundary counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, observe=None, name_of=None):
        """Return ``fn`` wrapped to record a span per call.

        ``observe(tracer, args, kwargs, result)`` runs after a successful
        call, outside the span, to record counters at the boundary.
        ``name_of(args, kwargs)`` refines the span name from the arguments.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Patch every binding of each target inside the ``qcsradar`` package.

        ``targets`` maps ``"module.function"`` (module relative to the
        package) to ``(observe, name_of)`` hooks, either of which may be
        None.
        """
        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "qcsradar" or mod_name.startswith("qcsradar."))
        }
        for target, (observe, name_of) in targets.items():
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(modules[f"qcsradar.{module_name}"], func_name)
            wrapped = self.wrap(target, original, observe, name_of)
            for mod in modules.values():
                if getattr(mod, func_name, None) is original:
                    self._patched.append((mod, func_name, original))
                    setattr(mod, func_name, wrapped)

    def restore(self):
        """Undo every patch made by :meth:`install`."""
        for mod, func_name, original in reversed(self._patched):
            setattr(mod, func_name, original)
        self._patched.clear()

    def summary(self):
        """Per span name: call count, total self time and inclusive durations (s)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["durations"].append(end - start)
        return stats

    def write(self, path):
        """Write the spans (times relative to the first span) and counters as JSON."""
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [ids[name], round(start - origin, 9), round(end - origin, 9), parent]
                        for name, start, end, parent in self.spans
                    ],
                    "counters": dict(self.counters),
                },
                fh,
                separators=(",", ":"),
            )

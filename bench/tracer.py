"""Outside-in span tracer for the poissonlab modules.

The tracer replaces module attributes (e.g. ``pde.assemble_system`` and every
other module binding of the same function object, such as
``estimates.zygmund_norm``) with timing wrappers, and puts the originals back
on exit.  Nothing inside the package is edited: a call is traced when the
caller looks the name up in a module namespace at call time, which is how the
package calls its own layers.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written out
once, after the run.  A span's self time is its duration minus the time its
direct child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Wraps ``targets`` ({span name: function}) wherever the function is
    bound in ``modules``.  ``hooks`` maps a span name to ``(before, after)``:
    ``before(tracer, args, kwargs)`` may return replacement kwargs and
    ``after(tracer, args, kwargs, result)`` records counts."""

    def __init__(self, targets: dict, modules, hooks: dict | None = None):
        self.targets = targets
        self.modules = list(modules)
        self.hooks = hooks or {}
        self.spans: list = []
        self.counts = defaultdict(float)
        self.op = None
        self.label = None
        self.op_labels: list = []
        self._stack: list = []
        self._saved: list = []

    def begin(self, label: str) -> None:
        """Start a new operation; its spans share one id, and counters are
        kept per operation label."""
        self.op = len(self.op_labels)
        self.op_labels.append(label)
        self.label = label

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``key`` for the current operation label."""
        self.counts[(key, self.label)] += value

    def _wrap(self, name, fn):
        before, after = self.hooks.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(self, args, kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, fn in self.targets.items():
            wrapper = self._wrap(name, fn)
            bound = [(mod, attr) for mod in self.modules
                     for attr, val in vars(mod).items() if val is fn]
            if not bound:
                raise LookupError(f"{name}: function is not bound in any traced module")
            for mod, attr in bound:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self) -> dict:
        """{span name: total self time in seconds}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return dict(out)

    def total_times(self) -> dict:
        """{span name: total inclusive time}; nested calls of the same name
        are counted once, at the outermost span."""
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": self.op_labels, "spans": self.spans}, fh)
            fh.write("\n")

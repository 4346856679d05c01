"""In-memory spans for the traced run.

One span per task, a child span per library call the task makes, and a
grandchild for each public library function that call reaches in turn (see
``instrument``).  Each span holds its name (``<module>.<function>``), start,
end, parent and task id.  Spans stay in memory until ``dump`` writes them out
at the end of the run.  A span's self time is its duration minus the part of
it its children cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or None, task id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._task_id = -1
        self._leaf = False

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span, a child of the innermost open one."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self._task_id])
        self._open.append(index)
        try:
            return fn(*args)
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def leaf(self, name, fn, *args):
        """A span whose callees are not recorded, so that its self time is
        all of it."""
        self._leaf = True
        try:
            return self.span(name, fn, *args)
        finally:
            self._leaf = False

    def nested(self, name: str, fn):
        """fn, recording a span only when called inside an open span that is
        not a leaf; elsewhere (checks, digests) it runs untouched."""

        def wrapper(*args, **kwargs):
            if not self._open or self._leaf:
                return fn(*args, **kwargs)
            return self.span(name, lambda: fn(*args, **kwargs))

        return wrapper

    def task(self, task_id: int, name: str, fn, *args):
        self._task_id = task_id
        return self.span(name, fn, *args)

    def wrap(self, limited):
        """A ``call(name, fn, *args)`` that runs ``limited(fn, *args)`` in a span."""

        def call(name, fn, *args):
            return self.span(name, limited, fn, *args)

        return call

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self seconds, and number of spans."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        seconds: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            seconds[name] += (end - start) - covered
            calls[name] += 1
        return dict(seconds), dict(calls)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "task")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, package: str, layers: tuple[str, ...]):
    """Route calls between the layers through spans, from outside the package.

    Every public function of each layer module (its ``__all__``) is replaced,
    in the namespace of every layer module that refers to it, by a wrapper
    that opens a span named ``<layer>.<function>``.  Calls the library makes
    to its own public functions, such as ``cospectral`` to ``charpoly``, then
    become child spans, and self times stay with the function doing the work.
    Everything is restored on exit.
    """
    modules = [importlib.import_module(f"{package}.{layer}") for layer in layers]
    wrappers = {}
    for layer, module in zip(layers, modules):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.nested(f"{layer}.{name}", fn)
    replaced = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                replaced.append((module, name, value))
                setattr(module, name, wrappers[value])
    try:
        yield
    finally:
        for module, name, value in replaced:
            setattr(module, name, value)


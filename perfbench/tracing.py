"""Span recorder for the traced benchmark run.

Wrappers are installed from the benchmark's side, never inside the program:
every public function a layer module defines is replaced under every name a
layer module binds it to (``model.hausdorff`` and ``transform.
project_onto_polytope`` as well as ``geometry.hausdorff``), so calls are seen
whichever module makes them.  ``lp`` functions call each other through the
module's globals, so replacing the module attribute catches those too.

A span is ``(name_id, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the workload operation it
belongs to (-1 for one-time set-up).  Spans stay in memory until the run
ends.  Self time is a span's duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.op = -1
        self._ids = {}
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """fn with a span named `name` around every call."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, name, fn, *args):
        """Call fn(*args) as operation op_id, inside a root span `name`."""
        self.op = op_id
        return self.wrap(name, fn)(*args)


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(layers, classes):
    """{function: span name} for the functions the traced run wraps.

    Every public function defined in a layer module, plus ``__init__`` and
    the public methods of each class in `classes`.
    """
    found = {}
    for module in layers:
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[obj] = f"{_short(module)}.{name}"
    for cls in classes:
        module = _short(inspect.getmodule(cls))
        for name, obj in vars(cls).items():
            if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                found[obj] = f"{module}.{cls.__name__}.{name}"
    return found


@contextmanager
def installed(tracer, layers, classes):
    """Replace the functions of public_functions() by traced wrappers in
    every layer module and class namespace that binds them; restore on exit."""
    wrappers = {
        fn: tracer.wrap(name, fn)
        for fn, name in public_functions(layers, classes).items()
    }
    patched = []
    for owner in (*layers, *classes):
        for attr, obj in list(vars(owner).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((owner, attr, obj))
                setattr(owner, attr, wrappers[obj])
    try:
        yield
    finally:
        for owner, attr, obj in patched:
            setattr(owner, attr, obj)


def summarize(names, spans):
    """(calls, self_s) per span name."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for index, (name_id, start, end, _, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        self_s[name] += (end - start) - child_time[index]
    return calls, self_s


def calls_under(names, spans, callee, parent_prefix):
    """Number of `callee` spans whose direct parent's name starts with parent_prefix."""
    count = 0
    for name_id, _, _, parent, _ in spans:
        if (
            names[name_id] == callee
            and parent >= 0
            and names[spans[parent][0]].startswith(parent_prefix)
        ):
            count += 1
    return count


def write_spans(path, names, spans):
    """One tab-separated line per span: name, start, end, parent, op."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
        for index, (name_id, start, end, parent, op) in enumerate(spans):
            fh.write(f"{index}\t{names[name_id]}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

"""Spans around functions of an already imported package, from outside it.

A `Tracer` replaces named functions with timing wrappers.  A function that
other modules imported by name (`from .matrices import rref`) is replaced
wherever the very same object is bound, in every module of the package and
in class namespaces too, so that aliases such as `__rmul__ = __mul__` are
counted as well.  Names that no longer exist are reported as absent.

Each thread keeps its own span stack.  A span's self time is its thread CPU
time (`time.thread_time`) minus the thread CPU time of its child spans, so
time a thread spends waiting for the interpreter lock is charged to no span.
Spans are kept in memory as tuples and aggregated after the run.
"""

import functools
import itertools
import sys
import threading
import time

# fields of one finished span
ID, PARENT, NAME, THREAD, WALL0, WALL1, CPU, SELF_CPU, ARG0 = range(9)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _namespaces(self):
        """Every module of the package and every class defined in one."""
        prefix = self.package + "."
        mods = [m for n, m in list(sys.modules.items()) if m is not None
                and (n == self.package or n.startswith(prefix))]
        spaces = list(mods)
        for m in mods:
            spaces += [v for v in vars(m).values()
                       if isinstance(v, type) and v.__module__ == m.__name__]
        return spaces

    def install(self, targets, keep_arg0=()):
        """Wrap each target, given as "module:qualname" relative to the
        package ("matrices:rref", "poly:MultiPoly.subst").  The span name is
        "module.qualname".  Targets in `keep_arg0` also record their first
        positional argument.  A target that cannot be found, or is bound
        nowhere it could be replaced, is added to `absent`."""
        spaces = self._namespaces()
        for target in targets:
            modname, qualname = target.split(":")
            name = "%s.%s" % (modname, qualname)
            obj = sys.modules.get("%s.%s" % (self.package, modname))
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            replaced = 0
            if callable(obj):
                wrapper = self._wrap(obj, name, target in keep_arg0)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is obj:
                            setattr(space, attr, wrapper)
                            self._undo.append((space, attr, obj))
                            replaced += 1
            if not replaced:
                self.absent.append(name)

    def uninstall(self):
        for space, attr, obj in reversed(self._undo):
            setattr(space, attr, obj)
        self._undo.clear()

    def _wrap(self, fn, name, keep_arg0):
        ids, local, spans = self._ids, self._local, self.spans
        thread_time, perf_counter = time.thread_time, time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - c0
                w1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                spans.append((frame[0], parent, name, get_ident(), w0, w1,
                              cpu, cpu - frame[1],
                              args[0] if keep_arg0 and args else None))
        return span


def aggregate(spans):
    """Per span name: calls, total CPU and self CPU; per module: self CPU."""
    by_name, by_module = {}, {}
    for s in spans:
        row = by_name.setdefault(s[NAME], {"calls": 0, "cpu_s": 0.0,
                                           "self_cpu_s": 0.0})
        row["calls"] += 1
        row["cpu_s"] += s[CPU]
        row["self_cpu_s"] += s[SELF_CPU]
        module = s[NAME].split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + s[SELF_CPU]
    return by_name, by_module


def span_cost(n=20000):
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - t0

    wrapped = Tracer("calibration")._wrap(noop, "calibration.noop", False)
    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(wrapped) for _ in range(3))
    return max(traced - bare, 0.0) / n

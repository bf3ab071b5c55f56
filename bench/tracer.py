"""Span recorder for the traced benchmark run.

`Tracer.install()` finds the public functions and public methods of every
`k3lines` module at run time and wraps each one in a span.  Module-level
aliases (`from .fqf import brown_invariant` in another module, or the
package namespace) are rebound to the same wrapper, so every call path is
seen.  Nothing is hard-coded by name except the thread pool: a function that
a later version renames or deletes simply drops out of the report.

A span is named `<module>.<function>`; methods are named by module and
method (`fqf.q_of`), so same-named methods of two classes in one module
share a name.  Each work item that `parallel_map` runs is a span named
`<caller>.task` (for example `fano.enumerate_fragments.task`), whose parent
is the submitting `parallel_map` span, whichever thread runs it.

Spans are charged in thread CPU time.  `k3lines` is CPU-bound and holds the
interpreter lock while it computes, so with two worker threads a span's wall
time would include the time it waited for the lock while the other thread
ran.  CPU time charges each span only for its own work:
  * own: CPU time of the span's thread between its start and end;
  * self: own minus the own time of its children on the same thread;
  * inclusive: own plus the inclusive time of work it handed to other
    threads (counted for the outermost call only under recursion).
The self times of all spans add up to the CPU time spent inside root spans
and worker-thread tasks (`top_cpu_s`).  Stored spans also carry wall-clock
start and end times.

Spans stay in memory (the first `MAX_SPANS` in full, every span in the
aggregates) and are written out by `dump()` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import pkgutil
import threading
import time

PACKAGE = "k3lines"
POOL = "parallel.parallel_map"
MAX_SPANS = 100_000  # spans kept in full; the aggregates count every span


class _Frame:
    __slots__ = ("span_id", "name", "child_cpu", "foreign_cpu", "foreign")

    def __init__(self, span_id: int, name: str):
        self.span_id = span_id
        self.name = name
        self.child_cpu = 0.0  # own time of same-thread children
        self.foreign_cpu = 0.0  # other-thread work below same-thread children
        self.foreign: list[float] = []  # inclusive time of other-thread children


class Tracer:
    def __init__(self):
        # (id, parent id, name, thread, wall start, wall end, cpu start, cpu end)
        self.spans: list[tuple] = []
        self.top_cpu = 0.0  # own time of root spans and worker-thread tasks
        # (wall, workers, task CPU) per outermost parallel_map call
        self.pool_calls: list[tuple[float, int, float]] = []
        self.observers: dict = {}  # name -> fn(args, kwargs, result)
        self.wrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.depth
        except AttributeError:
            local.stack = []
            # name -> [calls, inclusive, self]; "parent>child" -> count
            local.stats = {}
            local.depth = {}  # name -> active calls, to spot recursion
            with self._lock:
                self._per_thread.append(local.stats)
            return local.stack, local.stats, local.depth

    def _finish(self, frame, parent, owner, times, stats, depth) -> float:
        """Account a finished span.  `parent` is its caller on the same
        thread, `owner` the submitting span on another thread; returns the
        span's inclusive time."""
        w0, w1, c0, c1 = times
        own = c1 - c0
        inclusive = own + frame.foreign_cpu + sum(frame.foreign)
        name = frame.name
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[2] += own - frame.child_cpu
        if depth.get(name, 0) == 0:
            entry[1] += inclusive
        up = parent or owner
        if up is not None:
            edge = f"{up.name}>{name}"
            stats[edge] = stats.get(edge, 0) + 1
        if parent is not None:
            parent.child_cpu += own
            parent.foreign_cpu += inclusive - own
        else:
            if owner is not None:
                owner.foreign.append(inclusive)
            with self._lock:
                self.top_cpu += own
        if len(self.spans) < MAX_SPANS:
            self.spans.append((
                frame.span_id, up.span_id if up else None, name,
                threading.get_ident(), w0, w1, c0, c1,
            ))
        return inclusive

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self
        wall, cpu = time.perf_counter, time.thread_time
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            stack, stats, depth = tracer._state()
            parent = stack[-1] if stack else None
            frame = _Frame(next(tracer._ids), name)
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            w0, c0 = wall(), cpu()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                c1, w1 = cpu(), wall()
                stack.pop()
                depth[name] -= 1
                tracer._finish(frame, parent, None, (w0, w1, c0, c1),
                               stats, depth)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def pool_span(self, fn, thread_count):
        """Wrap `parallel_map(fn, items, threads)` so that each work item
        runs in a task span parented by this call's span."""
        tracer = self
        wall, cpu = time.perf_counter, time.thread_time

        def traced_map(work_fn, items, *args, **kwargs):
            stack, _, depth = tracer._state()
            owner = stack[-1]  # this call's own span
            caller = stack[-2].name if len(stack) > 1 else "parallel"
            task_name = f"{caller}.task"
            inherited = [f.name for f in stack]
            outermost = depth.get(POOL, 0) == 1
            task_cpu: list[float] = []

            def task(item):
                stack, stats, depth = tracer._state()
                parent = stack[-1] if stack else None  # set when run inline
                if parent is None:  # a worker thread continues the caller
                    for n in inherited:
                        depth[n] = depth.get(n, 0) + 1
                frame = _Frame(next(tracer._ids), task_name)
                stack.append(frame)
                depth[task_name] = depth.get(task_name, 0) + 1
                w0, c0 = wall(), cpu()
                try:
                    return work_fn(item)
                finally:
                    c1, w1 = cpu(), wall()
                    stack.pop()
                    depth[task_name] -= 1
                    if parent is None:
                        for n in inherited:
                            depth[n] -= 1
                    task_cpu.append(tracer._finish(
                        frame, parent, None if parent else owner,
                        (w0, w1, c0, c1), stats, depth,
                    ))

            work = list(items)
            threads = args[0] if args else kwargs.get("threads", 1)
            workers = max(1, min(thread_count(threads), len(work)))
            start = wall()
            try:
                return fn(task, work, *args, **kwargs)
            finally:
                if outermost:
                    tracer.pool_calls.append(
                        (wall() - start, workers, sum(task_cpu))
                    )

        traced = self.span(POOL, traced_map)
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if not info.name.startswith("_")
        ]
        replaced: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                    value, "__module__", None
                ) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    if name == POOL:
                        resolve = getattr(mod, "resolve_thread_count", None)
                        wrapper = self.pool_span(value, _thread_counter(resolve))
                    else:
                        wrapper = self.span(name, value)
                    replaced[id(value)] = wrapper
                    self.wrapped.append(name)
                elif inspect.isclass(value):
                    for meth, member in list(vars(value).items()):
                        if meth.startswith("_") or not inspect.isfunction(member):
                            continue
                        setattr(value, meth, self.span(f"{short}.{meth}", member))
                        self.wrapped.append(f"{short}.{attr}.{meth}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -- reporting ----------------------------------------------------------

    def aggregates(self) -> tuple[dict[str, list], dict[str, int]]:
        """({name: [calls, inclusive s, self s]}, {"parent>child": count}),
        summed over all threads."""
        spans: dict[str, list] = {}
        edges: dict[str, int] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for key, value in list(table.items()):
                if isinstance(value, int):
                    edges[key] = edges.get(key, 0) + value
                    continue
                entry = spans.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    entry[i] += value[i]
        return spans, edges

    def dump(self, path, extra: dict) -> None:
        spans, edges = self.aggregates()
        fields = ("id", "parent", "name", "thread", "wall_start", "wall_end",
                  "cpu_start", "cpu_end")
        doc = {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "dropped_spans": sum(c for c, _, _ in spans.values())
            - len(self.spans),
            "top_cpu_s": self.top_cpu,
            "aggregates": spans,
            "edges": edges,
            "pool_calls": self.pool_calls,
            "wrapped": self.wrapped,
        }
        doc.update(extra)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def _thread_counter(resolve):
    def count(threads):
        if resolve is not None:
            return resolve(threads)
        return (os.cpu_count() or 1) if threads is None else threads
    return count

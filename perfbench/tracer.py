"""Span tracing at the package's module boundaries, from outside the package.

``Tracer.installed()`` replaces every public function of each ``uppertail``
module, at every module-level name it is bound to (the names other modules
import), plus ``HostGraph.__init__`` and ``HostGraph.without_edges``, with a
wrapper that records a span and restores the originals on exit.  Nothing in
``src/`` is edited, and untraced passes run the original functions.

A span is (name, start, end, parent span, job id); spans are kept in flat
arrays in memory and saved once, at the end.  The layer of a span is the
module that defines the function.  A layer's self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "graphs", "patterns", "rates", "counting", "meanfield", "montecarlo", "structures")
HOST_METHODS = ("__init__", "without_edges")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.job = array("i")
        self.job_labels: list[str] = []
        self._stack: list[int] = []
        self._job = -1

    def begin_job(self, label: str) -> None:
        self.job_labels.append(label)
        self._job = len(self.job_labels) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        start, end, parent, names, job, stack = (
            self.start, self.end, self.parent, self.name, self.job, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            job.append(self._job)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the package's modules for the duration of the block."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers: dict[int, object] = {}
        undo: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(package.__name__ + ".")
                ):
                    if id(obj) not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        host_cls = package.graphs.HostGraph
        for method in HOST_METHODS:
            original = host_cls.__dict__[method]
            undo.append((host_cls, method, original))
            setattr(host_cls, method, self._wrap(original, f"graphs.HostGraph.{method}"))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        layer_of_name = np.array(
            [LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0], dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return {
            "start": start, "end": end, "parent": parent, "name": name,
            "job": np.array(self.job, dtype=np.int64), "layer": layer_of_name[name],
            "duration": duration, "self": duration - child,
        }

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.arrays(), self.names, self.job_labels)

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, start=a["start"], end=a["end"], parent=a["parent"], name=a["name"],
            job=a["job"], names=np.array(self.names), jobs=np.array(self.job_labels))


class TraceSummary:
    """Queries over one pass's spans."""

    def __init__(self, arrays: dict, names: list[str], job_labels: list[str]):
        self.a = arrays
        self.names = names
        self.job_labels = job_labels

    def _in_jobs(self, job_prefix) -> np.ndarray:
        if job_prefix is None:
            return np.ones(len(self.a["job"]), dtype=bool)
        jobs = [i for i, label in enumerate(self.job_labels) if label.startswith(job_prefix)]
        return np.isin(self.a["job"], jobs)

    def _named(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.a["name"], ids)

    def _outermost(self, member: np.ndarray) -> np.ndarray:
        """Members with no member among their ancestors: summing their
        durations counts each covered interval once."""
        parent = self.a["parent"]
        has = parent >= 0
        up = np.maximum(parent, 0)
        inside = np.zeros(len(parent), dtype=bool)
        while True:  # one step per nesting level
            widened = has & (member[up] | inside[up])
            if np.array_equal(widened, inside):
                return member & ~inside
            inside = widened

    def self_time(self, layer: str) -> float:
        return float(self.a["self"][self.a["layer"] == LAYERS.index(layer)].sum())

    def layer_time(self, layer: str, job_prefix=None) -> float:
        """Time spent inside the layer, children included."""
        member = self.a["layer"] == LAYERS.index(layer)
        return float(self.a["duration"][self._outermost(member) & self._in_jobs(job_prefix)].sum())

    def function_time(self, names, job_prefix=None) -> float:
        """Time spent inside the named functions, children included."""
        member = self._named(names)
        return float(self.a["duration"][self._outermost(member) & self._in_jobs(job_prefix)].sum())

    def calls(self, layer=None, names=None, job_prefix=None) -> int:
        keep = self._in_jobs(job_prefix)
        if layer is not None:
            keep &= self.a["layer"] == LAYERS.index(layer)
        if names is not None:
            keep &= self._named(names)
        return int(keep.sum())

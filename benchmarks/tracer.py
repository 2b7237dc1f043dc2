"""Span tracer that times voachain's layers from outside the program.

`instrument` wraps every public function of the seven layer modules
(and the arithmetic methods of `TruncatedSeries`) and rebinds each
wrapper in every voachain module that holds the original, because the
package imports names with `from .x import f`: wrapping
`voachain.voa.sphere_matrix_element` alone would miss the calls that
`voachain.correlators` makes through its own binding.

A span records its name, its parent span and its start and end; spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans (children of one span never
overlap: the program is single-threaded).  Counters are kept apart from
the spans and do not depend on timing, so they repeat exactly.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import update_wrapper

import oracles

LAYERS = ("series", "voa", "elliptic", "correlators", "schottky", "complexes", "cli")

# TruncatedSeries methods traced under the series layer; __radd__ and
# __rmul__ are aliases of __add__ and __mul__ and share their names.
SERIES_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__rmul__": "mul", "invert": "invert", "compare": "compare",
}


def _fields(args, kwargs, result):
    """Fields contracted by one sphere matrix element: the parts of the
    boundary states and of every inserted basis state."""
    u_out, insertions, u_in = args
    return {"fields": len(u_out.partition) + len(u_in.partition)
            + sum(len(state.partition) for state, _ in insertions)}


def _states(args, kwargs, result):
    """Fock states one graded trace visits: p(k) per q-order, and p(k)
    bridge states for each of them when a left operator is inserted."""
    q_order = kwargs.get("q_order", args[1] if len(args) > 1 else None)
    left = kwargs.get("left_operator", args[2] if len(args) > 2 else None)
    p = oracles.partition_counts(q_order)
    return {"states": sum(p) + (sum(n * n for n in p) if left is not None else 0)}


def _pairs(args, kwargs, result):
    """nnz of the inverse Gram matrix handed to the caller's pair sum."""
    _, hinv = result
    return {"pairs": sum(1 for row in hinv for c in row if c != 0)}


COUNTERS = {
    "voa.sphere_matrix_element": _fields,
    "correlators.torus_qseries": _states,
    "schottky.handle_pairing": _pairs,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict = {}  # traced name -> unwrapped callable
        self.pass_ends: list[int] = []  # span count at the end of each pass
        self.pass_counts: list[dict] = []
        self.pass_hit_ratios: list[float] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        counter = COUNTERS.get(name)
        counts = self.counts
        calls_key = f"{name}.calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            counts[calls_key] += 1
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return update_wrapper(traced, fn)

    def end_pass(self) -> None:
        """Close a pass: keep its counters and the handle-pairing cache
        hit ratio (hits over lookups; the lookups are its calls)."""
        self.pass_ends.append(len(self.start))
        self.pass_counts.append(dict(self.counts))
        self.counts.clear()
        info = self.originals["schottky.handle_pairing"].cache_info()
        lookups = info.hits + info.misses
        self.pass_hit_ratios.append(info.hits / lookups if lookups else 0.0)

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time by span name over spans first..last-1."""
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(float)
        for i in range(first, last):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path, meta: dict) -> None:
        """Spans as gzipped JSON lines: one header, then one
        [id, parent, name, start, end] row per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**meta, "names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{i},{self.parent[i]},{self.name[i]},{self.start[i]!r},{self.end[i]!r}]\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, keeping the originals
    in ``tracer.originals``."""
    package = sys.modules["voachain"]
    modules = [m for n, m in sys.modules.items() if n == "voachain" or n.startswith("voachain.")]
    for layer in LAYERS:
        mod = sys.modules[f"voachain.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, obj)
            tracer.originals[name] = obj
            for other in modules:
                if vars(other).get(attr) is obj:
                    setattr(other, attr, wrapped)
    series_cls = package.series.TruncatedSeries
    wrapped_methods = {}
    for attr, short in SERIES_METHODS.items():
        name = f"series.{short}"
        if name not in wrapped_methods:
            wrapped_methods[name] = tracer.wrap(name, vars(series_cls)[attr])
        setattr(series_cls, attr, wrapped_methods[name])

"""Span tracing of the abinitio layers, applied from outside the package.

Every public function of the package (a name in ``abinitio.__all__`` that is
a function) is wrapped where each ``abinitio`` module binds it, and
``Graph.induced`` is wrapped on the class that defines it.  A wrapped call
records one span: the layer function's name, its start and end on the
``perf_counter`` clock, and the span of the nearest wrapped caller.  Spans
are kept in flat arrays while the run lasts, written out when it ends, and
the per-layer metrics are derived from them.

Three counts cannot be read from spans and are taken at the same boundary:
the embeddings each ``enumerate_embeddings`` call returns, the subsets each
``connected_subsets`` generator yields, and the orientation rounds of each
``closure`` (the length of its witness chain).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "predimension", "amalgam", "zero_decomposition",
          "extension", "verifier", "approximation")

# Methods traced on the class that defines them, as (module, class, method).
METHODS = (("graph", "Graph", "induced"),)

# Spans are recorded with no ancestor when this index is on top of the stack.
_ROOT = -1


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [_ROOT]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [sys.modules[f"{package.__name__}.{name}"]
                               for name in sorted(_bound_modules(package))]
        for name in package.__all__:
            fn = getattr(package, name)
            if not inspect.isfunction(fn):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            wrapper = self._wrap(fn, f"{layer}.{fn.__name__}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            fn = cls.__dict__[method]
            self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        nid = self._name_id(name)
        post = _RESULT_COUNTS.get(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                self._count(post[0], post[1](out))
            return out

        return traced

    def _wrap_generator(self, fn, name: str):
        # A generator's work runs inside its consumer's next() calls, so it
        # is left to the consumer's span; only calls and yields are counted.
        calls, yielded = f"{name}.calls", f"{name}.yielded"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(calls, 1)
            for item in fn(*args, **kwargs):
                self._count(yielded, 1)
                yield item

        return traced

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- output ----------------------------------------------------------

    def write(self, stem: Path) -> None:
        """Spans as four raw arrays in ``<stem>.spans`` plus a JSON header
        naming their layout, the span names and the boundary counts."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(f)
        header = {
            "spans": len(self.span_start),
            "layout": ["name:int32", "parent:int32", "start:float64",
                       "end:float64"],
            "names": self.names,
            "counts": self.counts,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))

    def layer_totals(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every traced name, and
        ``extension.sweep_passes``: report calls whose parent span is a level
        stage.  Self time is a span's duration minus its children's."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p != _ROOT:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        out: dict[str, float] = dict(self.counts)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        report = self.name_ids.get("zero_decomposition.uniform_algebraicity_report")
        stage = self.name_ids.get("extension.build_level_stage")
        out["extension.sweep_passes"] = sum(
            1 for i in range(n)
            if self.span_name[i] == report and self.span_parent[i] != _ROOT
            and self.span_name[self.span_parent[i]] == stage)
        return out


def _bound_modules(package) -> set[str]:
    prefix = package.__name__ + "."
    return {name[len(prefix):] for name in sys.modules
            if name.startswith(prefix) and name.count(".") == 1}


# Boundary counts taken from a traced call's return value.
_RESULT_COUNTS = {
    "graph.enumerate_embeddings": ("graph.enumerate_embeddings.results", len),
    "predimension.closure": ("predimension.closure.rounds",
                             lambda res: len(res.witness_chain)),
}

"""Span tracer that times every public function of every rpr3 layer from outside.

A layer is one module of the package.  Its public functions are the names in
the module's ``__all__``; for public classes, their ``__init__``, arithmetic
operators, public methods and properties count too, so that constructing
and combining ``Vec2`` values is charged to ``geometry``.

``install`` replaces each function in every ``rpr3`` module namespace that
holds it, so names brought in with ``from .geometry import ...`` are traced
as well, and patches the class attributes in place; ``uninstall`` restores
everything.  Spans (function, parent span, op index, start, end) are kept
in flat arrays in memory and written out by ``save`` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from enum import Enum

import numpy as np

LAYERS = ("geometry", "solvers", "jacobians", "coupler", "oracle", "figio", "cli")
_TRACED_DUNDERS = {"__init__", "__add__", "__sub__", "__mul__", "__rmul__"}
OP = 0  # function id of the benchmark's own per-op root span


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.layers = ["bench"]  # layer of each function id
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op_index = -1
        self.newton_iterations = 0  # summed from traced dkp_bruteforce reports
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # ------------------------------------------------------------ wrappers

    def _new_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        fid = self._new_id(name, layer)
        fids, parents, ops = self.fid, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_index < 0:  # benchmark checks between ops are not traced
                return fn(*args, **kwargs)
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(self._op_index)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _count_newton(self, traced):
        """``traced`` (the dkp_bruteforce wrapper), also summing the Newton
        iterations of the reports it returns during ops."""

        @functools.wraps(traced)
        def counted(*args, **kwargs):
            report = traced(*args, **kwargs)
            if self._op_index >= 0:
                self.newton_iterations += report.newton_iterations
            return report

        return counted

    def _plan(self) -> None:
        """Build every wrapper and the list of attributes to patch."""
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rpr3.{layer}")
            for public in module.__all__:
                obj = getattr(module, public)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{public}"
                    wrapper = self._wrap(obj, name, layer)
                    if name == "oracle.dkp_bruteforce":
                        wrapper = self._count_newton(wrapper)
                    wrapped[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(
                    obj, (Enum, tuple, BaseException)
                ):
                    self._plan_class(obj, f"{layer}.{public}", layer)
        for modname, module in list(sys.modules.items()):
            if modname != "rpr3" and not modname.startswith("rpr3."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value, wrapper))

    def _plan_class(self, cls, qualname: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            name = f"{qualname}.{attr}"
            if inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                new = self._wrap(member, name, layer)
            elif isinstance(member, property) and member.fget is not None:
                new = property(
                    self._wrap(member.fget, name, layer),
                    member.fset,
                    member.fdel,
                    member.__doc__,
                )
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, name, layer))
            else:
                continue
            self._patches.append((cls, attr, member, new))

    def install(self) -> None:
        for target, attr, _, new in self._patches:
            setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old, _ in self._patches:
            setattr(target, attr, old)

    # --------------------------------------------------------------- spans

    def run_op(self, op_index: int, fn, *args):
        """Run ``fn(*args)`` under a root span for benchmark op ``op_index``."""
        self._op_index = op_index
        try:
            return self._op_span(fn, *args)
        finally:
            self._op_index = -1

    def _op_span(self, fn, *args):
        starts, stack = self.start, self._stack
        i = len(starts)
        self.fid.append(OP)
        self.parent.append(-1)
        self.op.append(self._op_index)
        starts.append(0)
        self.end.append(0)
        stack.append(i)
        starts[i] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.end[i] = time.perf_counter_ns()
            stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per-function and per-layer totals computed from the spans.

        A span's self time is its duration minus the durations of its direct
        children; the op span's self time is benchmark code and tracer cost
        that no layer span covers.
        """
        a = self.arrays()
        fid, parent = a["fid"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        n_fn = len(self.names)
        calls = np.bincount(fid, minlength=n_fn)
        incl_ns = np.bincount(fid, weights=dur, minlength=n_fn)
        self_fn_ns = np.bincount(fid, weights=self_ns, minlength=n_fn)
        layer_self_ns = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for f, layer in enumerate(self.layers):
            layer_self_ns[layer] += float(self_fn_ns[f])
        return {
            "ops": int(calls[OP]),
            "op_ns": float(incl_ns[OP]),
            "layer_self_ns": layer_self_ns,
            "functions": {
                name: {"calls": int(calls[f]), "incl_ns": float(incl_ns[f])}
                for f, name in enumerate(self.names)
            },
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())


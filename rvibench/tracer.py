"""Span tracing of rvikit's layers, installed from outside the program.

The tracer replaces public functions and methods of ``rvikit`` with
wrappers that record one span per call: an id, a label, the enclosing
span's id on the same thread, and start/end times.  Spans are kept in
per-thread buffers (the harness runs grid cells on a thread pool) and
reduced to per-label call counts and self times, where a span's self
time is its duration minus the durations of its direct children.

``install()`` patches, ``uninstall()`` restores the original objects, so
untraced rounds of the same process run the program unmodified.  Names
bound at import time inside rvikit modules (the step functions, the gap
solver and the holonomy probe inside ``rvikit.solvers.run``, the names
the harness imported) are patched in the module that looks them up.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import sys
import threading
import time
from array import array

import numpy as np

KERNELS = {"Euclidean": "euclidean", "Sphere": "sphere",
           "Hyperboloid": "hyperboloid", "SPD": "spd", "Product": "product"}
KERNEL_METHODS = ("point_defect", "project", "tangent_defect", "project_tangent",
                  "exp", "log", "transport", "inner", "dist", "norm",
                  "random_point", "random_tangent", "ball_point")


class _Buffer:
    """One thread's spans, as parallel typed arrays, plus its open-span stack."""

    def __init__(self):
        self.stack: list[int] = []
        self.clear()

    def clear(self):
        self.sid = array("q")
        self.label = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")


class Spans:
    """A batch of finished spans as numpy arrays, sorted by span id.

    ``self_s`` is each span's duration minus the durations of its direct
    children; ``parent_label`` is the label id of its parent, -1 for a
    root span (or a parent outside the batch).
    """

    def __init__(self, sid, label, parent, t0, t1):
        order = np.argsort(sid, kind="stable")
        self.sid, self.label, self.parent = sid[order], label[order], parent[order]
        self.t0, self.t1 = t0[order], t1[order]
        self.dur = self.t1 - self.t0
        pos = np.minimum(np.searchsorted(self.sid, self.parent), max(self.sid.size - 1, 0))
        linked = (self.parent >= 0) & (self.sid[pos] == self.parent) if self.sid.size \
            else np.zeros(0, dtype=bool)
        self.self_s = self.dur - np.bincount(pos[linked], weights=self.dur[linked],
                                             minlength=self.sid.size)
        self.parent_label = np.full(self.sid.size, -1)
        self.parent_label[linked] = self.label[pos[linked]]

    def select(self, labels: list[str], prefix: str) -> np.ndarray:
        """Mask of spans whose label equals ``prefix`` or starts with ``prefix.``."""
        ids = [i for i, name in enumerate(labels)
               if name == prefix or name.startswith(prefix + ".")]
        return np.isin(self.label, ids)


class Tracer:
    """Installs span wrappers around rvikit's public layer boundaries."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.counters: collections.Counter = collections.Counter()
        self._patches: list[tuple] = []
        self._field_wrappers: dict = {}

    # -- recording -----------------------------------------------------
    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn, label: str, after=None):
        """A wrapper recording one ``label`` span per call of ``fn``."""
        lid = self._label_id(label)
        ids, clock, buffer = self._ids, time.perf_counter, self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.label.append(lid)
                buf.parent.append(parent)
                buf.t0.append(t0)
                buf.t1.append(t1)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def drain(self) -> Spans:
        """Take every finished span recorded so far (all threads)."""
        with self._lock:
            buffers = list(self._buffers)
        cols: list[list] = [[], [], [], [], []]
        for buf in buffers:
            for col, arr in zip(cols, (buf.sid, buf.label, buf.parent, buf.t0, buf.t1)):
                col.append(np.array(arr))
            buf.clear()
        dtypes = (np.int64, np.int32, np.int64, np.float64, np.float64)
        return Spans(*[np.concatenate(col + [np.zeros(0)]).astype(dt)
                       for col, dt in zip(cols, dtypes)])

    def take_counters(self) -> collections.Counter:
        with self._lock:
            out, self.counters = self.counters, collections.Counter()
        return out

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def _patch_all(self, owners, attr: str, label: str, after=None) -> None:
        """Patch one function wherever it is looked up, with a single wrapper."""
        wrapped = self.wrap(getattr(owners[0], attr), label, after)
        for owner in owners:
            self._patch(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap rvikit's layer boundaries; the package must be imported."""
        from rvikit import harness, manifolds, problems, solvers
        from rvikit.manifolds import base, ops
        from rvikit.problems import catalog, core
        from rvikit.harness import runner

        run_mod = sys.modules["rvikit.solvers.run"]

        # manifolds: typed contracts, typed ops, array kernels
        self._patch(base.Point, "__post_init__",
                    self.wrap(base.Point.__post_init__, "manifolds.contract"))
        self._patch(base.Tangent, "__post_init__",
                    self.wrap(base.Tangent.__post_init__, "manifolds.contract"))
        for name in ("exp_map", "log_map", "transport", "distance"):
            self._patch_all([ops, manifolds], name, f"manifolds.{name}")
        self._patch_all([ops, manifolds], "geodesic_average_update", "solvers.average")
        for cls_name, kind in KERNELS.items():
            cls = getattr(manifolds, cls_name)
            for meth in KERNEL_METHODS:
                self._patch(cls, meth, self.wrap(getattr(cls, meth),
                                                  f"manifolds.kernel.{kind}.{meth}"))

        # problems: construction, certification, field, gap solver
        self._patch_all([problems, catalog, runner], "make_problem", "problems.build")
        self._patch_all([problems, core, catalog], "check_assumptions", "problems.certify",
                        after=lambda a, k, out: self.count("problems.certify.pairs",
                                                           out.n_pairs))
        self._patch_field(core.VectorFieldProblem)
        self._patch(run_mod, "duality_gap", self.wrap(
            run_mod.duality_gap, "problems.gap", after=self._after_gap))

        # geometry and solvers
        self._patch(run_mod, "holonomy_defect", self.wrap(
            run_mod.holonomy_defect, "geometry.holonomy",
            after=lambda a, k, out: self.count("geometry.holonomy.valid", int(out.valid))))
        for name in ("reg_step", "rpeg_step", "rceg_step", "rogda_step", "rgda_step"):
            self._patch(run_mod, name, self.wrap(getattr(run_mod, name), "solvers.step"))
        self._patch_all([solvers, runner], "run", "solvers.driver")

        # harness
        self._patch_all([harness, runner], "run_experiment", "harness.grid")
        self._patch(runner, "_execute_cell", self.wrap(runner._execute_cell, "harness.cell"))
        self._patch(runner, "fit_rate", self.wrap(runner.fit_rate, "harness.rate_fit"))
        self._patch(solvers.RunTrace, "to_csv", self.wrap(
            solvers.RunTrace.to_csv, "harness.csv",
            after=lambda a, k, out: self.count("harness.csv.bytes",
                                               os.path.getsize(a[1]))))

    def _after_gap(self, args, kwargs, out) -> None:
        with self._lock:
            self.counters["problems.gap.inner_iters"] += out.iterations
            self.counters["problems.gap.converged"] += int(out.converged)

    def _patch_field(self, cls) -> None:
        """Trace ``VectorFieldProblem.field``, an instance attribute.

        A data descriptor on the class takes precedence over the instance
        dict, so existing and new problems both hand out a traced field.
        While ``__post_init__`` runs (it wraps the raw field in a counter
        and evaluates it at the solution) the raw value is returned, so
        the stored counter never holds a traced wrapper.
        """
        tracer, local = self, self._local

        class TracedField:
            def __get__(self, inst, owner=None):
                if inst is None:
                    return self
                raw = inst.__dict__["field"]
                if getattr(local, "constructing", 0):
                    return raw
                wrapped = tracer._field_wrappers.get(raw)
                if wrapped is None:
                    wrapped = tracer.wrap(raw, "problems.field")
                    tracer._field_wrappers[raw] = wrapped
                return wrapped

            def __set__(self, inst, value):
                inst.__dict__["field"] = value

        original = cls.__post_init__

        def post_init(inst):
            local.constructing = getattr(local, "constructing", 0) + 1
            try:
                original(inst)
            finally:
                local.constructing -= 1

        self._patch(cls, "__post_init__", post_init)
        self._patch(cls, "field", TracedField())

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, had, old = self._patches.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._field_wrappers.clear()

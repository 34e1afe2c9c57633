"""Span tracing around bregopt's public callables, installed from outside.

`Tracer.install()` replaces the public methods and functions listed in
`_targets` with wrappers that record one span per call: name, start, end,
parent span and the solve it belongs to. Nothing under `src/` is edited;
the wrappers are class and module attributes set inside the traced process
and removed again by `Tracer.uninstall()`.

Spans are appended to per-thread arrays (the sweep harness may run solves
on a thread pool) and stay in memory until the run ends. `Tracer.dump()`
writes them to one `.npz` file, and `layer_metrics()` turns the arrays
into the per-layer metrics: self time is a span's duration minus the
durations of its direct children, which never overlap within a thread.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

import numpy as np

from bregopt import harness, kernels, plip, problems, qip, solvers

PROBLEMS = ("plip", "qip")
SOLVERS = ("bpge", "bpg")
CONTEXTS = tuple("%s.%s" % (p, s) for p in PROBLEMS for s in SOLVERS)

# Kernel methods whose calls are counted per iteration; self times are
# reported for the ones both problems call on every iteration.
KERNEL_METHODS = ("in_interior_domain", "require_interior", "bregman",
                  "gradient", "value", "inverse_gradient")
TIMED_KERNEL_METHODS = KERNEL_METHODS[:4]
SMOOTH_METHODS = ("value", "gradient")
PROX_SPANS = ("plip.prox", "problems.prox")


def _problem_of(obj) -> str:
    if isinstance(obj.smooth, plip.PlipSmooth):
        return "plip"
    if isinstance(obj.smooth, qip.QipSmooth):
        return "qip"
    return "other"


class _Buffer:
    """Spans of one thread, in call order; `stack` holds open span indices."""

    __slots__ = ("name", "parent", "ctx", "start", "end", "stack", "ctx_id",
                 "counters", "iterations")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.ctx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.ctx_id = 0
        self.counters = {}
        self.iterations = {}

    def count(self, key, amount=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount


class Tracer:
    """Records spans at the wrapped boundaries while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._names = []
        self._contexts = [""]
        self._saved = []
        self.extra = {}

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _id(self, table, name) -> int:
        with self._lock:
            if name not in table:
                table.append(name)
            return table.index(name)

    def _wrap(self, name, fn, observe=None):
        nid = self._id(self._names, name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.ctx.append(buf.ctx_id)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if observe is not None:
                observe(buf, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_loop(self, fn):
        """bpge_solve: also tags every span inside it with (problem, solver)."""
        tracer = self
        inner = self._wrap("solvers.loop", fn)

        def loop(obj, x0, cfg, _extrapolate=True):
            buf = tracer._buffer()
            ctx = "%s.%s" % (_problem_of(obj), "bpge" if _extrapolate else "bpg")
            saved, buf.ctx_id = buf.ctx_id, tracer._id(tracer._contexts, ctx)
            try:
                result = inner(obj, x0, cfg, _extrapolate)
            finally:
                buf.ctx_id = saved
            buf.iterations[ctx] = buf.iterations.get(ctx, 0) + result.iterations
            return result

        loop.__wrapped__ = fn
        return loop

    # -- patching --------------------------------------------------------

    @staticmethod
    def _targets():
        """(owner, attribute, span name, observe) for every wrapped callable."""
        out = []
        for cls in (kernels.BurgKernel, kernels.QuarticKernel):
            for meth in KERNEL_METHODS:
                out.append((cls, meth, "kernels." + meth, None))
        for cls, prefix in ((plip.PlipSmooth, "plip."), (qip.QipSmooth, "qip.")):
            for meth in SMOOTH_METHODS:
                out.append((cls, meth, prefix + meth, None))
        out.append((plip, "plip_prox", "plip.prox", None))
        out.append((problems.L1Term, "prox", "problems.prox", None))
        out.append((problems.CompositeObjective, "value",
                    "problems.objective_value", None))
        out.append((solvers, "line_search_beta", "solvers.line_search",
                    _observe_line_search))
        out.append((harness, "write_trace_csv", "harness.write_trace_csv",
                    _observe_trace_rows))
        out.append((harness, "generate_instance", "harness.generate_instance",
                    None))
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in self._targets():
            # Inherited methods (Kernel.require_interior on QuarticKernel)
            # are wrapped on the subclass and restored by deleting them.
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        loop = self._wrap_loop(solvers.bpge_solve)
        # The harness imported bpge_solve by name; bpg_solve reaches the
        # patched solvers.bpge_solve through its module global.
        for owner in (solvers, harness):
            self._saved.append((owner, "bpge_solve", True, owner.bpge_solve))
            owner.bpge_solve = loop

    def uninstall(self):
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------

    def spans(self) -> dict:
        """All threads' spans as flat arrays, parents re-indexed globally."""
        cols = {k: [] for k in ("name", "parent", "ctx", "start", "end")}
        counters, iterations = {}, {}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            if not buf.start:
                continue
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["ctx"].append(np.frombuffer(buf.ctx, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            offset += len(buf.start)
            for (key, ctx), v in buf.counters.items():
                k = "%s|%s" % (key, self._contexts[ctx])
                counters[k] = counters.get(k, 0.0) + v
            for ctx, n in buf.iterations.items():
                iterations[ctx] = iterations.get(ctx, 0) + n
        out = {k: (np.concatenate(v) if v else np.zeros(0))
               for k, v in cols.items()}
        out["meta"] = {"names": list(self._names),
                       "contexts": list(self._contexts),
                       "counters": counters, "iterations": iterations,
                       "extra": dict(self.extra)}
        return out

    def dump(self, path):
        s = self.spans()
        np.savez(path, name=s["name"], parent=s["parent"], ctx=s["ctx"],
                 start=s["start"], end=s["end"],
                 meta=np.array(json.dumps(s["meta"])))


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("name", "parent", "ctx", "start", "end")}
        out["meta"] = json.loads(str(z["meta"]))
    return out


def _observe_line_search(buf, args, out):
    buf.count(("solvers.line_search.accepted", buf.ctx_id), out[0] > 0.0)


def _observe_trace_rows(buf, args, out):
    buf.count(("harness.write_trace_csv.rows", buf.ctx_id),
              len(args[0].trace))


class _SpanStats:
    """Totals per (span name, context) over recorded spans."""

    def __init__(self, spans, wall_s, jobs, startup_s, overhead_frac):
        meta = spans["meta"]
        self.names, self.contexts = meta["names"], meta["contexts"]
        self.counters, self.iterations = meta["counters"], meta["iterations"]
        self.wall_s, self.jobs = wall_s, jobs
        self.startup_s, self.overhead_frac = startup_s, overhead_frac
        name, ctx, parent = spans["name"], spans["ctx"], spans["parent"]
        dur = spans["end"] - spans["start"]
        n_ctx = len(self.contexts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        key = name.astype(np.int64) * n_ctx + ctx
        shape = (len(self.names), n_ctx)
        size = shape[0] * shape[1]
        self.calls = np.bincount(key, minlength=size).reshape(shape)
        self.self_s = np.bincount(key, weights=dur - child,
                                  minlength=size).reshape(shape)
        self.dur_s = np.bincount(key, weights=dur, minlength=size).reshape(
            shape)
        # Line-search trials are its domain tests on trial points, made
        # directly; its other domain tests sit under its bregman calls.
        trial = (name == self._nid("kernels.in_interior_domain")) & has_parent
        trial[trial] = name[parent[trial]] == self._nid("solvers.line_search")
        self.trials = np.bincount(ctx[trial], minlength=n_ctx)

    def _nid(self, span):
        return self.names.index(span) if span in self.names else -1

    def _total(self, table, span, ctx=None):
        i = self._nid(span)
        if i < 0:
            return 0.0
        if ctx is None:
            return float(table[i].sum())
        return float(table[i, self.contexts.index(ctx)]) \
            if ctx in self.contexts else 0.0

    def calls_per_iter(self, span, ctx):
        return _ratio(self._total(self.calls, span, ctx),
                      self.iterations.get(ctx, 0))

    def self_us_per_iter(self, spans, ctxs):
        """Self time of the named spans over the iterations of the solves
        in ctxs."""
        total = sum(self._total(self.self_s, span, ctx)
                    for span in spans for ctx in ctxs)
        return _ratio(1e6 * total,
                      sum(self.iterations.get(ctx, 0) for ctx in ctxs))

    def trials_per_call(self, ctx):
        trials = self.trials[self.contexts.index(ctx)] \
            if ctx in self.contexts else 0
        return _ratio(trials, self._total(self.calls, "solvers.line_search",
                                          ctx))

    def accept_frac(self, ctx):
        return _ratio(self.counters.get("solvers.line_search.accepted|" + ctx,
                                        0.0),
                      self._total(self.calls, "solvers.line_search", ctx))

    def us_per_trace_row(self):
        rows = sum(v for k, v in self.counters.items()
                   if k.startswith("harness.write_trace_csv.rows|"))
        return _ratio(1e6 * self._total(self.dur_s, "harness.write_trace_csv"),
                      rows)

    def solve_busy_frac(self):
        return _ratio(self._total(self.dur_s, "solvers.loop"),
                      self.wall_s * self.jobs)

    def generate_instance_ms(self):
        return _ratio(1e3 * self._total(self.dur_s,
                                        "harness.generate_instance"),
                      self._total(self.calls, "harness.generate_instance"))


def _ratio(num, den):
    return float(num) / den if den else 0.0


def _layer_rows(st):
    """(name, unit, value) of every per-layer metric, in report order.

    Counts are split by problem and solver. Self times are split by solver
    only, summed over the problems a workload runs: split by problem, a
    qip time would read a constant 0 on the plip-only cli-sweep.
    """
    for ctx in CONTEXTS:
        problem, solver = ctx.split(".")
        for meth in KERNEL_METHODS:
            yield ("kernels.%s.calls_per_iter.%s" % (meth, ctx), "calls/iter",
                   st.calls_per_iter("kernels." + meth, ctx))
        for meth in SMOOTH_METHODS:
            span = problem + "." + meth
            yield (span + ".calls_per_iter." + solver, "calls/iter",
                   st.calls_per_iter(span, ctx))
        if solver == "bpge":
            yield ("solvers.line_search.trials_per_call." + problem,
                   "trials/call", st.trials_per_call(ctx))
            yield ("solvers.line_search.accept_frac." + problem, "fraction",
                   st.accept_frac(ctx))
    for solver in SOLVERS:
        ctxs = [problem + "." + solver for problem in PROBLEMS]
        for meth in TIMED_KERNEL_METHODS:
            yield ("kernels.%s.self_us_per_iter.%s" % (meth, solver), "us/iter",
                   st.self_us_per_iter(["kernels." + meth], ctxs))
        for meth in SMOOTH_METHODS:
            yield ("smooth.%s.self_us_per_iter.%s" % (meth, solver), "us/iter",
                   st.self_us_per_iter(["plip." + meth, "qip." + meth], ctxs))
        yield ("nonsmooth.prox.self_us_per_iter." + solver, "us/iter",
               st.self_us_per_iter(PROX_SPANS, ctxs))
        yield ("problems.objective_value.self_us_per_iter." + solver,
               "us/iter", st.self_us_per_iter(["problems.objective_value"],
                                              ctxs))
        if solver == "bpge":
            yield ("solvers.line_search.self_us_per_iter", "us/iter",
                   st.self_us_per_iter(["solvers.line_search"], ctxs))
        yield ("solvers.loop.self_us_per_iter." + solver, "us/iter",
               st.self_us_per_iter(["solvers.loop"], ctxs))
    yield ("harness.write_trace_csv.us_per_row", "us/row",
           st.us_per_trace_row())
    yield ("harness.solve_busy_frac", "fraction", st.solve_busy_frac())
    yield ("harness.generate_instance.ms", "ms", st.generate_instance_ms())
    yield ("cli.startup_s", "s", float(st.startup_s))
    yield ("trace.overhead_frac", "fraction", float(st.overhead_frac))


def layer_metrics(spans, wall_s, jobs, startup_s, overhead_frac) -> dict:
    """Per-layer metrics as {name: (value, unit)} from recorded spans.

    wall_s is the traced workload's wall time and jobs its worker count,
    for the harness busy fraction; startup_s is the CLI start-up time.
    """
    st = _SpanStats(spans, wall_s, jobs, startup_s, overhead_frac)
    return {name: (value, unit) for name, unit, value in _layer_rows(st)}

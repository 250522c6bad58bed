"""Span tracing of calls into dagsched's layers, installed from outside `src/`.

Every public function of a layer module is wrapped, and the wrapper is put
in every dagsched module that holds a reference to it, because modules
import each other's names (`rta` calls `interfering_workload` through its
own global, `carryout` calls its own `span`).  Class construction is traced
by wrapping `__init__` of the classes in `CLASS_INITS`, which also catches
`dataclasses.replace`.  `Tracer.restore` puts every original back.

Spans are kept in memory in flat arrays (name, parent, item, start, end) and
written out once at the end.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("taskgen", "dag", "carryout", "workload", "rta", "sim", "cli")
CLASS_INITS = {"dag": ("Dag", "DagTask", "TaskSet"), "carryout": ("WorkCurve",)}
INTERFERENCE_SPANS = ("sim.extract_critical_chain", "sim.interference_by_task",
                      "sim.critical_interference", "sim.chain_execution")

# name -> unit, in the order the traced run reports them
LAYER_METRICS = {
    "taskgen.sets": "count", "taskgen.dags": "count", "taskgen.self_ms": "ms",
    "dag.builds": "count", "dag.task_builds": "count", "dag.topo_calls": "count",
    "dag.span_calls": "count", "dag.self_ms": "ms",
    "carryout.curve_builds": "count", "carryout.curve_ms": "ms",
    "carryout.queries_per_curve": "ratio",
    "workload.ilp_calls": "count", "workload.ilp_self_ms": "ms",
    "workload.melani_calls": "count", "workload.melani_ms": "ms",
    "rta.tests": "count", "rta.iterations": "count", "rta.seed_rejects": "count",
    "rta.self_ms": "ms",
    "sim.jobs": "count", "sim.segments": "count", "sim.simulate_ms": "ms",
    "sim.audit_ms": "ms", "sim.interference_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def _dagsched_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "dagsched" or name.startswith("dagsched."))]


class Tracer:
    """Wraps the layers on `install`, records spans and counts, restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.incl_s = []
        self.self_s = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        self.rta_iterations = 0
        self.rta_seed_rejects = 0
        self.sim_jobs = 0
        self.sim_segments = 0
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _wrap(self, name, fn, observe=None):
        nid = self._name_id(name)
        stack = self._stack
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s
        sp_name, sp_parent, sp_item = self.span_name, self.span_parent, self.span_item
        sp_start, sp_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(sp_start)
            frame = [idx, 0.0]
            sp_name.append(nid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_item.append(tracer.item)
            sp_end.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            sp_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                sp_end[idx] = t1
                calls[nid] += 1
                incl_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_report(self, report):
        self.rta_iterations += sum(report.iterations)
        # a seed rejection aborts before any fixed-point iteration of the
        # failing task; count it once per task set (on the ilp test)
        if (report.method == "ilp" and report.failed_at is not None
                and report.iterations[report.failed_at] == 0):
            self.rta_seed_rejects += 1

    def _observe_sim(self, result):
        self.sim_jobs += len(result.jobs)
        self.sim_segments += len(result.segments)

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import dagsched.cli  # noqa: F401  (loads every layer module)

        modules = _dagsched_modules()
        by_name = {mod.__name__: mod for mod in modules}
        observers = {"rta.schedulability_test": self._observe_report,
                     "sim.simulate": self._observe_sim}
        for layer in LAYERS:
            mod = by_name[f"dagsched.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span = f"{layer}.{name}"
                wrapper = self._wrap(span, obj, observers.get(span))
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is obj:
                            self._patch(holder, attr, wrapper)
            for cls_name in CLASS_INITS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, "__init__",
                            self._wrap(f"{layer}.{cls_name}", cls.__init__))

    def restore(self):
        """Put every original function back and check that it is back."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                 if getattr(o, a) is not orig]
        self._patches.clear()
        if stale:
            raise RuntimeError(f"tracer left wrappers in place: {stale}")

    # -- results ---------------------------------------------------------------

    def _sum(self, table, names):
        return sum(table[self._ids[n]] for n in names if n in self._ids)

    def _count(self, name):
        return self._sum(self.calls, (name,))

    def _layer_self_ms(self, layer):
        return 1e3 * self._sum(self.self_s, [n for n in self.names
                                             if n.startswith(layer + ".")])

    def metrics(self, overhead_s):
        """Per-layer metrics, keyed as in LAYER_METRICS."""
        ilp_calls = self._count("workload.interfering_workload")
        curve_builds = self._count("carryout.WorkCurve")
        values = {
            "taskgen.sets": self._count("taskgen.gen_taskset"),
            "taskgen.dags": self._count("taskgen.gen_dag"),
            "taskgen.self_ms": self._layer_self_ms("taskgen"),
            "dag.builds": self._count("dag.Dag"),
            "dag.task_builds": self._count("dag.DagTask"),
            "dag.topo_calls": self._count("dag.topological_order"),
            "dag.span_calls": self._count("dag.span"),
            "dag.self_ms": self._layer_self_ms("dag"),
            "carryout.curve_builds": curve_builds,
            "carryout.curve_ms": 1e3 * self._sum(self.incl_s, ("carryout.WorkCurve",)),
            "carryout.queries_per_curve": ilp_calls / curve_builds if curve_builds else 0.0,
            "workload.ilp_calls": ilp_calls,
            "workload.ilp_self_ms": 1e3 * self._sum(self.self_s, ("workload.interfering_workload",)),
            "workload.melani_calls": self._count("workload.melani_workload"),
            "workload.melani_ms": 1e3 * self._sum(self.incl_s, ("workload.melani_workload",)),
            "rta.tests": self._count("rta.schedulability_test"),
            "rta.iterations": self.rta_iterations,
            "rta.seed_rejects": self.rta_seed_rejects,
            "rta.self_ms": self._layer_self_ms("rta"),
            "sim.jobs": self.sim_jobs,
            "sim.segments": self.sim_segments,
            "sim.simulate_ms": 1e3 * self._sum(self.incl_s, ("sim.simulate",)),
            "sim.audit_ms": 1e3 * self._sum(self.incl_s, ("sim.audit_trace",)),
            "sim.interference_ms": 1e3 * self._sum(self.self_s, INTERFERENCE_SPANS),
            "cli.self_ms": self._layer_self_ms("cli"),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS.items()}

    def write_spans(self, path):
        """Write the spans as an .npz of flat arrays plus the name table."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

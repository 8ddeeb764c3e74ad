"""Span tracing of evslib from outside the library.

`Tracer.install()` wraps the public functions of the seven evslib modules,
plus `MetricMatrix.from_json`, `LazyMetric.materialize` and the element ops
of every instance that `build_instance` returns. A wrapper records one span
(name, start, end, parent) in flat arrays, so a pass of millions of calls
stays in memory cheaply; `write()` puts them on disk when the pass ends.
Every module binding of a wrapped function is replaced, including the names
one module imports from another (`from .rationals import fmt`), so calls
are counted wherever they are made. `uninstall()` restores the originals.

A span's self time is its duration minus the durations of its direct child
spans; a module's self time is the sum over its spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "rationals", "core", "instances", "metrics", "norms",
           "order")
INSTANCE_OPS = ("add", "scale", "leq", "equal")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []
        self._seen_pcf: set = set()
        self.entries_materialized = 0
        self.pcf_repeats = 0
        self.decay_index_sum = 0

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            return result if hook is None else hook(args, result)

        traced.__wrapped__ = fn
        return traced

    def begin_job(self) -> int:
        """Start a job; returns the index of its first span."""
        self._seen_pcf.clear()
        return len(self.start)

    # -- hooks that derive counts from arguments and results ----------------

    def _on_materialize(self, args, result):
        self.entries_materialized += args[1] * args[1]
        return result

    def _on_pcf(self, args, result):
        key = repr((args[0], args[1], list(args[2])))
        if key in self._seen_pcf:
            self.pcf_repeats += 1
        self._seen_pcf.add(key)
        return result

    def _on_witness(self, args, result):
        self.decay_index_sum += result.first_relative_to_second.index
        return result

    def _on_build_instance(self, args, result):
        inst, sample, scalars = result
        ops = {op: self.wrap(getattr(inst, op), f"instances.{args[0]}.{op}")
               for op in INSTANCE_OPS}
        return dataclasses.replace(inst, **ops), sample, scalars

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"evslib.{m}") for m in MODULES}
        hooks = {
            "metrics.partial_comparing_function": self._on_pcf,
            "norms.independence_witness": self._on_witness,
            "instances.build_instance": self._on_build_instance,
        }
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self.wrap(obj, name, hooks.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        metrics = mods["metrics"]
        from_json = vars(metrics.MetricMatrix)["from_json"].__func__
        self._set(metrics.MetricMatrix, "from_json", classmethod(
            self.wrap(from_json, "metrics.MetricMatrix.from_json")))
        self._set(metrics.LazyMetric, "materialize", self.wrap(
            metrics.LazyMetric.materialize, "metrics.LazyMetric.materialize",
            self._on_materialize))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write(self, directory) -> None:
        """Spans as four flat native arrays plus a JSON header."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        (directory / "spans.json").write_text(json.dumps({
            "count": len(self.start),
            "layout": ["name_id:i", "parent:i", "start:d", "end:d"],
            "names": self.names,
        }), encoding="utf-8")

    def totals(self) -> dict:
        """Per span name: calls and inclusive seconds; per module: self
        seconds."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_by_name = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            incl[nid] += dur[i]
            self_by_name[nid] += dur[i] - child[i]
        modules = {m: 0.0 for m in MODULES}
        for nid, name in enumerate(self.names):
            modules[name.split(".", 1)[0]] += self_by_name[nid]
        return {
            "calls": dict(zip(self.names, calls)),
            "seconds": dict(zip(self.names, incl)),
            "self_seconds": modules,
        }

    def count_between(self, name: str, first: int, last: int) -> int:
        """Calls of `name` among spans first..last-1."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return sum(1 for i in range(first, last) if self.name_id[i] == nid)

    def layer_values(self, input_bytes: int, input_rationals: int,
                     parses_of_inputs: int, stdout_bytes: int) -> dict:
        """Every per-layer metric except `trace.overhead`, from one traced
        pass. `parses_of_inputs` counts parse_rational calls in jobs that
        read input rationals, and `input_rationals` the rationals those jobs
        read."""
        t = self.totals()
        calls, secs = t["calls"], t["seconds"]
        pcf_calls = calls.get("metrics.partial_comparing_function", 0)
        values = {
            "cli.input.bytes": input_bytes,
            "cli.stdout.bytes": stdout_bytes,
            "cli.parse_per_input_entry": (parses_of_inputs / input_rationals
                                          if input_rationals else 0.0),
            "metrics.entries_materialized": self.entries_materialized,
            "metrics.pcf_repeat_frac": (self.pcf_repeats / pcf_calls
                                        if pcf_calls else 0.0),
            "norms.decay_index_sum": self.decay_index_sum,
        }
        for name in LAYER_METRICS:
            if name in values or name == "trace.overhead":
                continue
            head, kind = name.rsplit(".", 1)
            if head.endswith(".self") and kind == "s":
                values[name] = t["self_seconds"][head.split(".", 1)[0]]
            elif kind == "calls":
                values[name] = calls.get(head, 0)
            else:
                values[name] = secs.get(head, 0.0)
        return values


AXIOM_INSTANCE_NAMES = ("metrics", "norms", "cone", "hyperspace",
                        "metrics-reversed-order", "metrics-no-abs-scale")

#: per-layer metric name -> unit, in report order
LAYER_METRICS: dict[str, str] = {
    "cli.main.s": "s",
    "cli.self.s": "s",
    "cli.input.bytes": "bytes",
    "cli.stdout.bytes": "bytes",
    "cli.parse_per_input_entry": "ratio",
    "rationals.parse_rational.calls": "count",
    "rationals.fmt.calls": "count",
    "rationals.self.s": "s",
    "core.check_axioms.s": "s",
    "core.check_properties.s": "s",
    "core.self.s": "s",
    "instances.build_instance.s": "s",
    **{f"instances.{inst}.{op}.{kind}": unit
       for inst in AXIOM_INSTANCE_NAMES for op in INSTANCE_OPS
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "instances.self.s": "s",
    "metrics.validate_metric.calls": "count",
    "metrics.validate_metric.s": "s",
    "metrics.LazyMetric.materialize.calls": "count",
    "metrics.LazyMetric.materialize.s": "s",
    "metrics.entries_materialized": "count",
    "metrics.partial_comparing_function.calls": "count",
    "metrics.partial_comparing_function.s": "s",
    "metrics.pcf_repeat_frac": "ratio",
    "metrics.classify_lazy_pair.s": "s",
    "metrics.comparing_function_metric.calls": "count",
    "metrics.comparing_function_metric.s": "s",
    "metrics.MetricMatrix.from_json.calls": "count",
    "metrics.MetricMatrix.from_json.s": "s",
    "metrics.self.s": "s",
    "norms.independence_witness.calls": "count",
    "norms.independence_witness.s": "s",
    "norms.decay_index_sum": "count",
    "norms.self.s": "s",
    "order.in_l.calls": "count",
    "order.in_l.s": "s",
    "order.orderly_independent_set.s": "s",
    "order.generates.s": "s",
    "order.is_basis.s": "s",
    "order.feasible_in_universe.s": "s",
    "order.self.s": "s",
    "trace.overhead": "ratio",
}

#: per-layer metrics that must repeat exactly between two traced runs
COUNT_METRICS = tuple(n for n, unit in LAYER_METRICS.items()
                      if unit in ("count", "bytes"))


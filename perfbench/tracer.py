"""Spans around qgrav's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the working layers at
every module where it is bound (``derive_orbit`` is imported into five
modules, ``planet_precession`` into two), so nested calls are seen whichever
binding the caller used. Each call becomes a span (name, start, end, parent,
operation id) kept in memory; self time is a span's duration minus the time
its child spans cover, accumulated as the spans close.

A few counters ride on the same wrappers: integrator steps and samples from
the returned Trajectory, force evaluations through the closure that
``binet_rhs`` returns, perihelia found, sweep rows, planet records and
QuantizedModel constructions.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("bodies", "forces", "precession", "orbit", "calibrate", "cli")
_BINDING_MODULES = ("qgrav",) + tuple(f"qgrav.{layer}" for layer in LAYERS)


def _public_functions() -> dict:
    """{function: 'layer.name'} for every public function defined in a layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qgrav.{layer}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[value] = f"{layer}.{name}"
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, columnar to keep ~10^5 spans per pass small.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.keep_spans = True
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.force_ticks: list = []       # one itertools.count per binet_rhs closure
        self._stack: list[list] = []      # [span index, start, child seconds]
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def reset_totals(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        self.force_ticks.clear()

    def exact_counts(self) -> tuple[dict, dict]:
        """Calls per function and the derived counters, including force evaluations."""
        counts = dict(self.counts)
        counts["orbit.force_evals"] = sum(next(tick) for tick in self.force_ticks)
        self.force_ticks.clear()
        return dict(self.calls), counts

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = -1
            if self.keep_spans:
                index = len(self.span_name)
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_op.append(self.op_id)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                self.total_s[name] += duration
                if index >= 0:
                    self.span_start[index] = frame[1]
                    self.span_end[index] = end
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at each module that binds it."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in _public_functions().items()}
        for module_name in _BINDING_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        forces = importlib.import_module("qgrav.forces")
        model = forces.QuantizedModel
        post_init = model.__post_init__

        def counted_post_init(obj):
            self.calls["forces.QuantizedModel"] += 1
            post_init(obj)

        self._patched.append((model, "__post_init__", post_init))
        model.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as one gzipped JSON document; returns the count."""
        doc = {"names": self.names, "name": self.span_name.tolist(),
               "start": self.span_start.tolist(), "end": self.span_end.tolist(),
               "parent": self.span_parent.tolist(), "op": self.span_op.tolist()}
        with gzip.open(path, "wt") as out:
            json.dump(doc, out)
        return len(self.span_name)


# -- counters derived from arguments and results ----------------------------------

def _integrate_hook(tracer, args, kwargs, traj):
    theta_max = kwargs["theta_max"] if "theta_max" in kwargs else args[3]
    tracer.counts["orbit.integrate.steps_accepted"] += traj.n_accepted
    tracer.counts["orbit.integrate.steps_rejected"] += traj.n_rejected
    tracer.counts["orbit.integrate.samples"] += len(traj)
    tracer.counts["orbit.integrate.radians"] += theta_max
    return traj


def _binet_rhs_hook(tracer, args, kwargs, forcing):
    tick = itertools.count()
    tracer.force_ticks.append(tick)

    def counted(u, _next=next, _tick=tick, _forcing=forcing):
        _next(_tick)
        return _forcing(u)

    return counted


def _detect_hook(tracer, args, kwargs, series):
    tracer.counts["orbit.detect_perihelia.found"] += len(series.angles)
    return series


def _measured_hook(tracer, args, kwargs, result):
    # A perihelion start integrated over n_orbits + 1 radial periods passes
    # n_orbits + 1 later perihelia.
    n_orbits = kwargs.get("n_orbits", args[3] if len(args) > 3 else 50)
    tracer.counts["orbit.measured_precession.expected_perihelia"] += n_orbits + 1
    return result


def _sweep_hook(tracer, args, kwargs, rows):
    tracer.counts["calibrate.sweep_delta.rows"] += len(rows)
    return rows


def _load_planets_hook(tracer, args, kwargs, planets):
    tracer.counts["bodies.load_planets.records"] += len(planets)
    return planets


_HOOKS = {
    "orbit.integrate": _integrate_hook,
    "orbit.binet_rhs": _binet_rhs_hook,
    "orbit.detect_perihelia": _detect_hook,
    "orbit.measured_precession": _measured_hook,
    "calibrate.sweep_delta": _sweep_hook,
    "bodies.load_planets": _load_planets_hook,
}

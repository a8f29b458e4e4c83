"""Per-layer spans for the sphere-nav benchmark, recorded from outside the library.

Nothing under ``src/`` is edited.  Spans are taken at the public boundaries
of each package module:

* a proxy controller, the way ``simulate._QuaternionField`` wraps one, times
  ``control`` and the two monitor calls (``signed_union_margin`` and
  ``active_index``) that ``integrate`` makes for every logged row;
* proxy star regions inside a fresh ``ConstraintArrangement`` time the
  refined distance queries the star law makes (``distance_warm``);
* module attributes that the library looks up at call time are swapped for
  timed wrappers while a traced pass runs: ``geometry.distance_to_arc``,
  ``constraints.pairwise_separation`` and, in ``scenario``,
  ``build_projected_star``, ``validate_kernel``,
  ``validate_region_disjointness``, ``suggest_kappa``, ``integrate`` and
  ``write_trajectory_csv``.

No wrapper changes an argument or a result, so a traced run must write the
same bytes as an untraced one; ``run.py`` checks that on every traced run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np


class Tracer:
    """Span durations, self times and counters, kept in memory by span name."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child = [0.0]   # time covered by finished children, per open span

    def call(self, name, fn, *args, **kwargs):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            children = self._child.pop()
            self._child[-1] += dt
            self.durations[name].append(dt)
            self.self_s[name] += dt - children

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def total(self, name) -> float:
        return float(sum(self.durations.get(name, ())))


class ControllerProxy:
    """Times a controller's law and its log-row monitors; forwards the rest."""

    def __init__(self, controller, tracer: Tracer):
        self._inner = controller
        self._tracer = tracer

    def __getattr__(self, name):
        # reset_eval_cache exists only on the star law; integrate() probes it
        return getattr(self._inner, name)

    def control(self, x):
        return self._tracer.call("controllers.control", self._inner.control, x)

    def signed_union_margin(self, x):
        return self._tracer.call("simulate.monitor",
                                 self._inner.signed_union_margin, x)

    def active_index(self, x):
        return self._tracer.call("simulate.monitor", self._inner.active_index, x)


class RegionProxy:
    """A star region whose refined queries from the star law are timed."""

    def __init__(self, region, tracer: Tracer, epsilon: float):
        self._inner = region
        self._tracer = tracer
        self._epsilon = epsilon

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def distance_warm(self, x, warm):
        margin, argdir = self._tracer.call("constraints.query",
                                           self._inner.distance_warm, x, warm)
        if margin > self._epsilon:
            self._tracer.counts["constraints.farfield"] += 1
        return margin, argdir


def with_region_proxies(sn, sc, tracer: Tracer):
    """The scenario with its star regions proxied in a fresh arrangement.

    Caps stay as they are: the conic law accepts nothing but ``ConicCap``.
    """
    arr = sc.arrangement
    eps = sc.resolved_epsilon()
    sets = [s if isinstance(s, sn.constraints.ConicCap)
            else RegionProxy(s, tracer, eps) for s in arr.sets]
    fresh = sn.constraints.ConstraintArrangement(
        sets, arr.kernels, delta_declared=arr.delta_declared)
    return replace(sc, arrangement=fresh)


@contextmanager
def instrument(sn, tracer: Tracer):
    """Swap the library's call-time module attributes for timed wrappers."""
    geometry, constraints, scenario = sn.geometry, sn.constraints, sn.scenario
    integrate = scenario.integrate
    write_csv = scenario.write_trajectory_csv

    def traced_integrate(x0, controller, cfg):
        traj = tracer.call("simulate.integrate", integrate, x0,
                           ControllerProxy(controller, tracer), cfg)
        tracer.counts["simulate.trajectories"] += 1
        tracer.counts["simulate.steps"] += int(round(float(traj.t[-1]) / cfg.dt))
        tracer.counts["simulate.log_rows"] += len(traj)
        tracer.counts["simulate.band_rows"] += int(np.count_nonzero(traj.active >= 0))
        tracer.counts["simulate.max_time_runs"] += traj.verdict == "max_time"
        return traj

    def traced_write_csv(traj, path):
        tracer.call("scenario.export", write_csv, traj, path)
        tracer.counts["scenario.export_bytes"] += os.path.getsize(path)

    patches = [
        (geometry, "distance_to_arc",
         tracer.wrap("geometry.arc_distance", geometry.distance_to_arc)),
        (constraints, "pairwise_separation",
         tracer.wrap("constraints.separation", constraints.pairwise_separation)),
        (scenario, "build_projected_star",
         tracer.wrap("constraints.build", scenario.build_projected_star)),
        (scenario, "validate_kernel",
         tracer.wrap("constraints.kernel_check", scenario.validate_kernel)),
        (scenario, "validate_region_disjointness",
         tracer.wrap("constraints.disjointness",
                     scenario.validate_region_disjointness)),
        (scenario, "suggest_kappa",
         tracer.wrap("controllers.suggest_kappa", scenario.suggest_kappa)),
        (scenario, "integrate", traced_integrate),
        (scenario, "write_trajectory_csv", traced_write_csv),
    ]
    saved = []
    try:
        for module, attr, wrapper in patches:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _us(values, q) -> float:
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) for every per-layer metric."""
    d, c = tracer.durations, tracer.counts
    arcs = d.get("geometry.arc_distance", [])
    queries = d.get("constraints.query", [])
    controls = d.get("controllers.control", [])
    monitors = d.get("simulate.monitor", [])
    integrates = d.get("simulate.integrate", [])
    exports = d.get("scenario.export", [])
    steps = c["simulate.steps"]
    rows = c["simulate.log_rows"]
    return {
        "geometry.arc_distance_s": (tracer.total("geometry.arc_distance"), "s", len(arcs)),
        "geometry.arc_distance_calls": (len(arcs), "count", len(arcs)),
        "constraints.build_s": (tracer.total("constraints.build"), "s",
                                len(d.get("constraints.build", []))),
        "constraints.query_calls": (len(queries), "count", len(queries)),
        "constraints.query_s": (tracer.total("constraints.query"), "s", len(queries)),
        "constraints.query_us_p50": (_us(queries, 50), "us", len(queries)),
        "constraints.query_us_p99": (_us(queries, 99), "us", len(queries)),
        "constraints.farfield_share": (_share(c["constraints.farfield"], len(queries)),
                                       "ratio", len(queries)),
        "constraints.disjointness_s": (tracer.total("constraints.disjointness"), "s",
                                       len(d.get("constraints.disjointness", []))),
        "constraints.kernel_check_s": (tracer.total("constraints.kernel_check"), "s",
                                       len(d.get("constraints.kernel_check", []))),
        "constraints.separation_s": (tracer.total("constraints.separation"), "s",
                                     len(d.get("constraints.separation", []))),
        "controllers.control_calls": (len(controls), "count", len(controls)),
        "controllers.control_us_p50": (_us(controls, 50), "us", len(controls)),
        "controllers.control_us_p99": (_us(controls, 99), "us", len(controls)),
        "controllers.control_self_s": (tracer.self_s["controllers.control"], "s",
                                       len(controls)),
        "controllers.band_share": (_share(c["simulate.band_rows"], rows), "ratio", rows),
        "controllers.suggest_kappa_s": (tracer.total("controllers.suggest_kappa"), "s",
                                        len(d.get("controllers.suggest_kappa", []))),
        "simulate.trajectories": (c["simulate.trajectories"], "count", len(integrates)),
        "simulate.steps": (steps, "count", len(integrates)),
        "simulate.max_time_runs": (c["simulate.max_time_runs"], "count", len(integrates)),
        "simulate.us_per_step": (_share(tracer.total("simulate.integrate"), steps) * 1e6,
                                 "us", steps),
        "simulate.self_us_per_step": (_share(tracer.self_s["simulate.integrate"], steps)
                                      * 1e6, "us", steps),
        "simulate.monitor_s": (tracer.total("simulate.monitor"), "s", len(monitors)),
        "simulate.log_rows": (rows, "count", rows),
        "scenario.export_s": (tracer.total("scenario.export"), "s", len(exports)),
        "scenario.export_bytes": (c["scenario.export_bytes"], "B", len(exports)),
    }

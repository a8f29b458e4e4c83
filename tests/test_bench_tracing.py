"""The library names that the benchmark's tracer (bench/tracing.py) relies on."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import sphere_nav
from sphere_nav.constraints import ConicCap, ConstraintArrangement, ProjectedStarShape
from sphere_nav.controllers import ConicGradientController, StarPiecewiseController
from sphere_nav.scenario import validate_scenario


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_swaps_or_forwards():
    # instrument() reads each module attribute it swaps on entry, so a
    # renamed or deleted library function fails here, and every original is
    # back in place on exit
    tracing = _load_tracing()
    before = (sphere_nav.geometry.distance_to_arc, sphere_nav.scenario.integrate)
    with tracing.instrument(sphere_nav, tracing.Tracer()):
        assert sphere_nav.scenario.integrate is not before[1]
    assert (sphere_nav.geometry.distance_to_arc, sphere_nav.scenario.integrate) == before
    # the proxies time these by name
    for law in (ConicGradientController, StarPiecewiseController):
        assert callable(law.control) and callable(law.signed_union_margin)
    for region in (ConicCap, ProjectedStarShape):
        assert callable(region.distance_warm)


def test_separation_span_once_per_arrangement(cones7):
    # delta_measured looks pairwise_separation up at call time, so the swapped
    # wrapper times it; the arrangement keeps the value, so a second
    # validation of the same arrangement records no span
    tracing = _load_tracing()
    arr = cones7.arrangement
    fresh = replace(cones7, arrangement=ConstraintArrangement(
        arr.sets, arr.kernels, delta_declared=arr.delta_declared))
    tracer = tracing.Tracer()
    with tracing.instrument(sphere_nav, tracer):
        validate_scenario(fresh, samples=200)
        assert len(tracer.durations["constraints.separation"]) == 1
        validate_scenario(fresh, samples=200)
    assert len(tracer.durations["constraints.separation"]) == 1

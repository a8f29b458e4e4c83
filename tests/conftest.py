"""Shared fixtures: bundled scenarios are parsed and integrated once per session."""

import time
from pathlib import Path

import numpy as np
import pytest

import sphere_nav
from sphere_nav.scenario import (
    draw_initial_conditions,
    effective_seed,
    parse_scenario,
)
from sphere_nav.simulate import integrate

# bundled files, found from the package so tests run from any directory
SCENARIO_DIR = Path(sphere_nav.__file__).parent / "scenarios"


def scenario_path(name: str) -> str:
    return f"{SCENARIO_DIR}/{name}.json"


@pytest.fixture(scope="session")
def cones7():
    return parse_scenario(scenario_path("s3_cones7"))


@pytest.fixture(scope="session")
def star4():
    return parse_scenario(scenario_path("s2_star4"))


@pytest.fixture(scope="session")
def star1():
    return parse_scenario(scenario_path("s3_star1"))


@pytest.fixture(scope="session")
def star1_feasible():
    return parse_scenario(scenario_path("s3_star1_eps005"))


class BatchRun:
    """Trajectories of one scenario plus the integration wall-clock."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.controller = scenario.build_controller()
        self.ics = draw_initial_conditions(scenario, effective_seed(scenario))
        t0 = time.perf_counter()
        self.trajectories = [integrate(x0, self.controller, scenario.sim)
                             for x0 in self.ics]
        self.elapsed = time.perf_counter() - t0

    @property
    def n_converged(self):
        return sum(t.converged for t in self.trajectories)

    @property
    def n_safe(self):
        return sum(t.safe for t in self.trajectories)


@pytest.fixture(scope="session")
def cones7_run(cones7):
    return BatchRun(cones7)


@pytest.fixture(scope="session")
def star4_run(star4):
    return BatchRun(star4)


@pytest.fixture(scope="session")
def star1_run(star1):
    return BatchRun(star1)


@pytest.fixture(scope="session")
def star1_feasible_run(star1_feasible):
    return BatchRun(star1_feasible)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20270809)

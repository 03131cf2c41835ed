"""Shared fixtures: the expensive spectral solves are computed once per session."""

import pytest

from slspectra.core import Interval, SLProblem, make_grid
from slspectra.eigensolve import solve_spectrum
from slspectra.casestudy import (
    DCRModel,
    dcr_sl_problem,
    solve_case_study,
    transformed_problem,
)


@pytest.fixture(scope="session")
def dirichlet_problem():
    return SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (0.0, 1.0), (0.0, 1.0))


@pytest.fixture(scope="session")
def dirichlet_dec(dirichlet_problem):
    return solve_spectrum(dirichlet_problem, N=20)


@pytest.fixture(scope="session")
def neumann_problem():
    return SLProblem.from_strings(0.0, 1.0, "1", "0", "1", (1.0, 0.0), (1.0, 0.0))


@pytest.fixture(scope="session")
def neumann_dec(neumann_problem):
    return solve_spectrum(neumann_problem, N=3)


@pytest.fixture(scope="session")
def model():
    return DCRModel(1.0, 0.75)


@pytest.fixture(scope="session")
def cs_spec50(model):
    return solve_case_study(model, 50)


@pytest.fixture(scope="session")
def transformed_dec50(model):
    return solve_spectrum(transformed_problem(model), N=50)


@pytest.fixture(scope="session")
def shifted_dec(model):
    """The case study's full generator A - kappa I, five modes."""
    return solve_spectrum(transformed_problem(model, include_kappa=True), N=5)


@pytest.fixture(scope="session")
def weighted_dec(model):
    return solve_spectrum(dcr_sl_problem(model), N=10)


@pytest.fixture(scope="session")
def std_grid():
    return make_grid(Interval(0.0, 1.0), panels=96)

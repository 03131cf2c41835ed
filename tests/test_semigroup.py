"""Modal semigroup: algebraic laws, stability/compactness verdicts, outputs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from slspectra.eigensolve import ModalCoefficients, solve_spectrum
from slspectra.expressions import parse_coeff
from slspectra.fracspace import fractional_space, norm_alpha
from slspectra.semigroup import (
    evolve,
    growth_bound,
    is_compact,
    is_exponentially_stable,
    trajectory,
    trajectory_to_csv,
)


def _rand(dec, seed):
    return ModalCoefficients(np.random.default_rng(seed).standard_normal(dec.N), dec)


def test_identity_at_zero(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 0)
    out = evolve(c0, 0.0)
    assert np.array_equal(out.coefficients, c0.coefficients)


def test_composition_law(dirichlet_dec):
    rng = np.random.default_rng(1)
    for _ in range(100):
        c0 = ModalCoefficients(rng.standard_normal(20), dirichlet_dec)
        t, s = rng.uniform(0.0, 0.3, size=2)
        one = evolve(c0, t + s).coefficients
        two = evolve(evolve(c0, t), s).coefficients
        assert np.max(np.abs(one - two)) < 1e-12


def test_kappa_shift(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 2)
    plain = evolve(c0, 0.2).coefficients
    shifted = evolve(c0, 0.2, kappa=1.5).coefficients
    assert np.allclose(shifted, plain * math.exp(-0.3), rtol=1e-14)


def test_underflow_flush(dirichlet_dec):
    c0 = ModalCoefficients(np.ones(20), dirichlet_dec)
    out = evolve(c0, 100.0)  # e^{-pi^2 * 100} underflows
    assert np.all(out.coefficients == 0.0)


def test_overflow_raises(dirichlet_problem):
    # with q = -100, lambda_1 = 100 - pi^2 and e^(10 lambda_1) overflows
    dec = solve_spectrum(replace(dirichlet_problem, q=parse_coeff("-100")), N=4)
    c0 = ModalCoefficients(np.ones(4), dec)
    with pytest.raises(ValueError, match="coefficient of mode 1 at t = 10 is not finite"):
        evolve(c0, 10.0)
    with pytest.raises(ValueError, match="coefficient of mode 1 at t = 10 is not finite"):
        trajectory(c0, [0.0, 1.0, 10.0])
    # a mode that is absent stays absent: lambda_4 < 0, and c_1(0) = 0 is not 0 * inf
    e4 = ModalCoefficients(np.array([0.0, 0.0, 0.0, 1.0]), dec)
    out = evolve(e4, 10.0).coefficients
    assert np.array_equal(out[:3], np.zeros(3)) and 0.0 < out[3] < 1.0


def test_norm_overflow_raises(dirichlet_dec):
    # every coefficient is finite, but their squares are not
    c0 = ModalCoefficients(np.full(20, 1e200), dirichlet_dec)
    with pytest.raises(ValueError, match="rho norm at t = 0 is not finite"):
        trajectory(c0, [0.0])
    # (mu - lambda_n)^3 c_n^2 overflows where c_n^2 does not
    c0 = ModalCoefficients(np.full(20, 1e150), dirichlet_dec)
    with pytest.raises(ValueError, match="alpha norm at t = 0 is not finite"):
        trajectory(c0, [0.0], alpha_space=fractional_space(dirichlet_dec, 1.5))


def test_negative_time_rejected(dirichlet_dec):
    with pytest.raises(ValueError):
        evolve(_rand(dirichlet_dec, 3), -0.1)


def test_trajectory_validation(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 4)
    with pytest.raises(ValueError):
        trajectory(c0, [0.2, 0.1])
    with pytest.raises(ValueError):
        trajectory(c0, [])
    with pytest.raises(ValueError):
        trajectory(c0, [-1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_and_kappa_rejected(dirichlet_dec, bad):
    c0 = _rand(dirichlet_dec, 8)
    with pytest.raises(ValueError, match="finite"):
        evolve(c0, bad)
    with pytest.raises(ValueError, match="finite"):
        evolve(c0, 0.1, kappa=bad)
    with pytest.raises(ValueError, match="finite"):
        trajectory(c0, [bad])
    with pytest.raises(ValueError, match="finite"):
        trajectory(c0, [0.0, 0.1], kappa=bad)


def test_trajectory_rows_match_evolve(dirichlet_dec, neumann_dec):
    # the evolution and both norms are the per-time ones, bit for bit
    c0 = _rand(dirichlet_dec, 9)
    fs = fractional_space(dirichlet_dec, 0.75)
    times = np.linspace(0.0, 0.4, 13)
    traj = trajectory(c0, times, alpha_space=fs, kappa=0.3)
    for ti, row, nr, na in zip(times, traj.states, traj.norms_rho, traj.norms_alpha):
        c = evolve(c0, ti, kappa=0.3)
        assert c.decomposition is dirichlet_dec
        assert np.array_equal(row, c.coefficients)
        assert nr == np.linalg.norm(c.coefficients)
        assert na == norm_alpha(fs, c)
    # the decomposition comes from the coefficients, and a space on another
    # decomposition is refused
    c1 = ModalCoefficients(np.ones(neumann_dec.N), neumann_dec)
    assert trajectory(c1, [0.0, 0.1]).decomposition is neumann_dec
    with pytest.raises(ValueError, match="different decomposition"):
        trajectory(c1, [0.0, 0.1], alpha_space=fs)


def test_growth_bound_both_norms(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 5)
    fs = fractional_space(dirichlet_dec, 0.5)
    traj = trajectory(c0, np.linspace(0.0, 1.0, 9), alpha_space=fs)
    assert np.max(growth_bound(traj)) <= 1.0 + 1e-10
    # alpha norms obey the same envelope: weights are t-independent
    env = np.exp(dirichlet_dec.gamma * traj.times) * traj.norms_alpha[0]
    assert np.all(traj.norms_alpha <= env * (1.0 + 1e-10))
    zero = trajectory(ModalCoefficients(np.zeros(20), dirichlet_dec), [0.0, 0.1])
    with pytest.raises(ValueError, match="zero initial state"):
        growth_bound(zero)


def test_norms_monotone_for_stable_system(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 6)
    traj = trajectory(c0, np.linspace(0.0, 0.5, 11))
    assert np.all(np.diff(traj.norms_rho) < 0.0)


def test_stability_verdicts(dirichlet_dec, neumann_dec, shifted_dec, model):
    stable, rate = is_exponentially_stable(dirichlet_dec)
    assert stable and rate == pytest.approx(math.pi ** 2, rel=1e-10)
    # Neumann has lambda_1 = 0 on the boundary of stability
    stable, rate = is_exponentially_stable(neumann_dec)
    assert not stable and rate == 0.0
    stable, rate = is_exponentially_stable(shifted_dec)
    s1 = 0.9601888739147829
    assert stable and abs(rate - (s1 ** 2 + model.kappa)) < 1e-8


def test_compactness_surrogate(dirichlet_dec, neumann_dec, transformed_dec50, shifted_dec):
    assert is_compact(dirichlet_dec.eigenvalues)
    assert is_compact(neumann_dec.eigenvalues)
    assert is_compact(transformed_dec50.eigenvalues)
    assert is_compact(shifted_dec.eigenvalues)
    assert not is_compact(np.full(10, -1.0))  # constant sequence: no decay
    assert not is_compact(np.arange(10.0))    # nonnegative and growing
    with pytest.raises(ValueError):
        is_compact(np.array([]))


def test_csv_and_json_outputs(dirichlet_dec):
    c0 = _rand(dirichlet_dec, 7)
    fs = fractional_space(dirichlet_dec, 0.5)
    traj = trajectory(c0, [0.0, 0.1, 0.2], alpha_space=fs)
    text = trajectory_to_csv(traj)
    assert text.count("\r\n") == 4  # the csv module's own line ends
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:2] == ["t", "c_1"]
    assert len(lines) == 4
    row1 = [float(v) for v in lines[1].split(",")]
    assert np.array_equal(np.array(row1[1:]), c0.coefficients)
    doc = json.loads(json.dumps(traj.to_dict()))
    assert doc["schema_version"] == 1
    assert doc["alpha"] == 0.5
    assert len(doc["norms_alpha"]) == 3


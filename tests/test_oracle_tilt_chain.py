import numpy as np
import pytest
from scipy.integrate import quad

from tiltlab.diffusion import PolicyNet, analytic_eps, make_schedule, sample_trajectory
from tiltlab.errors import ContractError
from tiltlab.oracle import chain_stats, conditional_expected_noise, tilted_gaussian_target
from tiltlab.streams import make_rng


def test_unit_tilt_shifts_mean_by_one():
    t = tilted_gaussian_target(0.0, 1.0, 1.0, 1.0)
    assert t.mean[0] == 1.0 and t.var == 1.0


def test_tilt_cross_checked_by_quadrature():
    # Independent oracle: moments of exp(a x / alpha) phi(x) by quadrature.
    for a, alpha, m0, v0 in [(1.0, 1.0, 0.0, 1.0), (-0.7, 0.5, 0.4, 2.3)]:
        t = tilted_gaussian_target(m0, v0, a, alpha)

        def w(x):
            return np.exp(a * x / alpha) * np.exp(-0.5 * (x - m0) ** 2 / v0) / np.sqrt(2 * np.pi * v0)

        z = quad(w, -30, 30, limit=400)[0]
        mean = quad(lambda x: x * w(x), -30, 30, limit=400)[0] / z
        second = quad(lambda x: x * x * w(x), -30, 30, limit=400)[0] / z
        assert abs(t.mean[0] - mean) < 1e-8
        assert abs(t.var - (second - mean**2)) < 1e-8


def test_tilt_trivial_limits():
    assert tilted_gaussian_target(0.3, 1.2, 1.0, 1e15).mean[0] == pytest.approx(0.3, abs=1e-12)
    base = tilted_gaussian_target(0.3, 1.2, 0.0, 1.0)
    assert base.mean[0] == 0.3 and base.var == 1.2


def test_tilt_rejects_bad_alpha():
    with pytest.raises(ContractError):
        tilted_gaussian_target(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ContractError):
        tilted_gaussian_target(0.0, 1.0, 1.0, -2.0)


# -- chain statistics --------------------------------------------------------


def test_chain_moments_match_sampling(analytic32, std_base, sched32):
    cs = chain_stats(sched32, std_base)
    traj = sample_trajectory(analytic32, make_rng(1), n=100000)
    assert abs(traj.terminal.mean() - cs.terminal_mean) < 0.02
    assert abs(traj.terminal.var() - cs.terminal_var) < 0.02


def test_chain_sensitivity_matches_deterministic_chain(std_base, sched16):
    # sens[T] is d x_0 / d x_T along the noise-free mean map.
    from tiltlab.diffusion import reverse_mean

    cs = chain_stats(sched16, std_base)
    policy = PolicyNet(sched16, base=std_base)

    def push(x):
        x = np.array([[x]])
        for t in range(sched16.n_steps, 0, -1):
            x = reverse_mean(policy, x, t)
        return x[0, 0]

    h = 1e-6
    fd = (push(1.0 + h) - push(1.0 - h)) / (2 * h)
    assert abs(fd - cs.sens[sched16.n_steps]) < 1e-8


def test_conditional_noise_matches_score_route(std_base, sched16):
    # Joint-covariance algebra vs the score formula: identical values.
    x = np.linspace(-3, 3, 13).reshape(-1, 1)
    for t in range(1, sched16.n_steps + 1):
        a = conditional_expected_noise(std_base, sched16, x, t)
        b = analytic_eps(std_base, sched16, x, t)
        assert np.abs(a - b).max() < 1e-12


def test_conditional_noise_requires_single_gaussian(two_modes, sched16):
    with pytest.raises(ContractError):
        conditional_expected_noise(two_modes, sched16, np.zeros((1, 1)), 3)


def test_value_slope_matches_monte_carlo_regression(std_base, sched16):
    # v_t(x) = alpha log E[exp(a x_0 / alpha) | x_t] is affine with slope
    # a * sens[t]; check by weighted Monte-Carlo regression on chain pairs.
    cs = chain_stats(sched16, std_base)
    policy = PolicyNet(sched16, base=std_base)
    t_probe, alpha = 6, 1.0
    traj = sample_trajectory(policy, make_rng(2), n=200000)
    x_t = traj.states[t_probe][:, 0]
    x_0 = traj.terminal[:, 0]
    # exact conditional expectation slope: cov/var of the linear chain
    slope_mc = np.cov(x_0, x_t)[0, 1] / np.var(x_t)
    want_slope, _ = cs.value_affine(t_probe, 1.0, alpha)
    assert abs(slope_mc - want_slope) < 0.02


def test_tilted_terminal_reduces_to_plain_tilt_at_long_horizon(std_base):
    s = make_schedule(256, 16.0)
    cs = chain_stats(s, std_base)
    mean, var = cs.tilted_terminal(1.0, 1.0)
    # With sens[T]^2 = e^{-horizon} the fixed-initial gap is invisible:
    assert abs(mean - var) < 1e-6  # mean = tau^2 ~ s^2 = var
    assert abs(var - 1.0) < 0.02   # discretization inflation only

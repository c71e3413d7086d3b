import numpy as np
import pytest

from tiltlab.diffusion import forward_perturb, make_schedule
from tiltlab.errors import ConfigError
from tiltlab.streams import make_rng


def test_step_zero_is_identity():
    s = make_schedule(8, 2.0)
    x0 = np.array([[1.7, -0.4]])
    noise = np.array([[5.0, 5.0]])
    assert np.array_equal(forward_perturb(s, x0, 0, noise), x0)


def test_zero_input_gives_pure_noise_term():
    s = make_schedule(8, 2.0)
    noise = make_rng(1).standard_normal((4, 1))
    for t in (1, 4, 8):
        assert np.array_equal(forward_perturb(s, np.zeros((4, 1)), t, noise),
                              s.sigma_pert[t] * noise)
    rows = np.array([1, 4, 8, 4])  # one step per row
    assert np.array_equal(forward_perturb(s, np.zeros((4, 1)), rows, noise),
                          s.sigma_pert[rows, None] * noise)


def test_out_of_range_step_raises():
    s = make_schedule(8, 2.0)
    with pytest.raises(IndexError):
        forward_perturb(s, np.zeros((1, 1)), 9, np.zeros((1, 1)))
    with pytest.raises(IndexError):
        forward_perturb(s, np.zeros((2, 1)), [3, 9], np.zeros((2, 1)))


def test_terminal_marginal_is_standard_normal():
    # Monte-Carlo check of the limiting moments at a long horizon.
    s = make_schedule(64, 20.0)
    rng = make_rng(2)
    x0 = np.full((100000, 1), 1.3)
    x_t = forward_perturb(s, x0, s.n_steps, rng.standard_normal((100000, 1)))
    assert abs(x_t.mean()) < 0.02
    assert abs(x_t.var() - 1.0) < 0.02


def test_table_invariants():
    s = make_schedule(32, 8.0)
    assert s.mu_pert[0] == 1.0 and s.sigma_pert[0] == 0.0
    assert np.all(np.diff(s.mu_pert) < 0.0)
    assert np.all(np.diff(s.sigma_pert) > 0.0)
    assert np.all(s.mu_pert**2 + s.sigma_pert**2 <= 1.0 + 1e-12)


def test_config_errors():
    with pytest.raises(ConfigError):
        make_schedule(0, 1.0)
    with pytest.raises(ConfigError):
        make_schedule(8, -1.0)
    with pytest.raises(ConfigError):
        make_schedule(8, 1.0, rev_var=0.0)


def _tv_between_gaussians(m1, v1, m2, v2):
    xs = np.linspace(min(m1, m2) - 8, max(m1, m2) + 8, 20001)

    def pdf(m, v):
        return np.exp(-0.5 * (xs - m) ** 2 / v) / np.sqrt(2 * np.pi * v)

    return 0.5 * np.trapezoid(np.abs(pdf(m1, v1) - pdf(m2, v2)), xs)


def test_perturbation_matches_composed_euler_increments():
    # Composing Euler-Maruyama steps of dx = -0.5 x dt + dw reproduces the
    # closed-form perturbation marginals to TV < 0.01 at T = 64.
    s = make_schedule(64, 4.0)
    c = 1.0 - 0.5 * s.dt
    x0 = 1.3
    mean_e, var_e = x0, 0.0
    worst = 0.0
    for t in range(1, s.n_steps + 1):
        mean_e *= c
        var_e = c**2 * var_e + s.dt
        tv = _tv_between_gaussians(s.mu_pert[t] * x0, s.sigma_pert[t] ** 2, mean_e, var_e)
        worst = max(worst, tv)
    assert worst < 0.01


def test_time_features_shape_and_content():
    s = make_schedule(10, 2.0)
    f = s.time_features(5)
    assert f.shape == (2,)
    assert f[0] == 0.5 and f[1] == s.sigma_pert[5]
    batch = s.time_features(np.array([0, 10]))
    assert batch.shape == (2, 2)

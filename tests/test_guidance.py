import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tiltlab.autodiff import init_mlp
from tiltlab.diffusion import GaussianMixture, PolicyNet, add_residual_net, make_schedule, sample_trajectory
from tiltlab.errors import ContractError
from tiltlab.guidance import (
    AffineValueShift,
    GuidedPolicy,
    TweedieShift,
    ZeroShift,
    fit_value_mc,
    fit_value_softq,
    log_mean_exp_backup,
    path_integral_grad,
    tweedie_posterior_mean,
    tweedie_value_grad,
    value_weighted_sample,
)
from tiltlab.oracle import chain_stats, grid_soft_solve, GridMDP
from tiltlab.rewards import BlackBoxReward, LinearReward, QuadraticReward, eval_reward
from tiltlab.streams import make_rng


def test_zero_shift_reproduces_pretrained_bitwise(analytic16):
    plain = sample_trajectory(analytic16, make_rng(1), n=64)
    guided, _ = value_weighted_sample(GuidedPolicy(analytic16, ZeroShift(1), 1.0), make_rng(1), 64)
    assert np.array_equal(plain.terminal, guided)


def test_exact_affine_source_hits_tilted_target(std_base):
    s = make_schedule(64, 8.0)
    policy = PolicyNet(s, base=std_base)
    cs = chain_stats(s, std_base)
    mean_t, var_t = cs.tilted_terminal(1.0, 1.0)
    source = AffineValueShift(cs, 1.0, 1.0)
    samples, diag = value_weighted_sample(GuidedPolicy(policy, source, 1.0), make_rng(2), 10000)
    assert abs(samples.mean() - mean_t) < 0.05
    assert abs(samples.var() - var_t) / var_t < 0.10
    assert diag["max_shift_norm"] > 0.0


def test_pretrained_parameters_untouched_by_guidance(std_base, residual16):
    before = {k: v.copy() for k, v in residual16.params.items()}
    cs = chain_stats(residual16.schedule, std_base)
    source = AffineValueShift(cs, 1.0, 1.0)
    value_weighted_sample(GuidedPolicy(residual16, source, 1.0), make_rng(3), 256)
    for k in before:
        assert np.array_equal(residual16.params[k], before[k])


def test_huge_alpha_recovers_pretrained_statistics(std_base):
    s = make_schedule(32, 6.0)
    policy = PolicyNet(s, base=std_base)
    cs = chain_stats(s, std_base)
    source = AffineValueShift(cs, 1.0, 1e9)
    samples, _ = value_weighted_sample(GuidedPolicy(policy, source, 1e9), make_rng(4), 10000)
    assert abs(samples.mean() - cs.terminal_mean) < 0.05
    assert abs(samples.var() - cs.terminal_var) / cs.terminal_var < 0.10


# -- Tweedie -----------------------------------------------------------------


def test_tweedie_posterior_mean_exact_on_gaussian(std_base, sched16, analytic16):
    xs = np.linspace(-3, 3, 13).reshape(-1, 1)
    for t in range(1, sched16.n_steps + 1):
        mu, sg = sched16.mu_pert[t], sched16.sigma_pert[t]
        want = xs * mu / (mu**2 + sg**2)
        got = tweedie_posterior_mean(analytic16, xs, t)
        assert np.abs(got - want).max() < 1e-10


def test_tweedie_at_time_zero_is_identity(analytic16):
    xs = np.linspace(-2, 2, 5).reshape(-1, 1)
    assert np.array_equal(tweedie_posterior_mean(analytic16, xs, 0), xs)
    grad = tweedie_value_grad(analytic16, QuadraticReward(np.array([[1.0]]), np.zeros(1)), xs, 0)
    assert np.allclose(grad, 2 * xs)


def test_tweedie_linear_reward_gradient_constant_in_x(analytic16):
    xs = np.linspace(-3, 3, 9).reshape(-1, 1)
    grads = tweedie_value_grad(analytic16, LinearReward([1.7]), xs, 6)
    assert np.abs(grads - grads[0]).max() < 1e-12


def test_tweedie_grad_through_residual_net_matches_finite_differences(sched16):
    # A nonzero net makes the noise map's Jacobian carry a network part.
    base = GaussianMixture(np.array([0.4, 0.6]), np.array([[-2.0, 1.0], [1.5, -0.5]]), np.array([1.0, 0.7]))
    policy = PolicyNet(sched16, base=base, net=init_mlp([4, 8, 8, 2], make_rng(20)))
    spec = QuadraticReward(np.array([[-0.5, 0.2], [0.2, -0.3]]), np.array([1.0, -0.5]))
    xs = make_rng(21).standard_normal((6, 2))
    h = 1e-5
    for t in (1, 5, 16):
        got = tweedie_value_grad(policy, spec, xs, t)
        want = np.empty_like(xs)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            up = eval_reward(spec, tweedie_posterior_mean(policy, xs + e, t))
            down = eval_reward(spec, tweedie_posterior_mean(policy, xs - e, t))
            want[:, j] = (up - down) / (2 * h)
        assert np.abs(got - want).max() < 1e-6 * max(1.0, np.abs(want).max())


def _zero_residual_2d(sched):
    base = GaussianMixture(np.array([0.4, 0.6]), np.array([[-2.0, 1.0], [1.5, -0.5]]), np.array([1.0, 0.7]))
    return add_residual_net(PolicyNet(sched, base=base), make_rng(22), hidden=(8, 8))


def test_zero_output_net_is_skipped_exactly_in_guidance(sched16):
    # Tweedie shifts and path-integral estimates of a zero-residual policy
    # are bitwise those of its analytic part.
    residual = _zero_residual_2d(sched16)
    analytic = replace(residual, net=None)
    spec = QuadraticReward(np.array([[-0.5, 0.2], [0.2, -0.3]]), np.array([1.0, -0.5]))
    xs = make_rng(23).standard_normal((32, 2))
    for t in (1, 5, 16):
        assert np.array_equal(TweedieShift(residual, spec, 1.0).shift(xs, t),
                              TweedieShift(analytic, spec, 1.0).shift(xs, t))
        a = path_integral_grad(residual, spec, xs[0], t, 1.0, 256, make_rng(24))
        b = path_integral_grad(analytic, spec, xs[0], t, 1.0, 256, make_rng(24))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_tweedie_requires_differentiable_reward(analytic16):
    with pytest.raises(ContractError):
        tweedie_value_grad(analytic16, BlackBoxReward(lambda x: x[:, 0]), np.zeros((1, 1)), 3)


# -- path integral -----------------------------------------------------------


def test_path_integral_zero_reward_shrinks_to_zero(analytic16):
    n = 40000
    est, ess = path_integral_grad(analytic16, LinearReward([0.0]), np.array([0.4]), 5,
                                  1.0, n, make_rng(5))
    assert abs(est[0]) < 3.0 / np.sqrt(n)
    assert ess == pytest.approx(n)


def test_path_integral_matches_exact_shift(std_base, analytic16, sched16):
    cs = chain_stats(sched16, std_base)
    t = 3
    exact = cs.guided_shift_slope(t, 1.0, 1.0)
    est, _ = path_integral_grad(analytic16, LinearReward([1.0]), np.array([0.5]), t,
                                1.0, 100000, make_rng(6))
    assert abs(est[0] - exact) / abs(exact) < 0.05


def test_path_integral_is_differentiation_free(analytic16):
    spec = BlackBoxReward(lambda x: np.tanh(x[:, 0]), differentiable=False)
    est, _ = path_integral_grad(analytic16, spec, np.array([0.0]), 4, 1.0, 2000, make_rng(7))
    assert np.isfinite(est).all()


def test_path_integral_monte_carlo_scaling(analytic16):
    # Std of the estimator should shrink by ~sqrt(2) when n doubles.
    def batch_std(n, seed0):
        vals = [
            path_integral_grad(analytic16, LinearReward([1.0]), np.array([0.2]), 3,
                               1.0, n, make_rng(seed0 + i))[0][0]
            for i in range(50)
        ]
        return np.std(vals)

    ratio = batch_std(1000, 100) / batch_std(2000, 200)
    assert abs(ratio - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


def test_path_integral_degeneracy_warning(analytic16):
    with pytest.warns(UserWarning, match="effective sample size"):
        path_integral_grad(analytic16, LinearReward([40.0]), np.array([0.0]), 8,
                           0.05, 200, make_rng(8))


def test_path_integral_contracts(analytic16):
    with pytest.raises(ContractError):
        path_integral_grad(analytic16, LinearReward([1.0]), np.zeros(1), 3, 0.0, 1000, make_rng(9))
    with pytest.raises(ContractError):
        path_integral_grad(analytic16, LinearReward([1.0]), np.zeros(1), 3, 1.0, 50, make_rng(9))


# -- value fitting -----------------------------------------------------------


def test_soft_backup_two_atoms_reproduces_grid_value():
    # alpha log mean exp(v/alpha) over the two-state atoms equals the DP's
    # v_1 = ln 1.5 exactly.
    atoms = np.array([[0.0, np.log(2.0)]])
    got = log_mean_exp_backup(atoms, alpha=1.0)[0]
    mdp = GridMDP(np.array([0.0, 1.0]), np.ones(2), np.array([0.5, 0.5]),
                  np.full((1, 2, 2), 0.5), np.array([0.0, np.log(2.0)]), 1.0)
    want = grid_soft_solve(mdp).values[1][0]
    assert abs(got - want) < 1e-12
    assert abs(got - np.log(1.5)) < 1e-12


def test_fit_value_mc_constant_reward(analytic16):
    # Lemma-level fact: constant reward c gives v identically c.
    vm = fit_value_mc(analytic16, QuadraticReward(np.array([[0.0]]), np.zeros(1), 0.8),
                      1.0, make_rng(10), budget=800, steps=2500, hidden=(16,))
    xs = np.linspace(-2, 2, 9).reshape(-1, 1)
    for t in (0, 5, 12):
        assert np.abs(vm.value(xs, t) - 0.8).max() < 0.02


def test_fit_value_softq_zero_reward(analytic16):
    # Needs at least T sweeps: the pinned bottom level propagates upward
    # one step per sweep under frozen-target bootstrapping.
    vm = fit_value_softq(analytic16, LinearReward([0.0]), 1.0, make_rng(11),
                         n_states=64, inner_draws=16, steps_per_sweep=300,
                         hidden=(16,))
    xs = np.linspace(-2, 2, 9).reshape(-1, 1)
    for t in (1, 8, 16):
        assert np.abs(vm.value(xs, t)).max() < 0.02


def test_value_grad_matches_finite_difference(analytic16):
    vm = fit_value_mc(analytic16, LinearReward([1.0]), 1.0, make_rng(12),
                      budget=300, steps=600, hidden=(12,))
    x = np.array([[0.3], [-1.1]])
    t = 4
    g = vm.grad_x(x, t)
    h = 1e-6
    fd = (vm.value(x + h, t) - vm.value(x - h, t)) / (2 * h)
    assert np.abs(g[:, 0] - fd).max() < 1e-5


def test_fit_value_contracts(analytic16):
    with pytest.raises(ContractError):
        fit_value_mc(analytic16, LinearReward([1.0]), 0.0, make_rng(13), budget=200)
    with pytest.raises(ContractError):
        fit_value_mc(analytic16, LinearReward([1.0]), 1.0, make_rng(13), budget=50)
    from tiltlab.errors import ConfigError

    with pytest.raises(ConfigError):
        fit_value_softq(analytic16, LinearReward([1.0]), 1.0, make_rng(13), inner_draws=1)


def test_guidance_imports_without_finetune():
    # Guidance sits below fine-tuning: importing it must not pull the
    # fine-tuning package in (checked in a fresh interpreter).
    import tiltlab

    src = str(Path(tiltlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, tiltlab.guidance; print('tiltlab.finetune' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

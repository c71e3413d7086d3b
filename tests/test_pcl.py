import numpy as np
import pytest

from tiltlab.autodiff import MlpModel, Tape, evaluate, gradient, init_mlp, zero_mlp
from tiltlab.diffusion import (
    GaussianMixture, PolicyNet, add_residual_net, log_probs_under, make_schedule, sample_trajectory,
)
from tiltlab.finetune import (
    FineTuneConfig,
    kl_penalty,
    one_step_residuals,
    pcl_residual_arrays,
    pcl_value_loss,
    rollin_switch,
    rollin_trajectory,
    run_finetune,
)
from tiltlab.oracle import grid_build, grid_soft_solve
from tiltlab.rewards import LinearReward, eval_reward
from tiltlab.streams import make_rng


def _grid_trajectory_arrays(mdp, sol, rng, m=64):
    """Sample index trajectories from the soft-optimal grid chain and return
    (values (T+1, m), lp_star, lp_pre) evaluated from the exact tables."""
    T = mdp.n_steps
    idx = np.empty((T + 1, m), dtype=int)
    idx[T] = rng.choice(mdp.n_states, size=m, p=sol.init_star)
    lp_star = np.empty((T, m))
    lp_pre = np.empty((T, m))
    for t in range(T, 0, -1):
        for i in range(m):
            j = rng.choice(mdp.n_states, p=sol.policy[t - 1][idx[t, i]])
            idx[t - 1, i] = j
            lp_star[t - 1, i] = np.log(sol.policy[t - 1][idx[t, i], j])
            lp_pre[t - 1, i] = np.log(mdp.trans[t - 1][idx[t, i], j])
    values = np.stack([sol.values[t][idx[t]] for t in range(T + 1)], axis=0)
    return values, lp_star, lp_pre


def test_residual_vanishes_at_grid_optimum(analytic16):
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -7.0, 7.0, 31, n_steps=4)
    sol = grid_soft_solve(mdp)
    values, lp_star, lp_pre = _grid_trajectory_arrays(mdp, sol, make_rng(1))
    res = one_step_residuals(values, lp_star, lp_pre, mdp.alpha)
    assert np.abs(res).max() < 1e-10


def test_residual_zero_for_trivial_configuration(analytic16):
    # theta = theta_pre, v = 0, r = 0: the log terms cancel and the values
    # vanish, so the residual is identically zero.
    traj = sample_trajectory(analytic16, make_rng(2), n=8)
    lp_cur, lp_pre, _ = pcl_residual_arrays(analytic16, analytic16, traj, 0)
    reward = eval_reward(LinearReward([0.0]), traj.terminal)
    _, _, values = pcl_value_loss(Tape(), zero_mlp([3, 4, 1]), analytic16.schedule, traj, reward,
                                  lp_cur, lp_pre, 1.0)
    res = one_step_residuals(values, lp_cur, lp_pre, 1.0)
    assert np.array_equal(res, np.zeros_like(res))


def test_trajectory_balance_on_grid_with_oracle_constant(analytic16):
    # With the soft-optimal chain, the reward at the bottom, the initial
    # reweighting ratio included, and log Z = log C from the DP, the
    # whole-trajectory residual
    #   log Z + log ratio at x_T + sum_t (log p* - log p_pre) - r(x_0)/alpha
    # vanishes.
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -7.0, 7.0, 31, n_steps=4)
    sol = grid_soft_solve(mdp)
    rng = make_rng(7)
    m = 64
    T = mdp.n_steps
    idx_T = rng.choice(mdp.n_states, size=m, p=sol.init_star)
    initial_ratio = np.log(sol.init_star[idx_T]) - np.log(mdp.init[idx_T])
    values, lp_star, lp_pre = _grid_trajectory_arrays_from_start(mdp, sol, idx_T, rng)
    reward = values[0]
    res = sol.log_c + initial_ratio + (lp_star - lp_pre).sum(axis=0) - reward / mdp.alpha
    assert np.abs(res).max() < 1e-10


def _grid_trajectory_arrays_from_start(mdp, sol, idx_T, rng):
    T, m = mdp.n_steps, idx_T.shape[0]
    idx = np.empty((T + 1, m), dtype=int)
    idx[T] = idx_T
    lp_star = np.empty((T, m))
    lp_pre = np.empty((T, m))
    for t in range(T, 0, -1):
        for i in range(m):
            j = rng.choice(mdp.n_states, p=sol.policy[t - 1][idx[t, i]])
            idx[t - 1, i] = j
            lp_star[t - 1, i] = np.log(sol.policy[t - 1][idx[t, i], j])
            lp_pre[t - 1, i] = np.log(mdp.trans[t - 1][idx[t, i], j])
    values = np.stack([sol.values[t][idx[t]] for t in range(T + 1)], axis=0)
    return values, lp_star, lp_pre


def test_consistency_residual_formula():
    # values[0] = v_{t-1}, values[1] = v_t for one transition.
    out = one_step_residuals(np.array([[0.5], [2.0]]), np.array([[-1.0]]), np.array([[-1.2]]),
                             alpha=2.0)
    assert np.allclose(out, 2.0 / 2.0 - 1.0 - 0.5 / 2.0 + 1.2)


def test_value_gradient_matches_finite_differences_of_batch_loss():
    # The value step descends the residual it reports: v_t and v_{t-1} both
    # move with the value parameters, so a semi-gradient that freezes
    # v_{t-1} disagrees with these differences by O(1).
    pre = PolicyNet(make_schedule(4, 3.0), base=GaussianMixture.std_normal(1))
    policy = add_residual_net(pre, make_rng(20), hidden=(6,))
    rng = make_rng(21)
    policy = policy.with_params(
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in policy.params.items()}
    )
    traj = sample_trajectory(policy, make_rng(22), n=8)
    value = init_mlp([3, 4, 1], make_rng(23))
    reward, alpha = eval_reward(LinearReward([1.0]), traj.terminal), 0.7
    s = policy.schedule
    lp_cur, lp_pre, _ = pcl_residual_arrays(policy, pre, traj, 0)

    def numpy_values(params):
        model = MlpModel(value.widths, value.activation, params)
        return np.stack([reward] + [evaluate(model, s.net_input(traj.states[t], t))[:, 0]
                                    for t in range(1, s.n_steps + 1)])

    def batch_loss(params):
        res = one_step_residuals(numpy_values(params), lp_cur, lp_pre, alpha)
        return (res ** 2).sum() / traj.batch

    tape = Tape()
    loss, vnodes, values = pcl_value_loss(tape, value, s, traj, reward, lp_cur, lp_pre, alpha)
    # The values read off the tape are the numpy forward pass, bit for bit.
    assert np.array_equal(values, numpy_values(value.params))
    assert np.isclose(float(loss.value), batch_loss(value.params), rtol=1e-14, atol=0.0)
    assert sorted(vnodes) == sorted(value.params)
    grads = dict(zip(sorted(vnodes), gradient(loss, [vnodes[k] for k in sorted(vnodes)])))
    h = 1e-5
    for name, arr in value.params.items():
        fd = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            up = {k: v.copy() for k, v in value.params.items()}
            down = {k: v.copy() for k, v in value.params.items()}
            up[name][idx] += h
            down[name][idx] -= h
            fd[idx] = (batch_loss(up) - batch_loss(down)) / (2 * h)
        assert np.abs(grads[name] - fd).max() <= 1e-6 * np.abs(fd).max(), name


@pytest.mark.parametrize("rollin", ["current", "pretrained", "mixture:5"])
def test_every_rollin_scores_each_step_under_both_policies(residual16, rollin):
    # Each step's means under the policy that drew it are the trajectory's
    # own and only the other policy runs on the step's states; both log
    # density arrays equal a fresh scoring under each policy, byte for byte.
    rng = make_rng(30)

    def perturbed(policy):
        return policy.with_params({k: v + 0.05 * rng.standard_normal(v.shape)
                                   for k, v in policy.params.items()})

    pre = perturbed(residual16)  # a live pre-trained net, so no part of it is skipped
    policy = perturbed(pre)
    traj = rollin_trajectory(policy, pre, rollin, 12, make_rng(31))
    lp_cur, lp_pre, kl = pcl_residual_arrays(policy, pre, traj, rollin_switch(rollin, traj.n_steps))
    assert np.array_equal(lp_cur, log_probs_under(policy, traj))
    assert np.array_equal(lp_pre, log_probs_under(pre, traj))
    assert np.array_equal(kl.sum(axis=0), kl_penalty(policy, pre, traj))

    cfg = FineTuneConfig("pcl", alpha=1.0, batch=12, iterations=2, lr=5e-3, rollin=rollin,
                         value_hidden=(8,), seed=4)
    records = run_finetune(pre, LinearReward([1.0]), cfg).records
    assert len(records) == 2
    assert all(np.isfinite([r.mean_reward, r.kl_estimate, r.loss, r.grad_norm]).all() for r in records)


def test_training_reduces_mean_squared_residual(residual16):
    cfg = FineTuneConfig("pcl", alpha=1.0, batch=64, iterations=250, lr=5e-3,
                         value_hidden=(24, 24), seed=8)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    first = np.mean([r.loss for r in result.records[:10]])
    last = np.mean([r.loss for r in result.records[-10:]])
    assert last < first
    assert result.value is not None


def test_alpha_zero_rejected():
    with pytest.raises(Exception):
        FineTuneConfig("pcl", alpha=0.0).validate()

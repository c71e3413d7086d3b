import numpy as np
import pytest

from tiltlab.autodiff import expected_param_count, param_distance
from tiltlab.diffusion import means_under, reverse_mean
from tiltlab.finetune import FineTuneConfig, collect_mle_tuples, run_finetune, stabilized_weights
from tiltlab.oracle import GridMDP, grid_soft_solve
from tiltlab.rewards import LinearReward
from tiltlab.streams import make_rng

NOISE_LR = 3e-6


def _noise_floor(policy, iterations, lr):
    return lr * np.sqrt(iterations) * np.sqrt(expected_param_count(policy.net.widths))


def test_constant_reward_is_uniform_weight_fixed_point(residual16):
    # All weights equal after the max shift: plain MLE toward pre-trained
    # transitions, stationary at theta_pre up to gradient noise.
    cfg = FineTuneConfig("weighted-mle", alpha=1.0, batch=32, iterations=50, lr=NOISE_LR, seed=3)
    result = run_finetune(residual16, LinearReward([0.0]), cfg)
    drift = param_distance(result.policy.params, residual16.params)
    assert drift < 1e-3
    assert drift < 3.0 * _noise_floor(residual16, 50, NOISE_LR)


def test_infinite_alpha_reduces_to_uniform_weights(residual16):
    cfg = FineTuneConfig("weighted-mle", alpha=1e12, batch=32, iterations=50, lr=NOISE_LR, seed=3)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    assert param_distance(result.policy.params, residual16.params) < 1e-3


def test_two_state_weighted_mle_fixed_point_matches_grid_oracle():
    # Categorical analog of the weighted-MLE loss: the empirical weighted
    # MLE over terminal states converges to the grid soft-optimal policy.
    mdp = GridMDP(
        grid=np.array([0.0, 1.0]),
        weights=np.ones(2),
        init=np.array([0.5, 0.5]),
        trans=np.full((1, 2, 2), 0.5),
        reward=np.array([0.0, np.log(2.0)]),
        alpha=1.0,
    )
    oracle_policy = grid_soft_solve(mdp).policy[0][0]  # (1/3, 2/3)

    rng = make_rng(4)
    x0 = rng.integers(0, 2, size=200000)  # uniform pre-trained transitions
    w = stabilized_weights(mdp.reward[x0], mdp.alpha)
    fitted = np.array([w[x0 == 0].sum(), w[x0 == 1].sum()])
    fitted /= fitted.sum()
    assert np.abs(fitted - oracle_policy).max() < 0.02


def test_rollin_prefix_is_current_and_suffix_is_pretrained(residual16, analytic16):
    # x_{t-1} must come from the pre-trained kernel at x_t even when the
    # current policy is visibly shifted.
    rng = make_rng(5)
    shifted = residual16.with_params(
        {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in residual16.params.items()}
    )
    x_t, x_prev, _, pre_means = collect_mle_tuples(shifted, analytic16, m=4000, rng=make_rng(6))
    # The roll-in keeps the pre-trained means it drew each x_{t-1} from.
    assert np.array_equal(pre_means, means_under(analytic16, x_t))
    t = 8
    resid_pre = (x_prev[t - 1] - reverse_mean(analytic16, x_t[t - 1], t)).mean()
    resid_cur = (x_prev[t - 1] - reverse_mean(shifted, x_t[t - 1], t)).mean()
    assert abs(resid_pre) < 0.05
    assert abs(resid_cur) > 2 * abs(resid_pre) + 0.05


def test_reward_pulls_terminal_mean_up(residual16):
    cfg = FineTuneConfig("weighted-mle", alpha=0.7, batch=48, iterations=120, lr=3e-3, seed=7)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    from tiltlab.diffusion import sample_trajectory

    pre_mean = sample_trajectory(residual16, make_rng(8), 4000).terminal.mean()
    tuned_mean = sample_trajectory(result.policy, make_rng(8), 4000).terminal.mean()
    assert tuned_mean > pre_mean + 0.3


def test_alpha_zero_rejected():
    with pytest.raises(Exception) as err:
        FineTuneConfig("weighted-mle", alpha=0.0).validate()
    assert "alpha" in str(err.value)

import numpy as np
import pytest

from tiltlab.autodiff import adam_init, param_distance
from tiltlab.diffusion import gaussian_log_density, log_probs_under, means_under, sample_trajectory
from tiltlab.finetune import FineTuneConfig, ppo_iteration, ppo_signals, ppo_surrogate_value, run_finetune
from tiltlab.oracle import chain_stats
from tiltlab.rewards import BlackBoxReward, LinearReward
from tiltlab.streams import make_rng


def test_surrogate_equals_unclipped_at_snapshot(residual16, analytic16):
    # At theta = theta_old every ratio is exactly one, inside the band.
    traj = sample_trajectory(residual16, make_rng(1), n=32)
    signals, *_ = ppo_signals(traj, analytic16, LinearReward([1.0]), alpha=0.5)
    clipped = ppo_surrogate_value(residual16, traj, signals, clip=0.2, clipped=True)
    plain = ppo_surrogate_value(residual16, traj, signals, clip=0.2, clipped=False)
    assert clipped == plain


def test_surrogate_equals_unclipped_inside_band(residual16, analytic16):
    # Perturb the parameters a little: ratios move but stay inside the
    # band, and the two surrogates remain bitwise equal.
    rng = make_rng(2)
    perturbed = residual16.with_params(
        {k: v + 1e-4 * rng.standard_normal(v.shape) for k, v in residual16.params.items()}
    )
    traj = sample_trajectory(residual16, make_rng(3), n=32)
    signals, *_ = ppo_signals(traj, analytic16, LinearReward([1.0]), alpha=0.5)

    snapshot_lp = gaussian_log_density(traj.states[:-1], traj.means, residual16.schedule.rev_var)
    ratios = np.exp(log_probs_under(perturbed, traj) - snapshot_lp)
    assert ratios.min() > 0.8 and ratios.max() < 1.2
    clipped = ppo_surrogate_value(perturbed, traj, signals, clip=0.2, clipped=True)
    plain = ppo_surrogate_value(perturbed, traj, signals, clip=0.2, clipped=False)
    assert clipped == plain


def test_clip_engages_outside_band(residual16, analytic16):
    rng = make_rng(4)
    perturbed = residual16.with_params(
        {k: v + 0.5 * rng.standard_normal(v.shape) for k, v in residual16.params.items()}
    )
    traj = sample_trajectory(residual16, make_rng(5), n=32)
    signals, *_ = ppo_signals(traj, analytic16, LinearReward([1.0]), alpha=0.5)
    clipped = ppo_surrogate_value(perturbed, traj, signals, clip=0.2, clipped=True)
    plain = ppo_surrogate_value(perturbed, traj, signals, clip=0.2, clipped=False)
    assert clipped != plain


def test_later_epochs_engage_the_clip(residual16, analytic16):
    # With ppo_epochs > 1 the live policy leaves the snapshot inside one
    # iteration. The loss of the last of four epochs is taken at the
    # parameters three epochs reach, where some ratios leave the clip band:
    # it is the hand-computed clipped surrogate plus the pathwise KL term.
    reward, clip, alpha, m = LinearReward([1.0]), 0.2, 0.5, 32

    def iterate(epochs):
        cfg = FineTuneConfig("ppo", alpha=alpha, batch=m, iterations=1, lr=1e-2, clip=clip,
                             ppo_epochs=epochs)
        return ppo_iteration(residual16, analytic16, reward, cfg, make_rng(7), adam_init(residual16.params))

    moved = iterate(3)[0]
    record = iterate(4)[2]
    traj = sample_trajectory(residual16, make_rng(7), m)  # the iteration's own batch
    signals, _, pre_means, _ = ppo_signals(traj, analytic16, reward, alpha)
    snapshot_lp = gaussian_log_density(traj.states[:-1], traj.means, residual16.schedule.rev_var)
    ratio = np.exp(log_probs_under(moved, traj) - snapshot_lp)
    assert np.any(np.abs(ratio - 1.0) > clip)

    hand = np.minimum(signals * ratio, signals * np.clip(ratio, 1.0 - clip, 1.0 + clip)).sum() / m
    clipped = ppo_surrogate_value(moved, traj, signals, clip=clip, clipped=True)
    plain = ppo_surrogate_value(moved, traj, signals, clip=clip, clipped=False)
    assert clipped == pytest.approx(hand, rel=1e-12)
    assert plain == pytest.approx((signals * ratio).sum() / m, rel=1e-12)
    assert abs(clipped - plain) > 1e-3 * abs(plain)

    kl = alpha * ((means_under(moved, traj.states[1:]) - pre_means) ** 2).sum() / (
        2.0 * residual16.schedule.rev_var * m)
    assert record.loss == pytest.approx(hand + kl, rel=1e-12)


def test_reward_ascent_without_regularization(analytic16, residual16):
    cfg = FineTuneConfig("ppo", alpha=0.0, batch=256, iterations=200, lr=1e-2, seed=3)
    reward = LinearReward([1.0])
    result = run_finetune(residual16, reward, cfg)
    pre_mean = sample_trajectory(residual16, make_rng(6), 4000).terminal.mean()
    tuned_mean = sample_trajectory(result.policy, make_rng(6), 4000).terminal.mean()
    assert tuned_mean - pre_mean >= 0.5


def test_terminal_mean_follows_alpha_to_tilted_target(residual16, std_base, sched16):
    # The KL of the later steps in each return and the pathwise KL gradient
    # at the stored states make PPO follow alpha: each terminal mean lies
    # within 30% of the chain's tilted optimum, and the weaker penalty tilts further.
    cs = chain_stats(sched16, std_base)
    means = {}
    for alpha in (0.5, 2.0):
        cfg = FineTuneConfig("ppo", alpha=alpha, batch=128, iterations=100, lr=1e-2, seed=0)
        result = run_finetune(residual16, LinearReward([1.0]), cfg)
        means[alpha] = sample_trajectory(result.policy, make_rng(6), 4000).terminal.mean()
        target, _ = cs.tilted_terminal(1.0, alpha)
        assert abs(means[alpha] - target) <= 0.3 * target, (alpha, means[alpha], target)
    assert means[0.5] > means[2.0]


def test_black_box_reward_is_accepted(residual16):
    spec = BlackBoxReward(lambda x: np.tanh(x[:, 0]), differentiable=False)
    cfg = FineTuneConfig("ppo", alpha=0.5, batch=16, iterations=3, lr=1e-3, seed=4)
    result = run_finetune(residual16, spec, cfg)
    assert len(result.records) == 3


def test_zero_reward_keeps_parameters_exactly(residual16):
    # r = 0 and theta = theta_pre: every signal vanishes, so the gradients
    # are identically zero and the parameters never move.
    cfg = FineTuneConfig("ppo", alpha=1.0, batch=32, iterations=50, lr=1e-2, seed=5)
    result = run_finetune(residual16, LinearReward([0.0]), cfg)
    assert param_distance(result.policy.params, residual16.params) == 0.0


def test_records_are_deterministic(residual16):
    cfg = FineTuneConfig("ppo", alpha=0.5, batch=16, iterations=4, lr=1e-3, seed=6)
    a = run_finetune(residual16, LinearReward([1.0]), cfg)
    b = run_finetune(residual16, LinearReward([1.0]), cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra.mean_reward == rb.mean_reward
        assert ra.loss == rb.loss
        assert ra.grad_norm == rb.grad_norm

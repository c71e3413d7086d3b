from dataclasses import replace

import numpy as np
import pytest

from tiltlab.autodiff import Tape, adam_init, gradient
from tiltlab.diffusion import reverse_mean, sample_trajectory
from tiltlab.errors import CapabilityError
from tiltlab.finetune import FineTuneConfig, reward_backprop_iteration, run_finetune
from tiltlab.finetune.common import bind_policy, differentiable_rollout
from tiltlab.oracle import chain_stats
from tiltlab.rewards import BlackBoxReward, LinearReward
from tiltlab.streams import make_rng


def test_kl_gradient_is_exactly_zero_at_pretrained(residual16, analytic16):
    # Every KL summand is a squared norm minimized at theta_pre, and the
    # path-dependence terms carry the same vanishing factor.
    tape = Tape()
    nodes = bind_policy(tape, residual16, trainable=True)
    pre_nodes = bind_policy(tape, analytic16, trainable=False)
    _, kl = differentiable_rollout(tape, residual16, analytic16, nodes, pre_nodes,
                                   m=16, rng=make_rng(1))
    grads = gradient(tape.sumall(kl), [nodes[k] for k in sorted(residual16.params)])
    for g in grads:
        assert np.array_equal(g, np.zeros_like(g))


def test_zero_output_pre_policy_net_is_skipped_exactly(residual16):
    # The pre-trained net adds exactly zero, so leaving it off the tape
    # changes neither the record nor the updated parameters.
    cfg = FineTuneConfig("backprop", alpha=1.0, batch=32, iterations=1, lr=1e-2)
    live = residual16.with_params({k: v + 0.1 for k, v in residual16.params.items()})
    runs = [reward_backprop_iteration(live, pre, LinearReward([1.0]), cfg, make_rng(3),
                                      adam_init(live.params))
            for pre in (residual16, replace(residual16, net=None))]
    (pol_a, _, rec_a), (pol_b, _, rec_b) = runs
    for field in ("mean_reward", "kl_estimate", "loss", "grad_norm"):
        assert getattr(rec_a, field) == getattr(rec_b, field), field
    for k in pol_a.params:
        assert np.array_equal(pol_a.params[k], pol_b.params[k]), k


def test_black_box_reward_rejected(residual16, analytic16):
    spec = BlackBoxReward(lambda x: x[:, 0], differentiable=False)
    cfg = FineTuneConfig("backprop", alpha=1.0, batch=8, iterations=1, lr=1e-3)
    with pytest.raises(CapabilityError):
        cfg.check_reward(spec)
    with pytest.raises(CapabilityError):
        reward_backprop_iteration(residual16, analytic16, spec, cfg, make_rng(2),
                                  adam_init(residual16.params))


def test_converges_to_analytic_tilted_target(residual16, analytic16, std_base, sched16):
    cfg = FineTuneConfig("backprop", alpha=1.0, batch=256, iterations=300, lr=5e-3, seed=7)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    cs = chain_stats(sched16, std_base)
    mean_t, var_t = cs.tilted_terminal(1.0, 1.0)
    samples = sample_trajectory(result.policy, make_rng(3), 10000).terminal
    assert abs(samples.mean() - mean_t) < 0.08
    assert abs(samples.var() - var_t) / var_t < 0.12


def test_huge_alpha_pins_policy_to_pretrained(residual16, analytic16):
    # KL-dominated regime: after 200 iterations the reverse means stay
    # within 1e-2 of the pre-trained ones on a probe grid.
    cfg = FineTuneConfig("backprop", alpha=1e4, batch=128, iterations=200, lr=1e-4, seed=8)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    probe = np.linspace(-3, 3, 25).reshape(-1, 1)
    worst = max(
        np.abs(reverse_mean(result.policy, probe, t) - reverse_mean(analytic16, probe, t)).max()
        for t in range(1, residual16.schedule.n_steps + 1)
    )
    assert worst < 1e-2


def test_mean_reward_increases_over_training(residual16):
    cfg = FineTuneConfig("backprop", alpha=1.0, batch=128, iterations=60, lr=5e-3, seed=9)
    result = run_finetune(residual16, LinearReward([1.0]), cfg)
    first = np.mean([r.mean_reward for r in result.records[:5]])
    last = np.mean([r.mean_reward for r in result.records[-5:]])
    assert last > first + 0.3

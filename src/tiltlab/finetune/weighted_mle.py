"""Exponentially reward-weighted regression onto pre-trained transitions.

For each level t the roll-in runs the current policy down to x_t and the
pre-trained policy the rest of the way; the (x_t, x_{t-1}, x_0) tuple is
weighted by exp((r(x_0) - max r) / alpha) and the policy mean regresses
onto x_{t-1} under squared error scaled by the reverse-step variance.
The max shift rescales the loss by a positive constant, leaving the
minimizer untouched while keeping the weights in (0, 1]. The KL record
compares the live means with the pre-trained means the roll-in drew each
x_{t-1} from, so the pre-trained policy is never re-run.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import AdamState, Tape, descend
from ..diffusion.policy import PolicyNet, means_on_tape, sample_trajectory
from ..errors import ContractError
from ..rewards import RewardSpec, eval_reward
from .common import bind_policy, stabilized_weights, step_kl_terms
from .config import FineTuneConfig, TrainLogRecord


def collect_mle_tuples(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    m: int,
    rng: np.random.Generator,
):
    """Per level t: x_t from the current-policy prefix, x_{t-1} and x_0 from
    the pre-trained suffix, and the pre-trained mean x_{t-1} was drawn from.
    Returns (x_t, x_prev, x0, pre_means) arrays of shape (T, m, d).

    All T levels run as one chain of T*m rows; rows (t-1)*m .. t*m - 1
    switch to the pre-trained policy at step t.
    """
    T = policy.schedule.n_steps
    traj = sample_trajectory(policy, rng, T * m, pre_policy=pre_policy,
                             switch=np.repeat(np.arange(1, T + 1), m))
    states = traj.states.reshape(T + 1, T, m, policy.dim)
    means = traj.means.reshape(T, T, m, policy.dim)
    level = np.arange(T)
    return states[level + 1, level], states[level, level], states[0], means[level, level]


def reward_weighted_mle_iteration(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    reward_spec: RewardSpec,
    cfg: FineTuneConfig,
    rng: np.random.Generator,
    opt: AdamState,
    iteration: int = 0,
) -> tuple[PolicyNet, AdamState, TrainLogRecord]:
    if cfg.alpha <= 0.0:
        raise ContractError("weighted MLE requires alpha > 0")
    t0 = time.perf_counter()
    s = policy.schedule
    x_t, x_prev, x0, pre_means = collect_mle_tuples(policy, pre_policy, cfg.batch, rng)
    rewards = eval_reward(reward_spec, x0.reshape(-1, policy.dim)).reshape(s.n_steps, cfg.batch)
    weights = stabilized_weights(rewards, cfg.alpha)

    tape = Tape()
    nodes = bind_policy(tape, policy, trainable=True)
    means = means_on_tape(tape, policy, nodes, x_t)
    sq = tape.sum_cols(tape.square(tape.sub(tape.constant(x_prev.reshape(means.shape)), means)))
    loss = tape.scale(tape.sumall(tape.mul(tape.constant(weights.reshape(-1)), sq)),
                      1.0 / (cfg.batch * s.rev_var))
    kl = step_kl_terms(means.value.reshape(x_t.shape), pre_means, s.rev_var)
    params, opt, grad_norm = descend(loss, nodes, policy.params, opt, cfg.lr)

    record = TrainLogRecord(
        iteration=iteration,
        mean_reward=float(rewards.mean()),
        kl_estimate=float(kl.sum(axis=0).mean()),
        loss=float(loss.value),
        grad_norm=grad_norm,
        wall_time=time.perf_counter() - t0,
    )
    return policy.with_params(params), opt, record

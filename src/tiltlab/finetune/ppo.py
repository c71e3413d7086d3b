"""Clipped-surrogate policy optimization against a KL-shaped signal.

Each outer iteration samples a batch from the snapshot policy and forms
the per-step signal, the cost to go of the action taken at step t,

    signal[t, i] = -r(x_0^i) + alpha * sum_{k<t} KL_k(x_k^i),
    KL_k(x) = ||rho_s(x) - rho_pre(x)||^2 / (2 sigma^2(k)),

as a constant (the later steps k < t are the only KL terms that action
moves). It then descends

    sum_{t,i} min(signal * ratio, signal * clip(ratio, 1-eps, 1+eps)) / m
        + alpha * sum_{t,i} ||rho_theta(x_t^i) - rho_pre(x_t^i)||^2 / (2 sigma^2 m)

where ratio is the live-to-snapshot transition density ratio. The second
term is the pathwise gradient of each step's KL at the stored state (the
DPOK form); with the score-function part above it, the gradient is that
of E[r] - alpha * sum_t E[KL_t] at the snapshot. The reward enters only
through its values, so black-box rewards are fine. With a single inner
epoch the ratio is identically one at the evaluation point and the clip
is inert; it engages on further inner epochs.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import AdamState, Node, Tape, descend
from ..diffusion.policy import (
    PolicyNet, Trajectory, gaussian_log_density, means_on_tape, means_under, sample_trajectory,
)
from ..rewards import RewardSpec, eval_reward
from .common import bind_policy, step_kl_terms
from .config import FineTuneConfig, TrainLogRecord


def ppo_signals(traj: Trajectory, pre_policy: PolicyNet, reward_spec: RewardSpec,
                alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(T, m) surrogate signal, constant in the live parameters, its (T, m) KL
    terms, the (T, m, d) pre-trained means at the stored states and the (m,)
    rewards of the terminal states (the batch's only reward query).

    The snapshot's means are read from ``traj``, so it must be the snapshot's
    own unshifted, unswitched sample."""
    r = eval_reward(reward_spec, traj.terminal)
    pre_means = means_under(pre_policy, traj.states[1:])
    kl = step_kl_terms(traj.means, pre_means, pre_policy.schedule.rev_var)
    return -r[None, :] + alpha * (np.cumsum(kl, axis=0) - kl), kl, pre_means, r


def ppo_surrogate(tape: Tape, means: Node, traj: Trajectory, signals: np.ndarray,
                  rev_var: float, clip: float, clipped: bool = True) -> Node:
    """Record the (optionally unclipped) surrogate over ``means``, the live
    policy's :func:`means_on_tape` at the stored states; returns the scalar node.
    The ratio's denominator is the snapshot's density around ``traj.means``."""
    x_prev = tape.constant(traj.states[:-1].reshape(means.shape))
    lp_new = tape.gaussian_logpdf(x_prev, means, rev_var)
    lp_old = gaussian_log_density(traj.states[:-1], traj.means, rev_var)
    ratio = tape.exp(tape.sub(lp_new, tape.constant(lp_old.reshape(-1))))
    sig = tape.constant(signals.reshape(-1))
    term = tape.mul(sig, ratio)
    if clipped:
        term = tape.minimum(term, tape.mul(sig, tape.clip(ratio, 1.0 - clip, 1.0 + clip)))
    return tape.scale(tape.sumall(term), 1.0 / traj.batch)


def ppo_surrogate_value(policy: PolicyNet, traj: Trajectory, signals: np.ndarray,
                        clip: float, clipped: bool = True) -> float:
    """Surrogate value only (no gradients), for the clip-band equality check."""
    tape = Tape()
    means = means_on_tape(tape, policy, bind_policy(tape, policy, trainable=False), traj.states[1:])
    loss = ppo_surrogate(tape, means, traj, signals, policy.schedule.rev_var, clip, clipped)
    return float(loss.value)


def ppo_iteration(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    reward_spec: RewardSpec,
    cfg: FineTuneConfig,
    rng: np.random.Generator,
    opt: AdamState,
    iteration: int = 0,
) -> tuple[PolicyNet, AdamState, TrainLogRecord]:
    t0 = time.perf_counter()
    snapshot = policy.snapshot()
    traj = sample_trajectory(snapshot, rng, cfg.batch)
    signals, kl, pre_means, rewards = ppo_signals(traj, pre_policy, reward_spec, cfg.alpha)
    rev_var = policy.schedule.rev_var
    kl_scale = cfg.alpha / (2.0 * rev_var * cfg.batch)  # alpha * sum_{t,i} KL_t / m

    params = policy.params
    loss_val = 0.0
    grad_norm = 0.0
    for _ in range(cfg.ppo_epochs):
        live = policy.with_params(params)
        tape = Tape()
        nodes = bind_policy(tape, live, trainable=True)
        means = means_on_tape(tape, live, nodes, traj.states[1:])
        diff = tape.sub(means, tape.constant(pre_means.reshape(means.shape)))
        kl_term = tape.scale(tape.sumall(tape.square(diff)), kl_scale)
        loss = tape.add(ppo_surrogate(tape, means, traj, signals, rev_var, cfg.clip), kl_term)
        params, opt, grad_norm = descend(loss, nodes, params, opt, cfg.lr)
        loss_val = float(loss.value)

    record = TrainLogRecord(
        iteration=iteration,
        mean_reward=float(rewards.mean()),
        kl_estimate=float(kl.sum(axis=0).mean()),
        loss=loss_val,
        grad_norm=grad_norm,
        wall_time=time.perf_counter() - t0,
    )
    return policy.with_params(params), opt, record

"""Clipped-surrogate policy optimization against a KL-shaped signal.

Each outer iteration samples a batch from the snapshot policy, forms the
per-step signal

    signal[t, i] = -r(x_0^i) + alpha * ||rho_s(x_t^i) - rho_pre(x_t^i)||^2 / (2 sigma^2(t))

as a constant, and descends the surrogate

    sum_{t,i} min(signal * ratio, signal * clip(ratio, 1-eps, 1+eps)) / m

where ratio is the live-to-snapshot transition density ratio. The reward
enters only through its values, so black-box rewards are fine. With a
single inner epoch the ratio is identically one at the evaluation point
and the clip is inert; it engages on further inner epochs.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import AdamState, Tape, descend
from ..diffusion.policy import PolicyNet, Trajectory, means_under, reverse_mean_on_tape, sample_trajectory
from ..rewards import RewardSpec, eval_reward
from .common import bind_policy, step_kl_terms
from .config import FineTuneConfig, TrainLogRecord


def ppo_signals(traj: Trajectory, pre_policy: PolicyNet, reward_spec: RewardSpec,
                alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, m) surrogate signal, constant in the live parameters, and its (T, m) KL terms.

    The snapshot's means are read from ``traj``, so it must be the snapshot's
    own unshifted, unswitched sample."""
    r = eval_reward(reward_spec, traj.terminal)
    kl = step_kl_terms(traj.means, means_under(pre_policy, traj), pre_policy.schedule.rev_var)
    return -r[None, :] + alpha * kl, kl


def ppo_surrogate(tape: Tape, policy: PolicyNet, param_nodes, traj: Trajectory,
                  signals: np.ndarray, clip: float, clipped: bool = True):
    """Record the (optionally unclipped) surrogate; returns the scalar node."""
    s = policy.schedule
    total = None
    for t in range(1, traj.n_steps + 1):
        x_t = tape.constant(traj.states[t])
        x_prev = tape.constant(traj.states[t - 1])
        rho = reverse_mean_on_tape(tape, policy, param_nodes, x_t, t)
        lp_new = tape.gaussian_logpdf(x_prev, rho, s.rev_var)
        ratio = tape.exp(tape.sub(lp_new, tape.constant(traj.log_probs[t - 1])))
        sig = tape.constant(signals[t - 1])
        if clipped:
            term = tape.minimum(tape.mul(sig, ratio),
                                tape.mul(sig, tape.clip(ratio, 1.0 - clip, 1.0 + clip)))
        else:
            term = tape.mul(sig, ratio)
        summed = tape.sumall(term)
        total = summed if total is None else tape.add(total, summed)
    return tape.scale(total, 1.0 / traj.batch)


def ppo_surrogate_value(policy: PolicyNet, traj: Trajectory, signals: np.ndarray,
                        clip: float, clipped: bool = True) -> float:
    """Surrogate value only (no gradients), for the clip-band equality check."""
    tape = Tape()
    nodes = bind_policy(tape, policy, trainable=False)
    return float(ppo_surrogate(tape, policy, nodes, traj, signals, clip, clipped).value)


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
    traj = sample_trajectory(snapshot, rng, cfg.batch, final_step_noise=cfg.final_step_noise)
    signals, kl = ppo_signals(traj, pre_policy, reward_spec, cfg.alpha)

    params = policy.params
    loss_val = 0.0
    grad_norm = 0.0
    for _ in range(cfg.ppo_epochs):
        live = policy.with_params(params)
        tape = Tape()
        nodes = bind_policy(tape, live, trainable=True)
        loss = ppo_surrogate(tape, live, nodes, traj, signals, cfg.clip)
        params, opt, grad_norm = descend(loss, nodes, params, opt, cfg.lr)
        loss_val = float(loss.value)

    record = TrainLogRecord(
        iteration=iteration,
        mean_reward=float(eval_reward(reward_spec, traj.terminal).mean()),
        kl_estimate=float(kl.sum(axis=0).mean()),
        loss=loss_val,
        grad_norm=grad_norm,
        wall_time=time.perf_counter() - t0,
    )
    return policy.with_params(params), opt, record

"""Path consistency learning on the one-step balance identity.

At the optimum, for every transition,

    v_t(x_t)/alpha + log p_theta(x_{t-1}|x_t)
        = v_{t-1}(x_{t-1})/alpha + log p_pre(x_{t-1}|x_t),

with v_0 pinned to the reward. Each iteration samples a batch by the
configured roll-in and scores each stored step once: the means of the
policy that drew the step are the trajectory's own, and only the other
policy runs on the step's states. It then records each v_t once on the
value tape and takes one descent step for the value parameters on the
batch loss sum_t mean_i (one-step residual)^2, with both v_t and v_{t-1}
live (v_0 is the reward, a constant) and the policy log densities frozen.
The values read off that tape, their iteration-start snapshot, are the
constants of one descent step for the policy parameters on the same loss.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import AdamState, MlpModel, Node, Tape, bind_params, descend, forward_on_tape
from ..diffusion.policy import (
    PolicyNet, Trajectory, gaussian_log_density, means_on_tape, reverse_mean,
)
from ..errors import ContractError, NumericError
from ..rewards import RewardSpec, eval_reward
from .common import bind_policy, rollin_trajectory, step_kl_terms
from .config import FineTuneConfig, TrainLogRecord, rollin_switch

LOGP_GUARD = -1e8


def one_step_residuals(values: np.ndarray, lp_cur: np.ndarray, lp_pre: np.ndarray,
                       alpha: float) -> np.ndarray:
    """Residuals (T, m) of the one-step balance identity.

    ``values`` is (T+1, m) with values[0] already equal to the reward;
    lp_cur/lp_pre are (T, m). Row t-1 is the residual of the step from x_t
    down to x_{t-1}.
    """
    return values[1:] / alpha + lp_cur - values[:-1] / alpha - lp_pre


def pcl_residual_arrays(policy: PolicyNet, pre_policy: PolicyNet, traj: Trajectory, switch: int):
    """(lp_cur, lp_pre, per-step KL), each (T, m), for an unshifted batch
    rolled in with ``switch`` (see :func:`~tiltlab.finetune.rollin_switch`).

    At steps t > switch the rows were drawn by ``policy`` and at t <= switch
    by ``pre_policy``; each step's means under the policy that drew it are
    read from ``traj.means``, and only the other policy runs on its states.
    """
    s = policy.schedule
    T = traj.n_steps
    drawn_cur = np.arange(1, T + 1) > switch
    other = np.stack([reverse_mean(pre_policy if drawn_cur[t - 1] else policy, traj.states[t], t)
                      for t in range(1, T + 1)])
    pick = drawn_cur[:, None, None]
    means = np.where(pick, traj.means, other)
    pre_means = np.where(pick, other, traj.means)
    lp_cur = gaussian_log_density(traj.states[:-1], means, s.rev_var)
    lp_pre = gaussian_log_density(traj.states[:-1], pre_means, s.rev_var)
    return lp_cur, lp_pre, step_kl_terms(means, pre_means, s.rev_var)


def pcl_value_loss(tape: Tape, value: MlpModel, schedule, traj: Trajectory, reward: np.ndarray,
                   lp_cur: np.ndarray, lp_pre: np.ndarray,
                   alpha: float) -> tuple[Node, dict[str, Node], np.ndarray]:
    """Record the value loss sum_t sum_i (one-step residual)^2 / m on ``tape``.

    The residual at step t is (v_t - v_{t-1})/alpha + log p_theta - log p_pre
    with both values live and v_0 = ``reward`` a constant; the policy log
    densities are frozen. Each v_t is recorded once and serves as the top of
    step t and the bottom of step t+1. Returns the loss, the value
    parameters' leaves and the (T+1, m) values read off the recorded v_t.
    """
    vnodes = bind_params(tape, value.params)
    values = np.empty((traj.n_steps + 1, traj.batch))
    values[0] = reward
    below = tape.constant(reward)
    total = None
    for t in range(1, traj.n_steps + 1):
        v_t = tape.sum_cols(forward_on_tape(tape, value, vnodes,
                                            tape.constant(schedule.net_input(traj.states[t], t))))
        values[t] = v_t.value
        res = tape.add(tape.scale(tape.sub(v_t, below), 1.0 / alpha),
                       tape.constant(lp_cur[t - 1] - lp_pre[t - 1]))
        term = tape.sumall(tape.square(res))
        total = term if total is None else tape.add(total, term)
        below = v_t
    return tape.scale(total, 1.0 / traj.batch), vnodes, values


def pcl_iteration(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    value: MlpModel,
    reward_spec: RewardSpec,
    cfg: FineTuneConfig,
    rng: np.random.Generator,
    opt_policy: AdamState,
    opt_value: AdamState,
    iteration: int = 0,
) -> tuple[PolicyNet, MlpModel, AdamState, AdamState, TrainLogRecord]:
    if cfg.alpha <= 0.0:
        raise ContractError("path consistency learning requires alpha > 0")
    t0 = time.perf_counter()
    s = policy.schedule
    alpha = cfg.alpha
    traj = rollin_trajectory(policy, pre_policy, cfg.rollin, cfg.batch, rng)
    reward = eval_reward(reward_spec, traj.terminal)
    lp_cur, lp_pre, kl = pcl_residual_arrays(policy, pre_policy, traj,
                                             rollin_switch(cfg.rollin, s.n_steps))
    if lp_cur.min() < LOGP_GUARD or lp_pre.min() < LOGP_GUARD:
        raise NumericError("transition log density below the -1e8 guard")

    # Value step: v_t and v_{t-1} live (v_0 is the reward), log densities frozen.
    tape = Tape()
    loss_v, vnodes, values = pcl_value_loss(tape, value, s, traj, reward, lp_cur, lp_pre, alpha)
    msr = float((one_step_residuals(values, lp_cur, lp_pre, alpha) ** 2).mean())
    new_value_params, opt_value, norm_v = descend(loss_v, vnodes, value.params, opt_value, cfg.lr)

    # Policy step: log p_theta live, values at the snapshot on both ends. The
    # fresh tape frees the value tape before anything is recorded on it.
    tape = Tape()
    pnodes = bind_policy(tape, policy, trainable=True)
    means = means_on_tape(tape, policy, pnodes, traj.states[1:])
    x_prev = tape.constant(traj.states[:-1].reshape(means.shape))
    rest = tape.constant((values[1:] / alpha - values[:-1] / alpha - lp_pre).reshape(-1))
    res = tape.add(tape.gaussian_logpdf(x_prev, means, s.rev_var), rest)
    loss_p = tape.scale(tape.sumall(tape.square(res)), 1.0 / cfg.batch)
    new_policy_params, opt_policy, norm_p = descend(loss_p, pnodes, policy.params, opt_policy, cfg.lr)

    record = TrainLogRecord(
        iteration=iteration,
        mean_reward=float(reward.mean()),
        kl_estimate=float(kl.sum(axis=0).mean()),
        loss=msr,
        grad_norm=float(np.sqrt(norm_p**2 + norm_v**2)),
        wall_time=time.perf_counter() - t0,
    )
    new_value = MlpModel(value.widths, value.activation, new_value_params)
    return policy.with_params(new_policy_params), new_value, opt_policy, opt_value, record

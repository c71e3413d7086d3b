"""Soft-value estimation: Monte-Carlo exp-domain regression and soft Q-learning.

Both estimators fit one network v(x, t/T, sigma_pert[t]) over all steps
jointly. The Monte-Carlo route regresses exp((v - M)/alpha) onto
exp((r(x_0) - M)/alpha) with M the batch maximum of the reward, which has
the same minimizer as the raw exp-domain loss but bounded targets. The
soft-Q route sweeps the log-expectation recursion backward with frozen
targets per sweep, the bottom level pinned to the reward itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..autodiff import (
    MlpModel,
    Tape,
    adam_init,
    bind_params,
    descend,
    evaluate,
    forward_on_tape,
    init_mlp,
    input_gradient,
)
from ..diffusion.policy import PolicyNet, reverse_mean, sample_trajectory
from ..errors import ConfigError, ContractError
from ..rewards import RewardSpec, eval_reward


@dataclass
class ValueModel:
    """Fitted soft value v(x, t) with exact input gradients."""

    model: MlpModel
    schedule: object
    alpha: float
    fit_method: str  # "monte-carlo" | "soft-q"
    report: dict

    def value(self, x: np.ndarray, t: int) -> np.ndarray:
        return evaluate(self.model, self.schedule.net_input(x, t))[:, 0]

    def grad_x(self, x: np.ndarray, t: int) -> np.ndarray:
        """d v / d x by differentiating the approximator, shape (m, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return input_gradient(self.model, self.schedule.net_input(x, t))[:, :x.shape[1]]


def log_mean_exp_backup(v_prev: np.ndarray, alpha: float) -> np.ndarray:
    """One soft backup: alpha * log mean_k exp(v_prev / alpha), row-wise.

    ``v_prev`` is (n, k): k draws (or atoms) of the next-lower value per
    roll-in state. Evaluated with a max shift so small alpha is safe.
    """
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    v = np.atleast_2d(np.asarray(v_prev, dtype=np.float64)) / alpha
    hi = v.max(axis=1, keepdims=True)
    return alpha * (hi[:, 0] + np.log(np.exp(v - hi).mean(axis=1)))


def fit_value_mc(
    policy: PolicyNet,
    reward_spec: RewardSpec,
    alpha: float,
    rng: np.random.Generator,
    budget: int = 2000,
    hidden=(32, 32),
    steps: int = 4000,
    batch: int = 2048,
    lr: float = 1e-2,
    final_lr: float | None = None,
) -> ValueModel:
    """Exp-domain regression of exp(v/alpha) onto exp(r(x_0)/alpha)."""
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    if budget < 100:
        raise ContractError(f"need a budget of at least 100 trajectories, got {budget}")
    s = policy.schedule
    traj = sample_trajectory(policy, rng, budget)
    rewards = eval_reward(reward_spec, traj.terminal)
    r_max = float(rewards.max())
    target = np.exp((rewards - r_max) / alpha)

    rows = []
    targets = []
    for t in range(s.n_steps + 1):
        rows.append(s.net_input(traj.states[t], t))
        targets.append(target)
    x_all = np.vstack(rows)
    y_all = np.concatenate(targets)

    model = init_mlp([policy.dim + 2, *hidden, 1], rng)
    params, opt = model.params, adam_init(model.params)
    losses = []
    for step in range(steps):
        # second training phase at a lower rate shrinks the minibatch noise
        # ball and lets the weakly-weighted tail residuals settle
        step_lr = lr if (final_lr is None or step < steps // 2) else final_lr
        idx = rng.integers(0, x_all.shape[0], size=min(batch, x_all.shape[0]))
        tape = Tape()
        nodes = bind_params(tape, params)
        h = tape.sum_cols(forward_on_tape(tape, model, nodes, tape.constant(x_all[idx])))
        pred = tape.exp(tape.scale(tape.shift(h, -r_max), 1.0 / alpha))
        resid = tape.sub(pred, tape.constant(y_all[idx]))
        loss = tape.scale(tape.sumall(tape.square(resid)), 1.0 / len(idx))
        params, opt, _ = descend(loss, nodes, params, opt, step_lr)
        losses.append(float(loss.value))
    model = MlpModel(model.widths, model.activation, params)
    report = {"final_loss": losses[-1], "r_max": r_max, "rows": int(x_all.shape[0])}
    return ValueModel(model, s, alpha, "monte-carlo", report)


def fit_value_softq(
    policy: PolicyNet,
    reward_spec: RewardSpec,
    alpha: float,
    rng: np.random.Generator,
    n_states: int = 256,
    inner_draws: int = 64,
    sweeps: int | None = None,
    steps_per_sweep: int = 200,
    hidden=(32, 32),
    lr: float = 1e-2,
) -> ValueModel:
    """Backward bootstrapped regression v_t <- alpha log E exp(v_{t-1}/alpha).

    The inner expectation over p_pre(x_{t-1} | x_t) is a Monte-Carlo mean
    over ``inner_draws`` Gaussian draws; targets are rebuilt each sweep
    from the previous sweep's parameters, with v_0 pinned to the reward.
    """
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    if inner_draws < 2:
        raise ConfigError(f"need at least 2 inner draws, got {inner_draws}")
    s = policy.schedule
    T, d = s.n_steps, policy.dim
    if sweeps is None:
        sweeps = T + 4

    # Roll-in states from the pre-trained chain, one batch per level.
    traj = sample_trajectory(policy, rng, n_states)
    states = [traj.states[t] for t in range(T + 1)]

    model = init_mlp([d + 2, *hidden, 1], rng)
    params, opt = model.params, adam_init(model.params)
    t_start = time.perf_counter()
    for sweep in range(sweeps):
        frozen = MlpModel(model.widths, model.activation, {k: v.copy() for k, v in params.items()})
        inputs, targets = [], []
        for t in range(1, T + 1):
            x_t = states[t]
            mu = reverse_mean(policy, x_t, t)
            draws = mu[:, None, :] + s.rev_std * rng.standard_normal((n_states, inner_draws, d))
            flat = draws.reshape(-1, d)
            if t == 1:
                v_prev = eval_reward(reward_spec, flat)
            else:
                v_prev = evaluate(frozen, s.net_input(flat, t - 1))[:, 0]
            inputs.append(s.net_input(x_t, t))
            targets.append(log_mean_exp_backup(v_prev.reshape(n_states, inner_draws), alpha))
        x_all = np.vstack(inputs)
        y_all = np.concatenate(targets)

        for _ in range(steps_per_sweep):
            idx = rng.integers(0, x_all.shape[0], size=min(2048, x_all.shape[0]))
            tape = Tape()
            nodes = bind_params(tape, params)
            h = tape.sum_cols(forward_on_tape(tape, model, nodes, tape.constant(x_all[idx])))
            resid = tape.scale(tape.sub(h, tape.constant(y_all[idx])), 1.0 / alpha)
            loss = tape.scale(tape.sumall(tape.square(resid)), 1.0 / len(idx))
            params, opt, _ = descend(loss, nodes, params, opt, lr)

    model = MlpModel(model.widths, model.activation, params)
    report = {"sweeps": sweeps, "seconds": time.perf_counter() - t_start}
    return ValueModel(model, s, alpha, "soft-q", report)


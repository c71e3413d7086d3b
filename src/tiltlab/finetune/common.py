"""Shared machinery for the fine-tuning algorithms: KL penalties,
tape-recorded rollouts, stabilized exponential weights, roll-in policies."""

from __future__ import annotations

import numpy as np

from ..autodiff import Node, Tape, bind_params
from ..diffusion.policy import (
    PolicyNet,
    Trajectory,
    means_under,
    net_on_tape,
    reverse_mean_on_tape,
    sample_trajectory,
)
from ..errors import ContractError, NumericError
from .config import rollin_switch


def kl_penalty(policy: PolicyNet, pre_policy: PolicyNet, traj: Trajectory) -> np.ndarray:
    """Per-trajectory sum_t ||rho_theta(x_t) - rho_pre(x_t)||^2 / (2 sigma^2(t)).

    This is the exact per-step KL between the two equal-variance Gaussian
    policies, accumulated along the stored states.
    """
    if policy.schedule is not pre_policy.schedule and (
        policy.schedule.n_steps != pre_policy.schedule.n_steps
        or policy.schedule.horizon != pre_policy.schedule.horizon
        or policy.schedule.rev_var != pre_policy.schedule.rev_var
    ):
        raise ContractError("policies live on different schedules")
    states = traj.states[1:]
    kl = step_kl_terms(means_under(policy, states), means_under(pre_policy, states),
                       policy.schedule.rev_var)
    return kl.sum(axis=0)


def step_kl_terms(means: np.ndarray, pre_means: np.ndarray, rev_var: float) -> np.ndarray:
    """(T, m) per-step KL summands ||rho_theta - rho_pre||^2 / (2 sigma^2)
    from the two policies' (T, m, d) means at the same stored states."""
    diff = means - pre_means
    return (diff * diff).sum(axis=-1) / (2.0 * rev_var)


def stabilized_weights(r: np.ndarray, alpha: float) -> np.ndarray:
    """exp((r - max r) / alpha): same argmin as raw exp(r/alpha), bounded by 1."""
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NumericError("rewards must be finite to form exponential weights")
    w = np.exp((r - r.max()) / alpha)
    if w.sum() <= 0.0:
        raise NumericError("degenerate batch: all exponential weights vanished")
    return w


def bind_policy(tape: Tape, policy: PolicyNet, trainable: bool) -> dict[str, Node]:
    """Put the policy's network blocks on the tape as params or constants."""
    if policy.net is None:
        return {}
    if trainable:
        return bind_params(tape, policy.params)
    return {k: tape.constant(v) for k, v in policy.params.items()}


def paired_means_on_tape(
    tape: Tape,
    policy: PolicyNet,
    pre_policy: PolicyNet,
    param_nodes: dict[str, Node],
    pre_nodes: dict[str, Node],
    x: Node,
    t: int,
) -> tuple[Node, Node]:
    """Record rho_theta(x, t) and rho_pre(x, t), sharing the analytic part
    when both policies ride the same base."""
    s = policy.schedule
    share = policy.base is not None and policy.base is pre_policy.base
    if not share:
        return (
            reverse_mean_on_tape(tape, policy, param_nodes, x, t),
            reverse_mean_on_tape(tape, pre_policy, pre_nodes, x, t),
        )
    marg = policy.base.marginal_at(s, t)
    eps_base = tape.mixture_eps(x, marg.log_weights, marg.means, marg.variances, float(s.sigma_pert[t]))
    drift = tape.scale(x, 1.0 + 0.5 * s.dt)
    coef = -s.dt / s.sigma_eff(t)

    def with_net(nodes, pol):
        if pol.net is None:
            return tape.add(drift, tape.scale(eps_base, coef))
        net_out = net_on_tape(tape, pol, nodes, x, t)
        return tape.add(drift, tape.scale(tape.add(eps_base, net_out), coef))

    return with_net(param_nodes, policy), with_net(pre_nodes, pre_policy)


def differentiable_rollout(
    tape: Tape,
    policy: PolicyNet,
    pre_policy: PolicyNet,
    param_nodes: dict[str, Node],
    pre_nodes: dict[str, Node],
    m: int,
    rng: np.random.Generator,
) -> tuple[Node, Node]:
    """Reparameterized chain: states as tape functions of the parameters.

    Draws x_T and the per-step noises, then records
    x_{t-1} = rho_theta(x_t) + rev_std * z_t with z_t constant, so the
    terminal state and the KL penalty are differentiable in theta.
    Returns (terminal state node (m, d), per-trajectory KL node (m,)).
    """
    s = policy.schedule
    d = policy.dim
    x = tape.constant(rng.standard_normal((m, d)))
    kl_total = None
    for t in range(s.n_steps, 0, -1):
        rho, rho_pre = paired_means_on_tape(tape, policy, pre_policy, param_nodes, pre_nodes, x, t)
        diff = tape.sub(rho, rho_pre)
        term = tape.scale(tape.sum_cols(tape.square(diff)), 1.0 / (2.0 * s.rev_var))
        kl_total = term if kl_total is None else tape.add(kl_total, term)
        z = tape.constant(s.rev_std * rng.standard_normal((m, d)))
        x = tape.add(rho, z)
    return x, kl_total


def rollin_trajectory(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    rollin: str,
    m: int,
    rng: np.random.Generator,
) -> Trajectory:
    """Sample per the configured roll-in: current, pretrained, or a
    prefix-switch mixture (current above the switch index, pretrained at
    and below it)."""
    return sample_trajectory(policy, rng, m, pre_policy=pre_policy,
                             switch=rollin_switch(rollin, policy.schedule.n_steps))

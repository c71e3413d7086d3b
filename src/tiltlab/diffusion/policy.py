"""Gaussian reverse policies and trajectory sampling.

A policy's reverse mean at state x_t (step t = T..1) is

    rho(x, t) = x + [0.5 x - eps(x, t) / sigma_pert[t]] * dt

with eps(x, t) the predicted injected noise. ``eps`` can come from the
closed-form mixture formula (the exact pre-trained policy), from a
trained network, or from their sum (a residual policy whose parameters
start at exactly zero, i.e. exactly at the pre-trained model).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import gaussmix
from ..autodiff import MlpModel, Node, Tape, copy_params, evaluate, forward_on_tape, has_zero_output
from ..errors import ConfigError, ContractError, NumericError
from .base import GaussianMixture
from .schedule import DiffusionSchedule

LOG_2PI = gaussmix.LOG_2PI


def gaussian_log_density(x, mean, var: float):
    """Isotropic Gaussian log density over the last axis (row-wise for (m, d) inputs)."""
    if var <= 0.0:
        raise ContractError(f"variance must be positive, got {var}")
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    diff = np.atleast_2d(x - mean)
    d = diff.shape[-1]
    vals = -0.5 * d * (LOG_2PI + np.log(var)) - 0.5 * (diff * diff).sum(axis=-1) / var
    return float(vals[0]) if (x.ndim <= 1 and mean.ndim <= 1) else vals


def analytic_eps(base: GaussianMixture, schedule: DiffusionSchedule, x, t: int) -> np.ndarray:
    """Exact conditional expected noise -sigma_pert[t] * score_t(x).

    ``score_t`` is the score of the closed-form mixture marginal at step t;
    at t = 0 there is no injected noise and the result is zero.
    """
    return _table_eps(base.marginal_table(schedule), schedule, x, t)


def _table_eps(marginals, schedule: DiffusionSchedule, x, t: int) -> np.ndarray:
    """:func:`analytic_eps` from a ``GaussianMixture.marginal_table``."""
    if not 0 <= t <= schedule.n_steps:
        raise IndexError(f"step {t} outside [0, {schedule.n_steps}]")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if t == 0:
        return np.zeros_like(x)
    log_weights, means, variances = marginals
    return -schedule.sigma_pert[t] * gaussmix.score(x, log_weights, means[t], variances[t])


@dataclass(frozen=True)
class PolicyNet:
    """Reverse policy: closed-form base part and/or a trainable network.

    The network input is (x, t/T, sigma_pert[t]); its output is added to
    the analytic noise prediction when both parts are present. A net whose
    output layer is exactly zero adds exactly zero, so it is skipped.
    ``marginals`` is the base's per-step marginal table, built once.
    """

    schedule: DiffusionSchedule
    base: GaussianMixture | None = None
    net: MlpModel | None = None
    marginals: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base is None and self.net is None:
            raise ConfigError("policy needs an analytic base, a network, or both")
        if self.base is not None and self.net is not None:
            if self.net.in_width != self.base.dim + 2 or self.net.out_width != self.base.dim:
                raise ConfigError("residual net widths do not match the base dimension")
        if self.base is not None:
            object.__setattr__(self, "marginals", self.base.marginal_table(self.schedule))

    @property
    def dim(self) -> int:
        return self.base.dim if self.base is not None else self.net.out_width

    @property
    def params(self) -> dict[str, np.ndarray]:
        return self.net.params if self.net is not None else {}

    def with_params(self, params: dict[str, np.ndarray]) -> "PolicyNet":
        if self.net is None:
            raise ContractError("policy has no trainable network")
        return replace(self, net=replace(self.net, params=params))

    def snapshot(self) -> "PolicyNet":
        return self.with_params(copy_params(self.params)) if self.net is not None else self

    def eps(self, x, t: int) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = _table_eps(self.marginals, self.schedule, x, t) if self.base is not None else None
        if self.net is not None:
            if not has_zero_output(self.net):
                net_out = evaluate(self.net, self.schedule.net_input(x, t))
                out = net_out if out is None else out + net_out
            elif not np.all(np.isfinite(x)):
                raise NumericError("non-finite values in network forward pass")
        # Nothing contributed: a net-only policy whose output layer is zero.
        return np.zeros_like(x) if out is None else out


def add_residual_net(policy: PolicyNet, rng: np.random.Generator,
                     hidden=(32, 32), activation: str = "tanh") -> PolicyNet:
    """Attach a zero-output residual network to an analytic policy.

    The returned policy evaluates identically to the input (the final
    layer starts at zero), so its parameters are exactly the pre-trained
    point that fine-tuning starts from.
    """
    from ..autodiff import residual_mlp

    if policy.net is not None:
        raise ContractError("policy already has a network component")
    d = policy.dim
    return replace(policy, net=residual_mlp([d + 2, *hidden, d], rng, activation))


def reverse_mean(policy: PolicyNet, x, t: int) -> np.ndarray:
    """Mean of the reverse Gaussian step from x_t to x_{t-1}."""
    s = policy.schedule
    if not 1 <= t <= s.n_steps:
        raise IndexError(f"reverse step {t} outside [1, {s.n_steps}]")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    eps = policy.eps(x, t)
    return x * (1.0 + 0.5 * s.dt) - (s.dt / s.sigma_eff(t)) * eps


@dataclass
class Trajectory:
    """A batch of realized reverse chains: the states and the means drawn from.

    states[t] is x_t for t = 0..T; means[t-1] belongs to the transition
    x_t -> x_{t-1}: it is the mean the row was drawn from (after any shift,
    under whichever policy generated the row). The transition log densities
    are ``gaussian_log_density(states[:-1], means, rev_var)``.
    """

    states: np.ndarray  # (T+1, m, d)
    means: np.ndarray   # (T, m, d)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def batch(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[0]


def sample_trajectory(
    policy: PolicyNet,
    rng: np.random.Generator,
    n: int = 1,
    shift_source=None,
    pre_policy: PolicyNet | None = None,
    switch=0,
) -> Trajectory:
    """Run the reverse chain from x_T ~ N(0, I), keeping every state and mean.

    ``shift_source`` (optional) adds a mean shift at every step without
    touching the policy; it must expose ``shift(x, t) -> (n, d)``.

    ``switch`` (one index, or one per row) composes a roll-in: a row runs
    ``policy`` at steps t > switch and ``pre_policy`` at t <= switch, and
    its means are recorded under the policy that generated it.
    """
    s = policy.schedule
    T, d = s.n_steps, policy.dim
    switch = np.broadcast_to(np.asarray(switch), (n,))
    if np.any((switch < 0) | (switch > T)):
        raise ContractError(f"switch index outside [0, {T}]")
    if pre_policy is None and np.any(switch > 0):
        raise ContractError("a switch above 0 needs a pre_policy")
    states = np.empty((T + 1, n, d))
    means = np.empty((T, n, d))
    x = rng.standard_normal((n, d))
    states[T] = x
    for t in range(T, 0, -1):
        cur = switch < t
        if cur.all():
            mu = reverse_mean(policy, x, t)
        elif not cur.any():
            mu = reverse_mean(pre_policy, x, t)
        else:
            mu = np.empty_like(x)
            mu[cur] = reverse_mean(policy, x[cur], t)
            mu[~cur] = reverse_mean(pre_policy, x[~cur], t)
        if shift_source is not None:
            mu = mu + shift_source.shift(x, t)
        x = mu + s.rev_std * rng.standard_normal((n, d))
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite state at reverse step {t}")
        means[t - 1] = mu
        states[t - 1] = x
    return Trajectory(states, means)


def means_under(policy: PolicyNet, states: np.ndarray) -> np.ndarray:
    """Reverse means of ``policy`` at the stored states x_1..x_T, given as a
    (T, m, d) stack; returns (T, m, d). The one numpy pass that re-runs a
    policy on stored states (a trajectory's are ``traj.states[1:]``)."""
    return np.stack([reverse_mean(policy, x_t, t) for t, x_t in enumerate(states, start=1)])


def log_probs_under(policy: PolicyNet, traj: Trajectory) -> np.ndarray:
    """Log densities of the stored transitions under another policy, (T, m)."""
    return gaussian_log_density(traj.states[:-1], means_under(policy, traj.states[1:]),
                                policy.schedule.rev_var)


# -- tape builders --------------------------------------------------------


def net_on_tape(tape: Tape, policy: PolicyNet, param_nodes: dict[str, Node], x: Node, t: int) -> Node:
    """Record policy.net on the rows [x, t/T, sigma_pert[t]] with x live."""
    feats = tape.constant(np.broadcast_to(policy.schedule.time_features(t), (x.value.shape[0], 2)))
    return forward_on_tape(tape, policy.net, param_nodes, tape.concat_cols(x, feats))


def reverse_mean_on_tape(tape: Tape, policy: PolicyNet, param_nodes: dict[str, Node],
                         x: Node, t: int) -> Node:
    """Record reverse_mean(policy, x, t) with x live on the tape."""
    s = policy.schedule
    parts = []
    if policy.base is not None:
        log_weights, means, variances = policy.marginals
        parts.append(tape.mixture_eps(x, log_weights, means[t], variances[t], float(s.sigma_pert[t])))
    if policy.net is not None:
        parts.append(net_on_tape(tape, policy, param_nodes, x, t))
    eps = parts[0] if len(parts) == 1 else tape.add(*parts)
    return tape.add(tape.scale(x, 1.0 + 0.5 * s.dt), tape.scale(eps, -s.dt / s.sigma_eff(t)))


def means_on_tape(tape: Tape, policy: PolicyNet, param_nodes: dict[str, Node],
                  states: np.ndarray) -> Node:
    """Record the reverse means of ``policy`` at the stored states x_1..x_T,
    a (T, m, d) stack, as one (T*m, d) node ordered level by level: the tape
    twin of :func:`means_under`.

    The states are constants, so the analytic part (drift and mixture noise)
    is one numpy constant, computed exactly as :func:`reverse_mean` computes
    it; a zero net output therefore gives the analytic means bitwise. The net
    is recorded once over all rows, with per-row time features and the
    per-row factor -dt / sigma_eff(t).
    """
    s = policy.schedule
    T, m, d = states.shape
    x = states.reshape(T * m, d)
    if policy.base is not None:
        fixed = means_under(replace(policy, net=None), states).reshape(T * m, d)
    else:
        fixed = x * (1.0 + 0.5 * s.dt)
    out = tape.constant(fixed)
    if policy.net is None:
        return out
    steps = np.repeat(np.arange(1, T + 1), m)
    net_out = forward_on_tape(tape, policy.net, param_nodes, tape.constant(s.net_input(x, steps)))
    coef = np.broadcast_to((-s.dt / s.sigma_eff(steps))[:, None], (T * m, d))
    return tape.add(out, tape.mul(tape.constant(coef), net_out))

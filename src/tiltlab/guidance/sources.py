"""Mean-shift sources for value-weighted sampling.

Each source exposes shift(x, t) -> (m, d), the quantity
sigma^2(t) grad v / alpha added to the pre-trained reverse mean at step t.
Fitted models differentiate their approximator at x_t; the Tweedie source
pushes the reward gradient through the posterior-mean map; the
path-integral source is differentiation-free Monte Carlo; the affine and
mixture-posterior sources are closed forms used as oracles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import gaussmix
from ..autodiff import has_zero_output, input_gradient
from ..diffusion.base import GaussianMixture
from ..diffusion.policy import PolicyNet, reverse_mean
from ..errors import ContractError
from ..oracle.chain import ChainStats
from ..rewards import RewardSpec, eval_reward, grad_reward
from .value_models import ValueModel

MU_FLOOR = 1e-6
ESS_WARN = 5.0


@dataclass
class ZeroShift:
    """No guidance; reproduces pre-trained sampling."""

    dim: int = 1

    def shift(self, x, t):
        return np.zeros_like(np.atleast_2d(x))


@dataclass
class FittedValueShift:
    value: ValueModel

    def shift(self, x, t):
        s = self.value.schedule
        return (s.rev_var / self.value.alpha) * self.value.grad_x(x, t)


@dataclass
class AffineValueShift:
    """Exact shift for a linear reward on a Gaussian base.

    Step t shifts by the chain oracle's one-step-exact value slope
    d v_{t-1}/dx, so the guided chain coincides with the soft-optimal
    chain up to Monte-Carlo noise.
    """

    chain: ChainStats
    reward_slope: float
    alpha: float

    def shift(self, x, t):
        x = np.atleast_2d(x)
        return np.full_like(x, self.chain.guided_shift_slope(t, self.reward_slope, self.alpha))


def tweedie_posterior_mean(policy: PolicyNet, x, t: int) -> np.ndarray:
    """E[x_0 | x_t] = (x_t - sigma_pert eps(x_t)) / mu_pert via the noise map."""
    s = policy.schedule
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if t == 0:
        return x.copy()
    mu = max(float(s.mu_pert[t]), MU_FLOOR)
    if s.mu_pert[t] < MU_FLOOR:
        warnings.warn(f"mu_pert[{t}] below {MU_FLOOR}; Tweedie map clamped")
    return (x - s.sigma_pert[t] * policy.eps(x, t)) / mu


def tweedie_value_grad(policy: PolicyNet, reward_spec: RewardSpec, x, t: int) -> np.ndarray:
    """grad_x r(xhat_0(x, t)) by the chain rule through the posterior-mean map."""
    if not reward_spec.differentiable:
        raise ContractError("Tweedie guidance needs a differentiable reward")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x0_hat = tweedie_posterior_mean(policy, x, t)
    gr = grad_reward(reward_spec, x0_hat)  # (m, d)
    if t == 0:
        return gr
    jac = _posterior_mean_jacobian(policy, x, t)  # (m, d, d)
    return np.einsum("mij,mi->mj", jac, gr)


def _posterior_mean_jacobian(policy: PolicyNet, x: np.ndarray, t: int) -> np.ndarray:
    """d xhat_0 / d x = (I - sigma_pert * d eps/dx) / mu_pert, rows of (m, d, d)."""
    s = policy.schedule
    m, d = x.shape
    mu = max(float(s.mu_pert[t]), MU_FLOOR)
    sig = float(s.sigma_pert[t])
    eye = np.eye(d)[None, :, :]
    jac_eps = np.zeros((m, d, d))
    if policy.base is not None:
        log_weights, means, variances = policy.marginals
        _, hess = gaussmix.score_and_hessian(x, log_weights, means[t], variances[t])
        jac_eps += -sig * hess
    if policy.net is not None and not has_zero_output(policy.net):
        jac_eps += _net_jacobian(policy, x, t)
    return (eye - sig * jac_eps) / mu


def _net_jacobian(policy: PolicyNet, x: np.ndarray, t: int) -> np.ndarray:
    m, d = x.shape
    inp = policy.schedule.net_input(x, t)
    out = np.empty((m, d, d))
    for j in range(d):
        out[:, j, :] = input_gradient(policy.net, inp, np.broadcast_to(np.eye(d)[j], (m, d)))[:, :d]
    return out


@dataclass
class TweedieShift:
    policy: PolicyNet
    reward_spec: RewardSpec
    alpha: float

    def shift(self, x, t):
        s = self.policy.schedule
        return (s.rev_var / self.alpha) * tweedie_value_grad(self.policy, self.reward_spec, x, t)


def path_integral_grad(
    policy: PolicyNet,
    reward_spec: RewardSpec,
    x_t,
    t: int,
    alpha: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Differentiation-free estimate of sigma^2(t) grad v / alpha at one point.

    Rolls n pre-trained continuations from x_t, records the first-step
    standard noises z_i and weights w_i = exp((r(x_0^i) - max r)/alpha);
    the estimate is rev_std * sum(w z) / sum(w), whose expectation is the
    exact shift for the soft-optimal step. Returns (estimate (d,), ESS)
    with ESS = sum(w)/max(w); an ESS under 5 triggers a degeneracy warning.
    """
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    if n < 100:
        raise ContractError(f"need at least 100 continuation rollouts, got {n}")
    s = policy.schedule
    if not 1 <= t <= s.n_steps:
        raise IndexError(f"step {t} outside [1, {s.n_steps}]")
    d = policy.dim
    x_t = np.asarray(x_t, dtype=np.float64).reshape(1, d)

    mu = reverse_mean(policy, np.broadcast_to(x_t, (n, d)), t)
    z0 = rng.standard_normal((n, d))
    x = mu + s.rev_std * z0
    for k in range(t - 1, 0, -1):
        x = reverse_mean(policy, x, k) + s.rev_std * rng.standard_normal((n, d))
    r = eval_reward(reward_spec, x)
    w = np.exp((r - r.max()) / alpha)
    ess = float(w.sum() / w.max())
    if ess < ESS_WARN:
        warnings.warn(f"path-integral effective sample size {ess:.2f} below {ESS_WARN}")
    est = s.rev_std * (w[:, None] * z0).sum(axis=0) / w.sum()
    return est, ess


@dataclass
class PathIntegralShift:
    """Per-step zeroth-order guidance; expensive, intended for small batches."""

    policy: PolicyNet
    reward_spec: RewardSpec
    alpha: float
    n: int
    rng: np.random.Generator

    def shift(self, x, t):
        x = np.atleast_2d(x)
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            out[i], _ = path_integral_grad(self.policy, self.reward_spec, x[i], t,
                                           self.alpha, self.n, self.rng)
        return out


@dataclass
class MixturePosteriorShift:
    """Closed-form conditional guidance grad_x log P(label | x_t).

    P(label | x_t) is the component posterior of the noised mixture
    marginal, i.e. the exact noisy classifier of the h-transform; with
    alpha = 1 and reward log p(y|x) this is the exact guidance term.
    """

    base: GaussianMixture
    schedule: object
    label: int
    alpha: float = 1.0
    marginals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.marginals = self.base.marginal_table(self.schedule)

    def shift(self, x, t):
        log_weights, means, variances = self.marginals
        g = gaussmix.component_posterior_grad(np.atleast_2d(x), log_weights,
                                              means[t], variances[t], self.label)
        return (self.schedule.rev_var / self.alpha) * g

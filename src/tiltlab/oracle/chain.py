"""Exact statistics of the discretized reverse chain for Gaussian bases.

With a single-Gaussian base the analytic policy is affine in the state,
so the whole reverse chain is linear-Gaussian and every marginal,
conditional and tilted quantity is computable in closed form. This is
the independent oracle the end-to-end fine-tuning and guidance tests
are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffusion.base import GaussianMixture
from ..diffusion.schedule import DiffusionSchedule
from ..errors import ContractError


@dataclass(frozen=True)
class ChainStats:
    """Per-step affine coefficients and marginal moments of the chain.

    Index convention matches the sampler: step t maps x_t to
    x_{t-1} = slope[t] * x_t + shift[t] + rev_std * z. ``sens[t]`` is the
    sensitivity d x_0 / d x_t = prod_{s<=t} slope[s]. Marginal moments
    assume x_T ~ N(0, I).
    """

    schedule: DiffusionSchedule
    slope: np.ndarray      # (T+1,), slope[0] unused
    shift: np.ndarray      # (T+1,)
    sens: np.ndarray       # (T+1,), sens[0] = 1
    marg_mean: np.ndarray  # (T+1,)
    marg_var: np.ndarray   # (T+1,)

    @property
    def terminal_mean(self) -> float:
        return float(self.marg_mean[0])

    @property
    def terminal_var(self) -> float:
        return float(self.marg_var[0])

    def value_affine(self, t: int, reward_slope: float, alpha: float) -> tuple[float, float]:
        """Exact soft value v_t(x) = slope * x + intercept for a linear reward."""
        if alpha <= 0.0:
            raise ContractError("alpha must be positive")
        a, k = reward_slope, self.sens[t]
        cond_mean_at_zero = self.marg_mean[0] + k * (0.0 - self.marg_mean[t])
        cond_var = self.marg_var[0] - k**2 * self.marg_var[t]
        intercept = a * cond_mean_at_zero + a**2 * cond_var / (2.0 * alpha)
        return float(a * k), float(intercept)

    def guided_shift_slope(self, t: int, reward_slope: float, alpha: float) -> float:
        """Exact mean shift sigma^2(t) * dv_{t-1}/dx / alpha applied at step t."""
        return float(self.schedule.rev_var * (reward_slope * self.sens[t - 1]) / alpha)

    def tilted_terminal(self, reward_slope: float, alpha: float) -> tuple[float, float]:
        """Terminal (mean, var) of the KL-tilted optimum of this chain.

        The initial draw x_T ~ N(0, I) is held fixed (only the reverse
        conditionals are tilted), exactly as the fine-tuning algorithms
        operate; the residual gap to the fully tilted target decays like
        sens[T]^2 = exp(-horizon).
        """
        if alpha <= 0.0:
            raise ContractError("alpha must be positive")
        tau_sq = self.marg_var[0] - self.sens[self.schedule.n_steps] ** 2 * self.marg_var[self.schedule.n_steps]
        return float(self.marg_mean[0] + tau_sq * reward_slope / alpha), float(self.marg_var[0])


def chain_stats(
    schedule: DiffusionSchedule,
    base: GaussianMixture,
) -> ChainStats:
    if base.n_components != 1:
        raise ContractError("chain statistics require a single-Gaussian base")
    m0 = float(base.means[0, 0])
    s0_sq = float(base.variances[0])
    T, dt = schedule.n_steps, schedule.dt

    slope = np.zeros(T + 1)
    shift = np.zeros(T + 1)
    for t in range(1, T + 1):
        v_t = schedule.mu_pert[t] ** 2 * s0_sq + schedule.sigma_pert[t] ** 2
        sig = schedule.sigma_eff(t)
        # rho(x) = x (1 + dt/2) - (dt / sig) * eps(x),  eps = sigma_pert (x - mu m0) / v_t
        c = (dt / sig) * schedule.sigma_pert[t] / v_t
        slope[t] = 1.0 + 0.5 * dt - c
        shift[t] = c * schedule.mu_pert[t] * m0

    sens = np.ones(T + 1)
    for t in range(1, T + 1):
        sens[t] = sens[t - 1] * slope[t]

    marg_mean = np.zeros(T + 1)
    marg_var = np.zeros(T + 1)
    marg_var[T] = 1.0
    for t in range(T, 0, -1):
        marg_mean[t - 1] = slope[t] * marg_mean[t] + shift[t]
        marg_var[t - 1] = slope[t] ** 2 * marg_var[t] + schedule.rev_var

    return ChainStats(schedule, slope, shift, sens, marg_mean, marg_var)


def conditional_expected_noise(base: GaussianMixture, schedule: DiffusionSchedule, x, t: int) -> np.ndarray:
    """E[eps | x_t] by joint-Gaussian covariance algebra (single-Gaussian base).

    x_t = mu x0 + sigma eps gives Cov(eps, x_t) = sigma and
    Var(x_t) = mu^2 s0^2 + sigma^2, hence
    E[eps | x_t] = sigma (x_t - mu m0) / Var(x_t). This is an independent
    derivation route from the score-based formula in analytic_eps.
    """
    if base.n_components != 1:
        raise ContractError("conditional-noise algebra requires a single-Gaussian base")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if t == 0:
        return np.zeros_like(x)
    mu, sig = schedule.mu_pert[t], schedule.sigma_pert[t]
    v_t = mu**2 * base.variances[0] + sig**2
    return sig * (x - mu * base.means[0]) / v_t

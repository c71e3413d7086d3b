"""Base (data) distributions: finite isotropic Gaussian mixtures.

Density, score and noised marginals are all closed form, which is what
makes the exact pre-trained policy and the oracles possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import gaussmix
from ..errors import ConfigError
from .schedule import DiffusionSchedule


@dataclass(frozen=True)
class GaussianMixture:
    weights: np.ndarray  # (K,)
    means: np.ndarray    # (K, d)
    scales: np.ndarray   # (K,) per-component isotropic std

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.scales, dtype=np.float64)
        if m.ndim != 2:
            raise ConfigError("means must be (K, d)")
        if w.shape != (m.shape[0],) or s.shape != (m.shape[0],):
            raise ConfigError("weights, means and scales disagree on the component count")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must be nonnegative and sum to 1")
        if np.any(s <= 0.0):
            raise ConfigError("component scales must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "scales", s)

    @classmethod
    def std_normal(cls, dim: int = 1) -> "GaussianMixture":
        return cls(np.array([1.0]), np.zeros((1, dim)), np.array([1.0]))

    @classmethod
    def single(cls, mean, std: float) -> "GaussianMixture":
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        return cls(np.array([1.0]), mean.reshape(1, -1), np.array([float(std)]))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def log_weights(self) -> np.ndarray:
        # A zero weight's log weight is -inf, which drops the component.
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    @property
    def variances(self) -> np.ndarray:
        return self.scales**2

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def variance(self) -> np.ndarray:
        """Per-dimension marginal variance."""
        second = self.weights @ (self.means**2 + self.variances[:, None])
        return second - self.mean() ** 2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        return self.means[comps] + self.scales[comps, None] * rng.standard_normal((n, self.dim))

    def log_density(self, x) -> np.ndarray:
        return gaussmix.logpdf(x, self.log_weights, self.means, self.variances)

    def score(self, x) -> np.ndarray:
        return gaussmix.score(x, self.log_weights, self.means, self.variances)

    def responsibilities(self, x) -> np.ndarray:
        return gaussmix.responsibilities(x, self.log_weights, self.means, self.variances)

    def marginal_at(self, schedule: DiffusionSchedule, t: int) -> "GaussianMixture":
        """Mixture describing x_t after t forward perturbation steps."""
        mu = schedule.mu_pert[t]
        var = mu**2 * self.variances + schedule.sigma_pert[t] ** 2
        return GaussianMixture(self.weights, mu * self.means, np.sqrt(var))

    def marginal_table(self, schedule: DiffusionSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's marginal at once: log weights (K,), means (T+1, K, d)
        and variances (T+1, K), row t bitwise equal to ``marginal_at(schedule, t)``.

        The squares go through ``float_power`` (libm pow), as the scalar
        ``**`` in ``marginal_at`` does; ``**`` on an array multiplies, which
        can differ in the last bit.
        """
        mu = schedule.mu_pert[:, None]
        var = np.float_power(mu, 2) * self.variances + np.float_power(schedule.sigma_pert[:, None], 2)
        return self.log_weights, mu[:, :, None] * self.means, np.sqrt(var) ** 2

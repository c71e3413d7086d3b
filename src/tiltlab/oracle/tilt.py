"""Closed-form exponential tilt of a Gaussian by a linear reward.

Tilting N(mean, var I) by exp(a.x / alpha) keeps the variance and moves
the mean to mean + var * a / alpha; complete-the-square algebra, no
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError


@dataclass(frozen=True)
class TiltedGaussian:
    mean: np.ndarray
    var: float

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + np.sqrt(self.var) * rng.standard_normal((n, self.dim))

    def log_density(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d = x.shape[1]
        quad = ((x - self.mean) ** 2).sum(axis=1) / (2.0 * self.var)
        return -0.5 * d * np.log(2.0 * np.pi * self.var) - quad


def tilted_gaussian_target(mean, var: float, slope, alpha: float) -> TiltedGaussian:
    if alpha <= 0.0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    if var <= 0.0:
        raise ContractError(f"variance must be positive, got {var}")
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    slope = np.broadcast_to(np.asarray(slope, dtype=np.float64), mean.shape)
    return TiltedGaussian(mean=mean + var * slope / alpha, var=float(var))

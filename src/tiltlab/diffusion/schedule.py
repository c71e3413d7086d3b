"""Discretization of the variance-preserving forward process.

The forward dynamics are dx = -0.5 x dt + dw on [0, horizon], split into
``n_steps`` equal steps. All per-step tables are derived from that SDE:
perturbation mean factor mu_pert[t] = exp(-0.5 t dt) and perturbation
variance sigma_pert[t]^2 = 1 - exp(-t dt), so mu^2 + sigma^2 = 1 exactly
at every step. The reverse-step variance defaults to dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

# Floor on the perturbation scale where it divides (sigma_pert[0] is 0).
SIGMA_FLOOR = 1e-4


@dataclass(frozen=True)
class DiffusionSchedule:
    n_steps: int
    horizon: float
    dt: float
    mu_pert: np.ndarray      # (n_steps+1,), index by step t = 0..T
    sigma_pert: np.ndarray   # (n_steps+1,)
    rev_var: float           # reverse-step variance sigma^2(t), constant in t

    @property
    def rev_std(self) -> float:
        return float(np.sqrt(self.rev_var))

    def sigma_eff(self, t):
        """Perturbation scale with the near-zero floor applied; ``t`` is one step or one per row."""
        return np.maximum(self.sigma_pert[t], SIGMA_FLOOR)

    def time_features(self, t) -> np.ndarray:
        """Features handed to networks alongside the state: (t/T, sigma_pert[t])."""
        t = np.asarray(t, dtype=np.int64)
        return np.stack([t / self.n_steps, self.sigma_pert[t]], axis=-1)

    def net_input(self, x, t) -> np.ndarray:
        """Network input rows [x, t/T, sigma_pert[t]]; ``t`` is one step or one per row."""
        x = np.atleast_2d(x)
        return np.hstack([x, np.broadcast_to(self.time_features(t), (x.shape[0], 2))])


def make_schedule(
    n_steps: int,
    horizon: float,
    rev_var: float | None = None,
) -> DiffusionSchedule:
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    if horizon <= 0.0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    dt = horizon / n_steps
    if rev_var is None:
        rev_var = dt
    if rev_var <= 0.0:
        raise ConfigError(f"reverse variance must be positive, got {rev_var}")
    times = np.arange(n_steps + 1) * dt
    mu = np.exp(-0.5 * times)
    sigma = np.sqrt(-np.expm1(-times))
    sched = DiffusionSchedule(n_steps, float(horizon), dt, mu, sigma, float(rev_var))
    _validate_tables(sched)
    return sched


def _validate_tables(s: DiffusionSchedule) -> None:
    if s.mu_pert[0] != 1.0 or s.sigma_pert[0] != 0.0:
        raise ConfigError("perturbation tables must start at (mu, sigma) = (1, 0)")
    if not np.all(np.diff(s.mu_pert) < 0.0):
        raise ConfigError("mu_pert must be strictly decreasing")
    if not np.all(np.diff(s.sigma_pert) > 0.0):
        raise ConfigError("sigma_pert must be strictly increasing")
    if np.any(s.mu_pert**2 + s.sigma_pert**2 > 1.0 + 1e-12):
        raise ConfigError("mu_pert^2 + sigma_pert^2 exceeds 1")


def forward_perturb(schedule: DiffusionSchedule, x0, t, noise) -> np.ndarray:
    """x_t = mu_pert[t] * x0 + sigma_pert[t] * noise; ``t`` is one step or one per row."""
    t = np.asarray(t, dtype=np.int64)
    if np.any((t < 0) | (t > schedule.n_steps)):
        raise IndexError(f"step {t} outside [0, {schedule.n_steps}]")
    t = t.reshape(-1, 1) if t.ndim else t
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    return schedule.mu_pert[t] * x0 + schedule.sigma_pert[t] * noise

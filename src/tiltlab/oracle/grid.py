"""Exact finite-grid soft-value dynamic program.

A GridMDP is a self-contained finite MDP: a row-stochastic transition
matrix per reverse step plus an initial vector, both obtained by
projecting the Gaussian reverse kernel onto a 1-D grid. Because the DP
is exact on the projected chain, the three structural facts about
KL-tilted fine-tuning (terminal marginal equals the tilted target,
t-independent normalizing constant, preserved posteriors) hold to
machine precision and can be asserted at 1e-10.

Everything runs in log space; exp(r/alpha) with small alpha never
materializes unshifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ..diffusion.policy import PolicyNet, reverse_mean
from ..errors import ConfigError, ContractError, CoverageError
from ..rewards import RewardSpec, eval_reward

BOUNDARY_MASS_TOL = 1e-4


@dataclass(frozen=True)
class GridMDP:
    grid: np.ndarray       # (n,) sorted state points
    weights: np.ndarray    # (n,) trapezoid quadrature weights
    init: np.ndarray       # (n,) distribution of x_T
    trans: np.ndarray      # (T, n, n): trans[t-1][i, j] = p_t(x_j | x_i)
    reward: np.ndarray     # (n,)
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ContractError(f"alpha must be positive, got {self.alpha}")
        if np.any(self.trans < 0.0) or np.any(self.init < 0.0):
            raise ContractError("transition entries must be nonnegative")
        row_err = np.abs(self.trans.sum(axis=2) - 1.0).max()
        init_err = abs(self.init.sum() - 1.0)
        if max(row_err, init_err) > 1e-12:
            raise ContractError(f"rows must sum to 1 within 1e-12 (max error {max(row_err, init_err):.2e})")

    @property
    def n_states(self) -> int:
        return self.grid.shape[0]

    @property
    def n_steps(self) -> int:
        return self.trans.shape[0]

    def pre_marginals(self) -> np.ndarray:
        """(T+1, n): marginals of the projected pre-trained chain, index t."""
        T = self.n_steps
        out = np.empty((T + 1, self.n_states))
        out[T] = self.init
        for t in range(T, 0, -1):
            out[t - 1] = out[t] @ self.trans[t - 1]
        return out


@dataclass(frozen=True)
class SoftSolution:
    """Exact DP output: values, soft-optimal policy, marginals, constants."""

    mdp: GridMDP
    values: np.ndarray        # (T+1, n); values[0] is the reward vector itself
    log_c: float              # log C with C = exp(v_{T+1}/alpha), the Theorem-2 constant
    policy: np.ndarray        # (T, n, n) soft-optimal rows
    init_star: np.ndarray     # (n,) soft-optimal initial distribution
    marginals: np.ndarray     # (T+1, n) soft-optimal marginals
    pre_marginals: np.ndarray # (T+1, n)
    constants: np.ndarray     # (T+1,) C_t = sum_j exp(v_t(j)/alpha) p_pre_t(j)

    @property
    def terminal(self) -> np.ndarray:
        return self.marginals[0]

    def tilted_target(self) -> np.ndarray:
        """exp(r/alpha) p_pre_0 / Z on the grid, evaluated stably."""
        lw = self.mdp.reward / self.mdp.alpha + _safe_log(self.pre_marginals[0])
        return np.exp(lw - logsumexp(lw))


def _safe_log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def grid_build(
    policy: PolicyNet,
    reward_spec: RewardSpec,
    alpha: float,
    lo: float,
    hi: float,
    n: int,
    n_steps: int | None = None,
) -> GridMDP:
    """Project the reverse chain of a 1-D policy onto an n-point grid.

    Rows are the Gaussian reverse kernel evaluated at the nodes,
    trapezoid-weighted and renormalized; the initial vector discretizes
    N(0, 1). Raises CoverageError when boundary nodes carry more than
    1e-4 of any marginal's mass or the grid spans less than six standard
    deviations of some marginal.
    """
    if policy.dim != 1:
        raise ContractError("the grid oracle is 1-D only")
    if n < 11:
        raise ConfigError(f"need at least 11 grid nodes, got {n}")
    if not hi > lo:
        raise ConfigError("empty grid interval")
    s = policy.schedule
    T = s.n_steps if n_steps is None else n_steps
    if not 1 <= T <= s.n_steps:
        raise ConfigError(f"n_steps {T} outside [1, {s.n_steps}]")

    grid = np.linspace(lo, hi, n)
    w = np.full(n, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5

    logw = np.log(w)
    init_log = logw - 0.5 * np.log(2.0 * np.pi) - 0.5 * grid**2
    init = np.exp(init_log - logsumexp(init_log))

    trans = np.empty((T, n, n))
    x_col = grid.reshape(-1, 1)
    for t in range(1, T + 1):
        rho = reverse_mean(policy, x_col, t)[:, 0]  # (n,)
        log_k = logw[None, :] - 0.5 * (grid[None, :] - rho[:, None]) ** 2 / s.rev_var
        trans[t - 1] = np.exp(log_k - logsumexp(log_k, axis=1, keepdims=True))
    trans = trans / trans.sum(axis=2, keepdims=True)

    reward = eval_reward(reward_spec, grid.reshape(-1, 1))
    mdp = GridMDP(grid, w, init, trans, reward, float(alpha))
    _check_coverage(mdp)
    return mdp


def _check_coverage(mdp: GridMDP) -> None:
    marg = mdp.pre_marginals()
    boundary = marg[:, 0] + marg[:, -1]
    if boundary.max() > BOUNDARY_MASS_TOL:
        raise CoverageError(
            f"grid too narrow: boundary mass {boundary.max():.2e} exceeds {BOUNDARY_MASS_TOL:.0e}"
        )
    span = mdp.grid[-1] - mdp.grid[0]
    mean = marg @ mdp.grid
    std = np.sqrt(np.maximum(marg @ mdp.grid**2 - mean**2, 0.0))
    if span < 6.0 * std.max():
        raise CoverageError(f"grid span {span:.3g} is under six marginal standard deviations")


def grid_soft_solve(mdp: GridMDP) -> SoftSolution:
    """Backward soft-Bellman recursion and forward rollout, all in log space.

    lv_t = v_t / alpha satisfies lv_t(i) = logsumexp_j(log P_t[i, j] + lv_{t-1}(j))
    with lv_0 = r / alpha; the soft-optimal policy reweights each row by
    exp(lv_{t-1}(j)) and the initial vector by exp(lv_T(j) - log C).
    """
    T, n, alpha = mdp.n_steps, mdp.n_states, mdp.alpha
    with np.errstate(divide="ignore"):
        log_trans = np.log(mdp.trans)
        log_init = np.log(mdp.init)

    lv = np.empty((T + 1, n))
    lv[0] = mdp.reward / alpha
    for t in range(1, T + 1):
        lv[t] = logsumexp(log_trans[t - 1] + lv[t - 1][None, :], axis=1)
    log_c = float(logsumexp(log_init + lv[T]))

    policy = np.empty_like(mdp.trans)
    for t in range(1, T + 1):
        policy[t - 1] = np.exp(log_trans[t - 1] + lv[t - 1][None, :] - lv[t][:, None])
    init_star = np.exp(log_init + lv[T] - log_c)

    marginals = np.empty((T + 1, n))
    marginals[T] = init_star
    for t in range(T, 0, -1):
        marginals[t - 1] = marginals[t] @ policy[t - 1]

    pre_marginals = mdp.pre_marginals()
    constants = np.exp(logsumexp(lv + _safe_log(pre_marginals), axis=1))

    values = alpha * lv
    values[0] = mdp.reward.copy()
    return SoftSolution(mdp, values, log_c, policy, init_star, marginals, pre_marginals, constants)


def _bellman_residuals(sol: SoftSolution) -> tuple[float, float]:
    """Absolute Bellman residual and the same residual over max exp(v/alpha).

    Both come from one logsumexp pass; the relative figure scales each
    term by exp(v_t/alpha - max v/alpha) and so cannot overflow.
    """
    mdp = sol.mdp
    lv = sol.values / mdp.alpha
    lv_max = float(lv.max())
    worst = worst_rel = 0.0
    with np.errstate(divide="ignore"):
        log_trans = np.log(mdp.trans)
    for t in range(1, mdp.n_steps + 1):
        rhs = logsumexp(log_trans[t - 1] + lv[t - 1][None, :], axis=1)
        gap = np.abs(np.expm1(rhs - lv[t]))
        worst = max(worst, float((np.exp(lv[t]) * gap).max()))
        worst_rel = max(worst_rel, float((np.exp(lv[t] - lv_max) * gap).max()))
    return worst, worst_rel


def bellman_residual(sol: SoftSolution) -> float:
    """max_t,i |exp(v_t/alpha) - sum_j P_t[i,j] exp(v_{t-1}/alpha)|, log-space evaluated."""
    return _bellman_residuals(sol)[0]


def verify_theorems(sol: SoftSolution, joint_mass_floor: float = 1e-12) -> dict:
    """Max-abs deviations for the three structural identities plus the
    Bellman residual and the spread of the Theorem-2 constant.

    The last two are exp(v/alpha) quantities, so they are also reported
    relative to the largest exp(v/alpha) on the grid (``*_rel``); at small
    alpha only the relative figures stay near machine precision.
    Thresholds are the caller's business; this only reports numbers.
    """
    mdp, alpha = sol.mdp, sol.mdp.alpha
    t1 = float(np.abs(sol.terminal - sol.tilted_target()).max())

    c = np.exp(sol.log_c)
    t2 = 0.0
    for t in range(mdp.n_steps + 1):
        predicted = np.exp(sol.values[t] / alpha) * sol.pre_marginals[t] / c
        t2 = max(t2, float(np.abs(sol.marginals[t] - predicted).max()))
    c_spread = float(sol.constants.max() - sol.constants.min())
    lv = sol.values / alpha
    c_rel = np.exp(logsumexp(lv + _safe_log(sol.pre_marginals), axis=1) - lv.max())
    c_spread_rel = float(c_rel.max() - c_rel.min())

    t3 = 0.0
    for t in range(1, mdp.n_steps + 1):
        joint_pre = sol.pre_marginals[t][:, None] * mdp.trans[t - 1]       # (i, j)
        joint_star = sol.marginals[t][:, None] * sol.policy[t - 1]
        mask = joint_pre > joint_mass_floor
        post_pre = joint_pre / np.maximum(joint_pre.sum(axis=0, keepdims=True), 1e-300)
        post_star = joint_star / np.maximum(joint_star.sum(axis=0, keepdims=True), 1e-300)
        if mask.any():
            t3 = max(t3, float(np.abs(post_star - post_pre)[mask].max()))

    bellman, bellman_rel = _bellman_residuals(sol)
    return {
        "theorem1_terminal_dev": t1,
        "theorem2_marginal_dev": t2,
        "theorem2_constant_spread": c_spread,
        "theorem2_constant_spread_rel": c_spread_rel,
        "theorem3_posterior_dev": t3,
        "bellman_residual": bellman,
        "bellman_residual_rel": bellman_rel,
    }

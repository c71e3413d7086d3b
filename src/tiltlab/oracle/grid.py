"""Exact finite-grid soft-value dynamic program.

A GridMDP is a self-contained finite MDP: a row-stochastic transition
matrix per reverse step plus an initial vector, both obtained by
projecting the Gaussian reverse kernel onto a 1-D grid. Because the DP
is exact on the projected chain, the three structural facts about
KL-tilted fine-tuning (terminal marginal equals the tilted target,
t-independent normalizing constant, preserved posteriors) hold to
machine precision and can be asserted at 1e-10.

Everything runs in log space; exp(r/alpha) with small alpha never
materializes unshifted. The log-sum-exp is the module's own numpy one, so
the oracle imports no scipy.

Pass budget per (n, n) kernel step: ``grid_build`` takes one exp per
entry, ``grid_soft_solve`` and ``_bellman_residuals`` one log and one exp.
Each works in place in its output slice or in one reused buffer (the
Theorem-3 check in two), and no step allocates an (n, n) temporary.

The solver and the Bellman check compute lv_t through the same function,
``_bellman_rows``, so the check re-evaluates the solver's own expression
bitwise. Only this keeps the *absolute* Bellman residual below 1e-12: an
independent linear-space evaluation, max |exp(v_t/alpha) - P_t
exp(v_{t-1}/alpha)|, reads 7e-11 absolute (4e-16 relative) at alpha = 1
on a 401-node grid where exp(v/alpha) reaches 1.6e5. Changing one side
alone breaks acceptance criterion 04.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffusion.policy import PolicyNet, reverse_mean
from ..errors import ConfigError, ContractError, CoverageError
from ..rewards import RewardSpec, eval_reward

BOUNDARY_MASS_TOL = 1e-4
LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))  # exp overflows above this


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) along ``axis``, shifted by the max so nothing overflows.

    A non-finite max counts as 0, so a slice of all -inf gives -inf
    without a warning.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    a_max = np.where(np.isfinite(a_max), a_max, 0.0)
    # One buffer for the shift and the exp: on (n, n) rows a second fresh
    # temporary costs more than the exp itself.
    shifted = np.subtract(a, a_max, out=np.empty_like(a))
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis, keepdims=keepdims))
    if not keepdims:
        a_max = np.squeeze(a_max, axis=axis)
    return out + a_max


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


def _row_exp(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift each row of the 2-D ``buf`` by its max and exp it, in place.

    Returns the row max (a non-finite max counts as 0, as in
    :func:`logsumexp`) and the row sum of the exps: the row's log-sum-exp
    is ``log(sum) + max`` and ``buf / sum`` its normalized exp.
    """
    row_max = buf.max(axis=1)
    row_max[~np.isfinite(row_max)] = 0.0
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    return row_max, buf.sum(axis=1)


def _bellman_rows(buf: np.ndarray, trans_t: np.ndarray, lv_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lv_t(i) = logsumexp_j(log P_t[i, j] + lv_prev(j)) and the row sums.

    Leaves exp(log P_t + lv_prev - row max) in ``buf``. The solver and the
    Bellman check both call this, so the check is bitwise the solver's.
    """
    with np.errstate(divide="ignore"):
        np.log(trans_t, out=buf)
    buf += lv_prev
    row_max, row_sum = _row_exp(buf)
    return _safe_log(row_sum) + row_max, row_sum


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
        # The log kernel logw - 0.5 (x_j - rho_i)^2 / rev_var, built in place.
        log_k = trans[t - 1]
        np.subtract(grid[None, :], rho[:, None], out=log_k)
        np.square(log_k, out=log_k)
        log_k *= 0.5
        log_k /= s.rev_var
        np.subtract(logw, log_k, out=log_k)
        _, row_sum = _row_exp(log_k)
        log_k /= row_sum[:, None]

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
    log_init = _safe_log(mdp.init)

    lv = np.empty((T + 1, n))
    lv[0] = mdp.reward / alpha
    policy = np.empty_like(mdp.trans)
    for t in range(1, T + 1):
        lv[t], row_sum = _bellman_rows(policy[t - 1], mdp.trans[t - 1], lv[t - 1])
        policy[t - 1] /= row_sum[:, None]
    log_c = float(logsumexp(log_init + lv[T]))
    init_star = np.exp(log_init + lv[T] - log_c)

    marginals = np.empty((T + 1, n))
    marginals[T] = init_star
    for t in range(T, 0, -1):
        marginals[t - 1] = marginals[t] @ policy[t - 1]

    pre_marginals = mdp.pre_marginals()
    with np.errstate(over="ignore"):
        # Where exp(v_t / alpha) exceeds float64 (small alpha) C_t is inf by
        # design: verify_theorems reports the relative spread there.
        constants = np.exp(logsumexp(lv + _safe_log(pre_marginals), axis=1))

    values = alpha * lv
    values[0] = mdp.reward.copy()
    return SoftSolution(mdp, values, log_c, policy, init_star, marginals, pre_marginals, constants)


def _bellman_residuals(sol: SoftSolution) -> tuple[float, float]:
    """Absolute Bellman residual and the same residual over max exp(v/alpha).

    Both come from one :func:`_bellman_rows` pass per step, the solver's
    own; the relative figure scales each term by exp(v_t/alpha - max v/alpha)
    and so cannot overflow. Where exp(max v/alpha) does, the absolute
    figure cannot be formed and reads inf.
    """
    mdp = sol.mdp
    lv = sol.values / mdp.alpha
    lv_max = float(lv.max())
    overflow = lv_max > LOG_FLOAT_MAX
    worst, worst_rel = np.inf if overflow else 0.0, 0.0
    buf = np.empty((mdp.n_states, mdp.n_states))
    for t in range(1, mdp.n_steps + 1):
        rhs, _ = _bellman_rows(buf, mdp.trans[t - 1], lv[t - 1])
        gap = np.abs(np.expm1(rhs - lv[t]))
        if not overflow:
            worst = np.maximum(worst, (np.exp(lv[t]) * gap).max())
        worst_rel = np.maximum(worst_rel, (np.exp(lv[t] - lv_max) * gap).max())
    return float(worst), float(worst_rel)


def bellman_residual(sol: SoftSolution) -> float:
    """max_t,i |exp(v_t/alpha) - sum_j P_t[i,j] exp(v_{t-1}/alpha)|, log-space evaluated."""
    return _bellman_residuals(sol)[0]


def verify_theorems(sol: SoftSolution, joint_mass_floor: float = 1e-12) -> dict:
    """Max-abs deviations for the three structural identities plus the
    Bellman residual and the spread of the Theorem-2 constant.

    The last two are exp(v/alpha) quantities, so they are also reported
    relative to the largest exp(v/alpha) on the grid (``*_rel``); at small
    alpha only the relative figures stay near machine precision, and
    where exp(v/alpha) overflows the absolute ones read inf. Theorem 2
    compares marginals with exp(v_t/alpha - log C) p_pre_t, a probability
    formed in log space. Theorem 3 compares posteriors only where both
    joints, pre-trained and soft-optimal, exceed ``joint_mass_floor``.
    Thresholds are the caller's business; this only reports numbers.
    """
    mdp, alpha = sol.mdp, sol.mdp.alpha
    t1 = float(np.abs(sol.terminal - sol.tilted_target()).max())

    lv = sol.values / alpha
    lv_max = float(lv.max())
    log_pre = _safe_log(sol.pre_marginals)
    predicted = np.exp(lv + log_pre - sol.log_c)
    t2 = float(np.abs(sol.marginals - predicted).max())
    c_rel = np.exp(logsumexp(lv + log_pre, axis=1) - lv_max)
    c_spread_rel = float(c_rel.max() - c_rel.min())
    c_spread = np.inf if lv_max > LOG_FLOAT_MAX else float(sol.constants.max() - sol.constants.min())

    t3 = 0.0
    n = mdp.n_states
    post_pre, post_star, mask = np.empty((n, n)), np.empty((n, n)), np.empty((n, n), dtype=bool)
    for t in range(1, mdp.n_steps + 1):
        # Joints (i, j), then posteriors over i given j, in the two buffers.
        np.multiply(sol.pre_marginals[t][:, None], mdp.trans[t - 1], out=post_pre)
        np.multiply(sol.marginals[t][:, None], sol.policy[t - 1], out=post_star)
        np.greater(post_pre, joint_mass_floor, out=mask)
        np.greater(post_star, joint_mass_floor, out=mask, where=mask)
        post_pre /= np.maximum(post_pre.sum(axis=0), 1e-300)
        post_star /= np.maximum(post_star.sum(axis=0), 1e-300)
        post_star -= post_pre
        np.abs(post_star, out=post_star)
        t3 = np.maximum(t3, np.max(post_star, where=mask, initial=0.0))

    bellman, bellman_rel = _bellman_residuals(sol)
    return {
        "theorem1_terminal_dev": t1,
        "theorem2_marginal_dev": t2,
        "theorem2_constant_spread": c_spread,
        "theorem2_constant_spread_rel": c_spread_rel,
        "theorem3_posterior_dev": float(t3),
        "bellman_residual": bellman,
        "bellman_residual_rel": bellman_rel,
    }

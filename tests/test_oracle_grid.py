import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltlab.diffusion import GaussianMixture, PolicyNet, make_schedule
from tiltlab.errors import ConfigError, ContractError, CoverageError
from tiltlab.oracle import GridMDP, bellman_residual, grid_build, grid_soft_solve, verify_theorems
from tiltlab.oracle.grid import logsumexp
from tiltlab.rewards import LinearReward, QuadraticReward


def two_state_mdp(alpha=1.0, steps=1, init=(0.5, 0.5)):
    return GridMDP(
        grid=np.array([0.0, 1.0]),
        weights=np.array([1.0, 1.0]),
        init=np.asarray(init, dtype=np.float64),
        trans=np.full((steps, 2, 2), 0.5),
        reward=np.array([0.0, np.log(2.0)]),
        alpha=alpha,
    )


def test_two_state_hand_enumeration():
    # One step, uniform rows, alpha = 1, r = (0, ln 2):
    # v_1 = ln(0.5 * 1 + 0.5 * 2) = ln 1.5, policy rows (1/3, 2/3),
    # terminal marginal (1/3, 2/3) = exp(r) * (1/2, 1/2) / Z.
    sol = grid_soft_solve(two_state_mdp())
    assert np.abs(sol.values[1] - np.log(1.5)).max() < 1e-12
    assert np.abs(sol.policy[0] - np.array([1 / 3, 2 / 3])).max() < 1e-12
    assert np.abs(sol.terminal - np.array([1 / 3, 2 / 3])).max() < 1e-12
    assert np.abs(sol.tilted_target() - np.array([1 / 3, 2 / 3])).max() < 1e-12


def test_zero_reward_means_no_tilt():
    mdp = GridMDP(
        grid=np.array([0.0, 1.0]),
        weights=np.ones(2),
        init=np.array([0.3, 0.7]),
        trans=np.array([[[0.2, 0.8], [0.6, 0.4]], [[0.5, 0.5], [0.9, 0.1]]]),
        reward=np.zeros(2),
        alpha=1.0,
    )
    sol = grid_soft_solve(mdp)
    assert np.abs(sol.values).max() < 1e-14
    assert np.abs(sol.policy - mdp.trans).max() < 1e-14
    rep = verify_theorems(sol)
    assert max(rep["theorem1_terminal_dev"], rep["theorem2_marginal_dev"],
               rep["theorem3_posterior_dev"]) < 1e-14


def test_values_zero_index_is_reward_vector_exactly():
    mdp = two_state_mdp(alpha=0.7)
    sol = grid_soft_solve(mdp)
    assert np.array_equal(sol.values[0], mdp.reward)


def test_row_sum_contract():
    with pytest.raises(ContractError):
        GridMDP(np.array([0.0, 1.0]), np.ones(2), np.array([0.5, 0.5]),
                np.array([[[0.6, 0.5], [0.5, 0.5]]]), np.zeros(2), 1.0)
    with pytest.raises(ContractError):
        two_state_mdp(alpha=0.0)


def test_grid_build_rows_sum_to_one(analytic16):
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -6.0, 6.0, 41, n_steps=4)
    assert np.abs(mdp.trans.sum(axis=2) - 1.0).max() < 1e-12
    assert abs(mdp.init.sum() - 1.0) < 1e-12


def test_grid_build_coverage_errors(analytic16):
    with pytest.raises(CoverageError):
        grid_build(analytic16, LinearReward([1.0]), 1.0, -2.0, 2.0, 21, n_steps=4)
    with pytest.raises(ConfigError):
        grid_build(analytic16, LinearReward([1.0]), 1.0, -6.0, 6.0, 9, n_steps=4)


def test_degenerate_kernel_is_point_mass(std_base):
    # With the reverse variance driven to zero each row collapses onto the
    # node nearest to the step mean.
    s = make_schedule(4, 1.0, rev_var=1e-9)
    policy = PolicyNet(s, base=std_base)
    from tiltlab.diffusion import reverse_mean

    # slightly asymmetric interval so no step mean lands exactly between nodes
    mdp = grid_build(policy, LinearReward([1.0]), 1.0, -8.03, 8.11, 101)
    t = 2
    rho = reverse_mean(policy, mdp.grid.reshape(-1, 1), t)[:, 0]
    nearest = np.abs(mdp.grid[None, :] - rho[:, None]).argmin(axis=1)
    row_argmax = mdp.trans[t - 1].argmax(axis=1)
    assert np.array_equal(nearest, row_argmax)
    assert mdp.trans[t - 1].max(axis=1).min() > 1 - 1e-9


def test_pretrained_terminal_matches_discretized_base(std_base):
    # 21 nodes on [-5, 5], N(0,1) base, T = 4: the projected chain's
    # terminal marginal vs the directly discretized base density.
    s = make_schedule(4, 1.0)
    policy = PolicyNet(s, base=std_base)
    mdp = grid_build(policy, LinearReward([1.0]), 1.0, -5.0, 5.0, 21)
    terminal_pre = mdp.pre_marginals()[0]
    dens = np.exp(-0.5 * mdp.grid**2) * mdp.weights
    dens /= dens.sum()
    assert 0.5 * np.abs(terminal_pre - dens).sum() < 0.02


@pytest.mark.parametrize("n,steps,alpha", [(11, 2, 0.5), (21, 3, 1.0), (41, 5, 2.0),
                                           (21, 2, 2.0), (41, 3, 0.5)])
def test_theorems_hold_exactly_on_grids(analytic16, n, steps, alpha):
    reward = QuadraticReward(np.array([[-0.4]]), np.array([0.8]), 0.1)
    mdp = grid_build(analytic16, reward, alpha, -7.0, 7.0, n, n_steps=steps)
    rep = verify_theorems(grid_soft_solve(mdp))
    assert rep["theorem1_terminal_dev"] < 1e-10
    assert rep["theorem2_marginal_dev"] < 1e-10
    assert rep["theorem2_constant_spread"] < 1e-10
    assert rep["theorem3_posterior_dev"] < 1e-10
    assert rep["bellman_residual"] < 1e-12


def test_constants_identical_across_steps(analytic16):
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -6.5, 6.5, 21, n_steps=3)
    sol = grid_soft_solve(mdp)
    assert sol.constants.max() - sol.constants.min() < 1e-10


def test_perturbed_policy_row_is_detected(analytic16):
    # Detector sensitivity: a 1e-3 bump in one policy row moves the
    # terminal marginal away from the tilted target by at least 1e-5.
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -6.5, 6.5, 21, n_steps=3)
    sol = grid_soft_solve(mdp)
    policy = sol.policy.copy()
    row = policy[1][10].copy()
    row[5] += 1e-3
    policy[1][10] = row / row.sum()
    marg = sol.init_star.copy()
    for t in range(mdp.n_steps, 0, -1):
        marg = marg @ policy[t - 1]
    assert np.abs(marg - sol.tilted_target()).max() >= 1e-5


def test_refinement_converges_monotonically(analytic16):
    # Doubling the node count changes the terminal tilted marginal by less
    # than the previous discretization error (grids chosen to nest).
    reward = LinearReward([1.0])

    def terminal_density(n):
        mdp = grid_build(analytic16, reward, 1.0, -7.0, 7.0, n, n_steps=3)
        sol = grid_soft_solve(mdp)
        return mdp.grid, sol.terminal / mdp.weights  # density values at nodes

    g1, d1 = terminal_density(41)
    g2, d2 = terminal_density(81)
    g3, d3 = terminal_density(161)
    assert np.allclose(g2[::2], g1)
    gap12 = np.abs(d2[::2] - d1).max()
    gap23 = np.abs(d3[::2] - d2).max()
    assert gap23 < gap12  # contraction of the refinement sequence


def test_bellman_residual_is_float_noise(analytic16):
    mdp = grid_build(analytic16, LinearReward([1.0]), 0.5, -7.0, 7.0, 41, n_steps=5)
    assert bellman_residual(grid_soft_solve(mdp)) < 1e-12


EXACT_KEYS = ("theorem1_terminal_dev", "theorem2_marginal_dev", "theorem3_posterior_dev",
              "theorem2_constant_spread_rel", "bellman_residual_rel")


def test_relative_figures_stay_exact_at_small_alpha():
    # At alpha = 0.05 exp(v/alpha) reaches ~1e69 on this grid, so the
    # absolute constant spread and Bellman residual are float noise at that
    # scale; relative to the largest exp(v/alpha) they are machine precision.
    # At 0.01 exp(v/alpha) overflows float64: the absolute figures read inf,
    # never 0 or NaN. At 0.02 and 0.01 some soft-optimal joint columns carry
    # subnormal mass; Theorem 3 leaves them out as it does pre-trained ones.
    base = GaussianMixture(np.array([0.5, 0.5]), np.array([[-2.0], [2.0]]), np.array([1.0, 1.0]))
    policy = PolicyNet(make_schedule(8, 6.0), base=base)
    for alpha in (0.05, 0.02, 0.01):
        sol = grid_soft_solve(grid_build(policy, LinearReward([1.0]), alpha, -8.0, 8.0, 41))
        rep = verify_theorems(sol)
        assert all(rep[key] <= 1e-10 for key in EXACT_KEYS), (alpha, rep)
        if alpha == 0.05:
            assert rep["theorem2_constant_spread"] > 1e30
            assert rep["bellman_residual"] > 1e30
            scale = np.exp(sol.values / alpha).max()  # finite here, so the two routes compare
            assert rep["bellman_residual_rel"] == pytest.approx(rep["bellman_residual"] / scale, rel=1e-9)
        if alpha == 0.01:
            assert rep["theorem2_constant_spread"] == rep["bellman_residual"] == np.inf


@st.composite
def _grid_problems(draw):
    """A 1-D grid problem on [-8, 8]: alpha log-uniform in [1e-2, 1e2], a 1- to
    3-component base, a linear or concave-to-mildly-convex quadratic reward.
    The horizon stays at most T (reverse variance at most 1), so the grid
    holds every pre-trained marginal."""
    alpha = 10.0 ** draw(st.floats(-2.0, 2.0))
    n, T = draw(st.integers(21, 61)), draw(st.integers(2, 8))
    horizon = draw(st.floats(1.0, min(6.0, float(T))))
    k = draw(st.integers(1, 3))
    w = np.array([draw(st.floats(0.2, 0.8)) for _ in range(k)])
    base = GaussianMixture(w / w.sum(),
                           np.array([[draw(st.floats(-2.0, 2.0))] for _ in range(k)]),
                           np.array([draw(st.floats(0.3, 1.2)) for _ in range(k)]))
    if draw(st.booleans()):
        reward = LinearReward([draw(st.floats(-2.0, 2.0))])
    else:
        reward = QuadraticReward([[draw(st.floats(-0.6, 0.05))]], [draw(st.floats(-1.0, 1.0))])
    return PolicyNet(make_schedule(T, horizon), base=base), reward, alpha, n


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_grid_problems())
def test_theorems_hold_on_random_grids(problem):
    policy, reward, alpha, n = problem
    rep = verify_theorems(grid_soft_solve(grid_build(policy, reward, alpha, -8.0, 8.0, n)))
    assert all(rep[key] <= 1e-10 for key in EXACT_KEYS), rep


@pytest.mark.parametrize("scale", [1.0, 10.0, 700.0, 2400.0])
def test_logsumexp_matches_scipy(scale):
    # 2400 is r / alpha at alpha = 0.01 on the benchmark's grid.
    from scipy.special import logsumexp as reference

    rng = np.random.default_rng(int(scale))
    a = scale * rng.standard_normal((64, 401))
    a[rng.random(a.shape) < 0.1] = -np.inf
    for axis in (None, 0, 1):
        for keepdims in (False, True):
            got = logsumexp(a, axis=axis, keepdims=keepdims)
            want = reference(a, axis=axis, keepdims=keepdims)
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_logsumexp_all_minus_inf_row_is_minus_inf_without_warning():
    a = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = logsumexp(a, axis=1)
        whole = logsumexp(np.full(3, -np.inf))
    assert abs(rows[0] - np.log(1.0 + np.e)) <= 1e-15
    assert rows[1] == -np.inf and whole == -np.inf

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from tiltlab.diffusion import (
    GaussianMixture,
    PolicyNet,
    add_residual_net,
    analytic_eps,
    gaussian_log_density,
    log_probs_under,
    make_schedule,
    means_on_tape,
    means_under,
    reverse_mean,
    sample_trajectory,
)
from tiltlab import gaussmix
from tiltlab.autodiff import Tape, bind_params, evaluate, gradient, init_mlp, zero_mlp
from tiltlab.errors import ContractError, NumericError
from tiltlab.harness import energy_permutation_pvalue
from tiltlab.oracle import conditional_expected_noise
from tiltlab.streams import make_rng


# -- gaussian_log_density --------------------------------------------------


def test_log_density_at_mean_unit_variance():
    assert gaussian_log_density(np.zeros(1), np.zeros(1), 1.0) == -0.5 * np.log(2 * np.pi)


def test_log_density_translation_invariance():
    rng = make_rng(1)
    x, mu, c = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3)
    assert gaussian_log_density(x, mu, 0.7) == gaussian_log_density(x + c, mu + c, 0.7)


def test_log_density_against_arbitrary_precision():
    # Independent oracle: 50-digit evaluation with mpmath.
    mpmath.mp.dps = 50
    rng = make_rng(2)
    for _ in range(5):
        x, mu = rng.standard_normal(2), rng.standard_normal(2)
        var = float(rng.uniform(0.1, 3.0))
        got = gaussian_log_density(x, mu, var)
        ref = -mpmath.log(2 * mpmath.pi * var) - sum(
            (mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(x, mu)
        ) / (2 * var)
        assert abs(got - float(ref)) < 1e-12


def test_log_density_rejects_bad_variance():
    with pytest.raises(ContractError):
        gaussian_log_density(np.zeros(1), np.zeros(1), 0.0)


# -- analytic eps ----------------------------------------------------------


def test_analytic_eps_std_normal_closed_form():
    s = make_schedule(16, 4.0)
    base = GaussianMixture.std_normal(1)
    x = np.linspace(-3, 3, 11).reshape(-1, 1)
    for t in (1, 7, 16):
        mu, sg = s.mu_pert[t], s.sigma_pert[t]
        want = sg * x / (mu**2 + sg**2)
        assert np.abs(analytic_eps(base, s, x, t) - want).max() < 1e-12


def test_analytic_eps_matches_numeric_convolution():
    # Independent oracle: the marginal score from quadrature over the
    # convolution q_t(x) = int N(x; mu x0, sigma^2) p0(x0) dx0.
    s = make_schedule(8, 3.0)
    base = GaussianMixture(np.array([0.3, 0.7]), np.array([[-1.0], [1.5]]), np.array([0.8, 0.5]))
    t = 5
    mu, sg = s.mu_pert[t], s.sigma_pert[t]

    def q_and_dq(x):
        def integrand(x0, deriv):
            p0 = sum(
                w * np.exp(-0.5 * (x0 - m) ** 2 / sc**2) / np.sqrt(2 * np.pi * sc**2)
                for w, m, sc in zip(base.weights, base.means[:, 0], base.scales)
            )
            kern = np.exp(-0.5 * (x - mu * x0) ** 2 / sg**2) / np.sqrt(2 * np.pi * sg**2)
            if deriv:
                kern = kern * (-(x - mu * x0) / sg**2)
            return p0 * kern

        q = quad(lambda u: integrand(u, False), -12, 12, limit=200)[0]
        dq = quad(lambda u: integrand(u, True), -12, 12, limit=200)[0]
        return q, dq

    for x in (-1.7, 0.3, 2.1):
        q, dq = q_and_dq(x)
        eps = analytic_eps(base, s, np.array([[x]]), t)[0, 0]
        assert abs(eps - (-sg * dq / q)) < 1e-8


def test_analytic_eps_symmetric_mixture_vanishes_at_center():
    s = make_schedule(8, 3.0)
    base = GaussianMixture(np.array([0.5, 0.5]), np.array([[-2.0], [2.0]]), np.array([1.0, 1.0]))
    for t in (1, 4, 8):
        assert abs(analytic_eps(base, s, np.zeros((1, 1)), t)[0, 0]) < 1e-14


def test_analytic_eps_large_t_limit():
    # With mu_pert < 0.01 the marginal is nearly standard normal: score ~ -x.
    s = make_schedule(64, 10.0)
    base = GaussianMixture(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([0.7, 0.7]))
    t = s.n_steps
    assert s.mu_pert[t] < 0.01
    x = np.array([[0.9]])
    eps = analytic_eps(base, s, x, t)[0, 0]
    limit = s.sigma_pert[t] * x[0, 0]
    assert abs(eps - limit) / abs(limit) < 0.01


# -- reverse mean ------------------------------------------------------------


def test_reverse_mean_with_zero_eps_is_pure_drift():
    s = make_schedule(8, 2.0)
    policy = PolicyNet(s, net=zero_mlp([3, 4, 1]))
    x = make_rng(3).standard_normal((5, 1))
    for t in (1, 5, 8):
        assert np.allclose(reverse_mean(policy, x, t), x * (1 + 0.5 * s.dt), rtol=0, atol=1e-15)


def test_reverse_mean_matches_conditional_noise_algebra():
    # Two independent derivations of the exact expected noise: the score
    # route in analytic_eps and joint-Gaussian covariance algebra in the
    # oracle; the resulting reverse means must agree to 1e-10.
    s = make_schedule(16, 4.0)
    base = GaussianMixture.single([0.4], 1.3)
    policy = PolicyNet(s, base=base)
    x = np.linspace(-4, 4, 21).reshape(-1, 1)
    for t in range(1, s.n_steps + 1):
        eps_oracle = conditional_expected_noise(base, s, x, t)
        rho_oracle = x * (1 + 0.5 * s.dt) - (s.dt / s.sigma_eff(t)) * eps_oracle
        assert np.abs(reverse_mean(policy, x, t) - rho_oracle).max() < 1e-10


def test_reverse_mean_displacement_is_first_order_in_dt():
    base = GaussianMixture.std_normal(1)
    x = np.array([[1.2]])
    disp = {}
    for T in (16, 32):
        s = make_schedule(T, 4.0)
        policy = PolicyNet(s, base=base)
        t_mid = T // 2  # same continuous time in both schedules
        disp[T] = abs(reverse_mean(policy, x, t_mid)[0, 0] - x[0, 0])
    ratio = disp[16] / disp[32]
    assert abs(ratio - 2.0) < 0.1  # halving dt halves the displacement


def test_reverse_mean_range_check():
    s = make_schedule(8, 2.0)
    policy = PolicyNet(s, base=GaussianMixture.std_normal(1))
    with pytest.raises(IndexError):
        reverse_mean(policy, np.zeros((1, 1)), 0)
    with pytest.raises(IndexError):
        reverse_mean(policy, np.zeros((1, 1)), 9)


# -- trajectory sampling -----------------------------------------------------


def test_noise_free_chain_is_deterministic_drift():
    # rev_var at the smallest positive scale: the injected noise rounds away
    # and x_{t-1} = x_t (1 + dt/2) exactly.
    s = make_schedule(6, 1.5, rev_var=1e-300)
    policy = PolicyNet(s, net=zero_mlp([3, 4, 1]))
    traj = sample_trajectory(policy, make_rng(4), n=3)
    for t in range(s.n_steps, 0, -1):
        assert np.array_equal(traj.states[t - 1], traj.states[t] * (1 + 0.5 * s.dt))


def test_same_seed_gives_bitwise_identical_trajectories(analytic16):
    a = sample_trajectory(analytic16, make_rng(7), n=16)
    b = sample_trajectory(analytic16, make_rng(7), n=16)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.means, b.means)  # so the derived log densities are equal too


def test_stored_means_are_the_reverse_means(analytic16):
    s = analytic16.schedule
    traj = sample_trajectory(analytic16, make_rng(8), n=5)
    for t in range(s.n_steps, 0, -1):
        assert np.array_equal(traj.means[t - 1], reverse_mean(analytic16, traj.states[t], t))


def test_stored_log_probs_reproduce_exactly(analytic16):
    # The densities derived from the stored means, stacked or step by step,
    # equal a fresh pass of the policy over the stored states bitwise.
    rev_var = analytic16.schedule.rev_var
    traj = sample_trajectory(analytic16, make_rng(9), n=5)
    derived = gaussian_log_density(traj.states[:-1], traj.means, rev_var)
    assert np.array_equal(derived, log_probs_under(analytic16, traj))
    for t in range(1, traj.n_steps + 1):
        assert np.array_equal(derived[t - 1],
                              gaussian_log_density(traj.states[t - 1], traj.means[t - 1], rev_var))


def test_terminal_normality_at_spec_scale():
    # Analytic standard-normal base, T = 64: terminal samples pass the
    # normality window at 1e4 trajectories.
    s = make_schedule(64, 4.0)
    policy = PolicyNet(s, base=GaussianMixture.std_normal(1))
    traj = sample_trajectory(policy, make_rng(10), n=10000)
    x0 = traj.terminal[:, 0]
    assert abs(x0.mean()) < 0.03
    assert 0.94 < x0.var() < 1.06


def test_round_trip_energy_test_passes():
    # Terminal reverse samples vs the base: two-sample energy permutation
    # test should not reject at 1e4 samples.
    s = make_schedule(64, 4.0)
    base = GaussianMixture.std_normal(1)
    policy = PolicyNet(s, base=base)
    samples = sample_trajectory(policy, make_rng(11), n=10000).terminal
    ref = base.sample(make_rng(12), 10000)
    p = energy_permutation_pvalue(samples, ref, make_rng(13), n_perm=100)
    assert p >= 0.05


def test_non_finite_shift_raises_with_step_index(analytic16):
    class BadSource:
        def shift(self, x, t):
            return np.full_like(x, np.nan)

    with pytest.raises(NumericError) as err:
        sample_trajectory(analytic16, make_rng(14), n=2, shift_source=BadSource())
    assert "step" in str(err.value)


# -- the zero-output skip and the per-step marginal table -----------------------


_SKIP_BASES = {
    "std-normal": GaussianMixture.std_normal(1),
    "two-modes": GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]), np.array([1.0, 1.0])),
    "two-modes-2d": GaussianMixture(np.array([0.4, 0.6]), np.array([[-2.0, 1.0], [2.0, -0.5]]),
                                    np.array([0.7, 1.1])),
}


def _zero_residual(base):
    return add_residual_net(PolicyNet(make_schedule(16, 6.0), base=base), make_rng(30),
                            hidden=(24, 24))


@pytest.mark.parametrize("name", sorted(_SKIP_BASES))
def test_zero_output_net_is_skipped_exactly(name):
    residual = _zero_residual(_SKIP_BASES[name])
    analytic = replace(residual, net=None)
    a = sample_trajectory(residual, make_rng(31), n=256)
    b = sample_trajectory(analytic, make_rng(31), n=256)
    for field in ("states", "means"):  # the log densities are a function of these two
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(means_under(residual, a.states[1:]), means_under(analytic, a.states[1:]))


def test_nonzero_output_weight_runs_the_net():
    residual = _zero_residual(_SKIP_BASES["two-modes"])
    params = {k: v.copy() for k, v in residual.params.items()}
    params["w2"][0, 0] = 1e-12
    nudged = residual.with_params(params)
    states = sample_trajectory(residual, make_rng(32), n=64).states[1:]
    assert not np.array_equal(means_under(nudged, states), means_under(residual, states))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_skipped_net_still_refuses_non_finite_input(bad):
    residual = _zero_residual(_SKIP_BASES["std-normal"])
    with pytest.raises(NumericError):
        reverse_mean(residual, np.array([[0.5], [bad]]), 3)


# -- the one-component closed form ---------------------------------------------


def _mixture_score_and_hessian(x, log_weights, means, variances):
    """The K-component formulas, written out from the responsibilities."""
    gamma = gaussmix.responsibilities(x, log_weights, means, variances)
    pulls = (means[None, :, :] - x[:, None, :]) / variances[None, :, None]
    s = (gamma[:, :, None] * pulls).sum(axis=1)
    outer = np.einsum("mki,mkj->mij", gamma[:, :, None] * pulls, pulls)
    trace_part = (gamma / variances[None, :]).sum(axis=1)
    eye = np.eye(x.shape[1])[None, :, :]
    return s, outer - trace_part[:, None, None] * eye - np.einsum("mi,mj->mij", s, s)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_component_score_and_hessian_equal_the_mixture_formula(d):
    rng = make_rng(40 + d)
    for _ in range(50):
        mean = rng.standard_normal((1, d)) * 10.0 ** rng.uniform(-3, 2)
        var = np.array([10.0 ** rng.uniform(-3, 2)])
        x = mean + rng.standard_normal((64, d)) * 10.0 ** rng.uniform(-6, 3, size=(64, 1))
        x[0] = mean[0]
        x[1] = 1e3 * np.sign(rng.standard_normal(d))
        args = (x, np.zeros(1), mean, var)
        want_s, want_h = _mixture_score_and_hessian(*args)
        got_s, got_h = gaussmix.score_and_hessian(*args)
        assert gaussmix.score(*args).tobytes() == want_s.tobytes()
        assert got_s.tobytes() == want_s.tobytes()
        assert got_h.tobytes() == want_h.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_one_component_reverse_mean_keeps_non_finite_rows_non_finite(d):
    # The mixture formula turns a row with an infinite coordinate into NaN
    # through its responsibilities; the closed form must not make it finite.
    base = GaussianMixture.single(np.linspace(0.3, -0.4, d), 1.2)
    policy = _perturbed(add_residual_net(PolicyNet(make_schedule(16, 6.0), base=base), make_rng(41),
                                         hidden=(8,)), 0.3, 42)
    x = make_rng(43).standard_normal((6, d))
    x[1, 0], x[2, 0], x[3, -1] = np.inf, -np.inf, np.inf
    s, t = policy.schedule, 5
    log_weights, means, variances = policy.marginals
    with np.errstate(invalid="ignore"):
        score, _ = _mixture_score_and_hessian(x, log_weights, means[t], variances[t])
        eps = -s.sigma_pert[t] * score + evaluate(policy.net, s.net_input(x, t))
        want = x * (1.0 + 0.5 * s.dt) - (s.dt / s.sigma_eff(t)) * eps
        got = reverse_mean(policy, x, t)
    finite = np.isfinite(want).all(axis=1)
    assert not finite[1:4].any()
    assert not np.isfinite(got[~finite]).all(axis=1).any()
    assert not np.isfinite(policy.eps(x, t)[~finite]).all(axis=1).any()
    assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.parametrize("steps", [1, 16, 58, 64])
@pytest.mark.parametrize("name", sorted(_SKIP_BASES))
def test_marginal_table_rows_equal_marginal_at(name, steps):
    # T = 58 at horizon 8 is a schedule where squaring mu_pert by
    # multiplication instead of pow() differs from marginal_at in the last bit.
    base, s = _SKIP_BASES[name], make_schedule(steps, 8.0)
    log_weights, means, variances = base.marginal_table(s)
    assert means.shape == (steps + 1, base.n_components, base.dim)
    for t in range(steps + 1):
        marg = base.marginal_at(s, t)
        assert np.array_equal(log_weights, marg.log_weights)
        assert np.array_equal(means[t], marg.means), t
        assert np.array_equal(variances[t], marg.variances), t


# -- re-scoring stored states on the tape --------------------------------------


def _two_mode_2d():
    base = GaussianMixture(np.array([0.4, 0.6]), np.array([[-2.0, 1.0], [2.0, -0.5]]),
                           np.array([0.7, 1.1]))
    return PolicyNet(make_schedule(8, 5.0), base=base)


def _perturbed(policy, scale, seed):
    rng = make_rng(seed)
    return policy.with_params(
        {k: v + scale * rng.standard_normal(v.shape) for k, v in policy.params.items()}
    )


@pytest.fixture(params=["residual-2d", "net-only-2d"])
def rescoring_policy(request):
    if request.param == "residual-2d":
        return _perturbed(add_residual_net(_two_mode_2d(), make_rng(20), hidden=(8,)), 0.3, 21)
    return PolicyNet(make_schedule(8, 5.0), net=init_mlp([4, 8, 2], make_rng(22)))


def _tape_means(policy, states):
    tape = Tape()
    nodes = bind_params(tape, policy.params)
    return tape, nodes, means_on_tape(tape, policy, nodes, states)


def test_means_on_tape_matches_means_under(rescoring_policy):
    states = sample_trajectory(rescoring_policy, make_rng(23), n=16).states[1:]
    _, _, node = _tape_means(rescoring_policy, states)
    want = means_under(rescoring_policy, states)
    assert node.value.shape == (states.shape[0] * 16, 2)
    assert np.abs(node.value - want.reshape(node.value.shape)).max() <= 1e-13 * np.abs(want).max()


def test_means_on_tape_is_bitwise_at_zero_net_output():
    # A zero output layer leaves exactly the analytic means (residual) or
    # the pure drift (net only), as reverse_mean computes them.
    analytic = _two_mode_2d()
    net_only = PolicyNet(analytic.schedule, net=zero_mlp([4, 8, 2]))
    for policy, reference in ((add_residual_net(analytic, make_rng(24), hidden=(8,)), analytic),
                              (net_only, net_only)):
        states = sample_trajectory(analytic, make_rng(25), n=16).states[1:]
        _, _, node = _tape_means(policy, states)
        want = means_under(reference, states).reshape(node.value.shape)
        assert np.array_equal(node.value, want)
        assert np.array_equal(node.value, means_under(policy, states).reshape(node.value.shape))


def test_means_on_tape_parameter_gradient_matches_central_differences(rescoring_policy):
    # Independent path: central differences of the numpy means_under.
    states = sample_trajectory(rescoring_policy, make_rng(26), n=6).states[1:]
    tape, nodes, node = _tape_means(rescoring_policy, states)
    cot = make_rng(27).standard_normal(node.value.shape)
    names = sorted(nodes)
    grads = dict(zip(names, gradient(tape.sumall(tape.mul(node, tape.constant(cot))),
                                     [nodes[k] for k in names])))
    h = 1e-6
    for name in names:
        fd = np.zeros_like(grads[name])
        for idx in np.ndindex(fd.shape):
            vals = []
            for sign in (1.0, -1.0):
                params = {k: v.copy() for k, v in rescoring_policy.params.items()}
                params[name][idx] += sign * h
                means = means_under(rescoring_policy.with_params(params), states)
                vals.append((means.reshape(cot.shape) * cot).sum())
            fd[idx] = (vals[0] - vals[1]) / (2 * h)
        assert np.abs(grads[name] - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), name

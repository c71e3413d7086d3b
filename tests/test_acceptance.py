"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy criteria train
real models and share session fixtures; expect a few minutes total.
"""

import time

import numpy as np
import pytest

from graphgen import finite_diff_check
from tiltlab.autodiff import expected_param_count, param_distance
from tiltlab.diffusion import (
    GaussianMixture,
    PolicyNet,
    add_residual_net,
    make_schedule,
    sample_trajectory,
)
from tiltlab.finetune import FineTuneConfig, ppo_signals, ppo_surrogate_value, run_finetune
from tiltlab.guidance import (
    AffineValueShift,
    GuidedPolicy,
    MixturePosteriorShift,
    fit_value_mc,
    fit_value_softq,
    path_integral_grad,
    tweedie_posterior_mean,
    value_weighted_sample,
)
from tiltlab.harness import energy_dist, read_jsonl, run_experiment, wasserstein1
from tiltlab.oracle import (
    chain_stats,
    grid_build,
    grid_soft_solve,
    mala_sample,
    tilted_gaussian_target,
    verify_theorems,
)
from tiltlab.rewards import LinearReward, QuadraticReward
from tiltlab.streams import make_rng


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


# -- shared heavy artifacts --------------------------------------------------


@pytest.fixture(scope="module")
def grid_reports(analytic16):
    """Randomized grid instances covering n x T x alpha; solved once."""
    t0 = time.perf_counter()
    cases = [
        (11, 2, 0.5, LinearReward([1.0])),
        (21, 3, 1.0, QuadraticReward(np.array([[-0.3]]), np.array([0.7]), 0.2)),
        (41, 5, 2.0, LinearReward([-0.8])),
        (21, 5, 0.5, QuadraticReward(np.array([[0.2]]), np.array([-0.5]), 0.0)),
        (41, 2, 1.0, LinearReward([1.3])),
        (11, 3, 2.0, QuadraticReward(np.array([[-0.5]]), np.array([0.0]), 0.4)),
    ]
    reports = []
    for n, steps, alpha, reward in cases:
        mdp = grid_build(analytic16, reward, alpha, -8.0, 8.0, n, n_steps=steps)
        reports.append(verify_theorems(grid_soft_solve(mdp)))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_problem():
    """The canonical 1-D linear-reward problem at fine discretization."""
    sched = make_schedule(128, 8.0)
    base = GaussianMixture.std_normal(1)
    pre = add_residual_net(PolicyNet(sched, base=base), make_rng(42), hidden=(24, 24))
    cs = chain_stats(sched, base)
    return sched, base, pre, cs


@pytest.fixture(scope="module")
def backprop_artifacts(drift_problem):
    sched, base, pre, cs = drift_problem
    t0 = time.perf_counter()
    cfg = FineTuneConfig("backprop", alpha=1.0, batch=256, iterations=500, lr=5e-3, seed=7)
    result = run_finetune(pre, LinearReward([1.0]), cfg)
    elapsed = time.perf_counter() - t0
    samples = sample_trajectory(result.policy, make_rng(99), 10000).terminal
    return result, samples, elapsed


@pytest.fixture(scope="module")
def value_problem():
    sched = make_schedule(16, 6.0)
    base = GaussianMixture.std_normal(1)
    policy = PolicyNet(sched, base=base)
    return sched, base, policy, chain_stats(sched, base)


@pytest.fixture(scope="module")
def fitted_values(value_problem):
    _, _, policy, _ = value_problem
    reward = LinearReward([1.0])
    vm_mc = fit_value_mc(policy, reward, 1.0, make_rng(21), budget=4000, steps=16000,
                         batch=4096, hidden=(32, 32), lr=8e-3, final_lr=1e-3)
    vm_sq = fit_value_softq(policy, reward, 1.0, make_rng(22), n_states=384,
                            inner_draws=64, steps_per_sweep=400, hidden=(32, 32))
    return vm_mc, vm_sq


@pytest.fixture(scope="module")
def pcl_artifacts():
    sched = make_schedule(32, 6.0)
    base = GaussianMixture.std_normal(1)
    pre = add_residual_net(PolicyNet(sched, base=base), make_rng(42), hidden=(24, 24))
    cfg = FineTuneConfig("pcl", alpha=1.0, batch=64, iterations=2000, lr=5e-3,
                         value_hidden=(32, 32), seed=11)
    result = run_finetune(pre, LinearReward([1.0]), cfg)
    cs = chain_stats(sched, base)
    return pre, result, cs


# -- criteria ---------------------------------------------------------------


def test_criterion_01_theorem1_terminal_exactness(grid_reports):
    reports, elapsed = grid_reports
    worst = max(r["theorem1_terminal_dev"] for r in reports)
    report(1, worst < 1e-10 and elapsed < 5.0,
           f"terminal-vs-tilted deviation {worst:.2e} over {len(reports)} grids in {elapsed:.2f}s")


def test_criterion_02_theorem2_constant(grid_reports):
    reports, _ = grid_reports
    worst = max(r["theorem2_constant_spread"] for r in reports)
    report(2, worst < 1e-10, f"max C_t spread {worst:.2e}")


def test_criterion_03_theorem3_posterior(grid_reports):
    reports, _ = grid_reports
    worst = max(r["theorem3_posterior_dev"] for r in reports)
    report(3, worst < 1e-10, f"posterior preservation deviation {worst:.2e}")


def test_criterion_04_soft_bellman_residual(grid_reports):
    reports, _ = grid_reports
    worst = max(r["bellman_residual"] for r in reports)
    report(4, worst < 1e-12, f"soft Bellman residual {worst:.2e}")


def test_criterion_05_reward_backprop_hits_tilted_target(drift_problem, backprop_artifacts):
    _, _, _, cs = drift_problem
    _, samples, elapsed = backprop_artifacts
    mean_t, var_t = cs.tilted_terminal(1.0, 1.0)
    mean_err = abs(samples.mean() - mean_t)
    var_rel = abs(samples.var() - var_t) / var_t
    ok = mean_err < 0.05 and var_rel < 0.10 and elapsed < 600.0
    report(5, ok, f"mean err {mean_err:.4f} (<0.05), var rel err {var_rel:.4f} (<0.10), "
                  f"trained in {elapsed:.0f}s")


def test_criterion_06_value_weighted_sampling_exact_source(drift_problem):
    sched, base, _, cs = drift_problem
    policy = PolicyNet(sched, base=base)  # no trainable parameters at all
    source = AffineValueShift(cs, 1.0, 1.0)
    samples, _ = value_weighted_sample(GuidedPolicy(policy, source, 1.0), make_rng(55), 10000)
    mean_t, var_t = cs.tilted_terminal(1.0, 1.0)
    mean_err = abs(samples.mean() - mean_t)
    var_rel = abs(samples.var() - var_t) / var_t
    ok = mean_err < 0.05 and var_rel < 0.10 and policy.net is None
    report(6, ok, f"mean err {mean_err:.4f} (<0.05), var rel err {var_rel:.4f} (<0.10), "
                  f"zero parameter updates")


def test_criterion_07_estimator_cross_agreement(value_problem, fitted_values):
    sched, base, policy, cs = value_problem
    vm_mc, vm_sq = fitted_values
    xs = np.linspace(-1.5, 1.5, 17).reshape(-1, 1)  # central bulk of every marginal
    steps = range(1, sched.n_steps + 1)
    gap = max(np.abs(vm_mc.value(xs, t) - vm_sq.value(xs, t)).max() for t in steps)

    def exact_err(vm, t):  # against the chain's exact soft value, affine in x
        slope, intercept = cs.value_affine(t, 1.0, 1.0)
        return np.abs(vm.value(xs, t) - (slope * xs[:, 0] + intercept)).max()

    mc_err = max(exact_err(vm_mc, t) for t in steps)
    sq_err = max(exact_err(vm_sq, t) for t in steps)

    tweedie_dev = 0.0
    for t in steps:
        mu, sg = sched.mu_pert[t], sched.sigma_pert[t]
        want = xs * mu / (mu**2 + sg**2)
        tweedie_dev = max(tweedie_dev, np.abs(tweedie_posterior_mean(policy, xs, t) - want).max())

    t_probe = 3
    exact = cs.guided_shift_slope(t_probe, 1.0, 1.0)
    est, _ = path_integral_grad(policy, LinearReward([1.0]), np.array([0.5]), t_probe,
                                1.0, 100000, make_rng(66))
    pi_rel = abs(est[0] - exact) / abs(exact)

    ok = gap < 0.1 and mc_err < 0.1 and sq_err < 0.1 and tweedie_dev < 1e-10 and pi_rel < 0.05
    report(7, ok, f"mc-vs-softq gap {gap:.3f} (<0.1), mc-vs-exact {mc_err:.3f} (<0.1), "
                  f"softq-vs-exact {sq_err:.3f} (<0.1), tweedie dev {tweedie_dev:.1e} (<1e-10), "
                  f"path-integral rel err {pi_rel:.4f} (<0.05)")


def test_criterion_08_pcl_identity_and_contraction(analytic16, pcl_artifacts):
    # Exact identity at the grid optimum.
    mdp = grid_build(analytic16, LinearReward([1.0]), 1.0, -7.0, 7.0, 31, n_steps=4)
    sol = grid_soft_solve(mdp)
    rng = make_rng(12)
    worst = 0.0
    for _ in range(200):
        i = rng.choice(mdp.n_states, p=sol.marginals[2])
        j = rng.choice(mdp.n_states, p=sol.policy[1][i])
        res = (sol.values[2][i] / mdp.alpha + np.log(sol.policy[1][i, j])
               - sol.values[1][j] / mdp.alpha - np.log(mdp.trans[1][i, j]))
        worst = max(worst, abs(res))

    pre, result, cs = pcl_artifacts
    first = np.mean([r.loss for r in result.records[:10]])
    last = np.mean([r.loss for r in result.records[-50:]])
    ratio = first / last

    mean_t, var_t = cs.tilted_terminal(1.0, 1.0)
    rng = make_rng(77)
    target = mean_t + np.sqrt(var_t) * rng.standard_normal((8000, 1))
    tuned = sample_trajectory(result.policy, make_rng(78), 8000).terminal
    base_samples = sample_trajectory(pre, make_rng(78), 8000).terminal
    e_tuned = energy_dist(tuned, target)
    e_pre = energy_dist(base_samples, target)

    ok = worst < 1e-10 and ratio >= 100.0 and e_tuned < e_pre
    report(8, ok, f"grid residual {worst:.1e} (<1e-10), msr contraction {ratio:.0f}x (>=100x), "
                  f"energy to target {e_tuned:.3f} < pre-trained {e_pre:.3f}")


def test_criterion_09_reduction_checks(residual16, analytic16):
    lr = 3e-6
    cfg = FineTuneConfig("weighted-mle", alpha=1.0, batch=32, iterations=50, lr=lr, seed=3)
    mle = run_finetune(residual16, LinearReward([0.0]), cfg)
    drift_mle = param_distance(mle.policy.params, residual16.params)
    floor = lr * np.sqrt(50) * np.sqrt(expected_param_count(residual16.net.widths))

    cfg = FineTuneConfig("ppo", alpha=1.0, batch=32, iterations=50, lr=1e-2, seed=5)
    ppo = run_finetune(residual16, LinearReward([0.0]), cfg)
    drift_ppo = param_distance(ppo.policy.params, residual16.params)

    traj = sample_trajectory(residual16, make_rng(31), n=32)
    signals, *_ = ppo_signals(traj, analytic16, LinearReward([1.0]), alpha=0.5)
    clipped = ppo_surrogate_value(residual16, traj, signals, clip=0.2, clipped=True)
    plain = ppo_surrogate_value(residual16, traj, signals, clip=0.2, clipped=False)

    ok = drift_mle < 1e-3 and drift_mle < 3 * floor and drift_ppo == 0.0 and clipped == plain
    report(9, ok, f"weighted-MLE drift {drift_mle:.2e} (<1e-3, noise floor {floor:.2e}), "
                  f"PPO r=0 drift {drift_ppo} (exact 0), in-band surrogate equality exact")


def test_criterion_10_autodiff_vs_finite_differences():
    worst = 0.0
    for seed in range(120):
        worst = max(worst, finite_diff_check(seed))
    report(10, worst < 1e-5, f"max relative error {worst:.2e} over 120 randomized graphs (<1e-5)")


def test_criterion_11_conditional_generation(two_modes):
    policy = PolicyNet(make_schedule(64, 8.0), base=two_modes)
    source = MixturePosteriorShift(two_modes, policy.schedule, 1, 1.0)
    samples, _ = value_weighted_sample(GuidedPolicy(policy, source, 1.0), make_rng(44), 10000)
    frac = float((samples[:, 0] > 0).mean())

    s = make_schedule(4, 1.0)
    from tiltlab.rewards import ClassifierReward

    grid_policy = PolicyNet(s, base=two_modes)
    mdp = grid_build(grid_policy, ClassifierReward(two_modes, 1), 1.0, -9.0, 9.0, 61)
    sol = grid_soft_solve(mdp)
    post = two_modes.responsibilities(mdp.grid.reshape(-1, 1))[:, 1]
    bayes = post * sol.pre_marginals[0]
    bayes /= bayes.sum()
    bayes_dev = float(np.abs(sol.terminal - bayes).max())

    ok = frac >= 0.95 and bayes_dev < 1e-10
    report(11, ok, f"correct-side fraction {frac:.4f} (>=0.95), "
                   f"grid Bayes-posterior deviation {bayes_dev:.1e} (<1e-10)")


def test_criterion_12_mala_cross_check(backprop_artifacts):
    _, tuned_samples, _ = backprop_artifacts
    target = tilted_gaussian_target(0.0, 1.0, 1.0, 1.0)  # N(1, 1)
    res = mala_sample(
        lambda x: float(target.log_density(x)[0]),
        lambda x: -(x - target.mean) / target.var,
        n=10000, step=0.5, rng=make_rng(88),
    )
    w1 = wasserstein1(tuned_samples, res.samples)
    report(12, w1 < 0.07, f"W1(fine-tuned, MALA-on-tilted) = {w1:.4f} (<0.07) at 1e4 per side")


def test_criterion_13_determinism(tmp_path):
    configs = [
        {
            "kind": "finetune", "seed": 5,
            "base": {"kind": "normal"}, "schedule": {"steps": 8, "horizon": 3.0},
            "policy": {"kind": "residual", "hidden": [8]},
            "reward": {"kind": "linear", "a": [1.0]},
            "finetune": {"algorithm": "ppo", "alpha": 0.5, "batch": 16,
                         "iterations": 4, "lr": 0.003},
            "eval_samples": 300,
        },
        {"kind": "oracle", "seed": 5, "oracle": {"check": "two-state", "alpha": 1.0, "steps": 2}},
        {
            "kind": "oracle", "seed": 5,
            "oracle": {"check": "mala", "alpha": 1.0, "mean": 0.0, "var": 1.0,
                       "slope": 1.0, "samples": 2000, "step": 0.5},
        },
    ]
    identical = True
    for i, cfg in enumerate(configs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert run_experiment(cfg, a) == 0
        assert run_experiment(cfg, b) == 0
        va = [(r["metric"], r["value"], r["n"]) for r in read_jsonl(a / "metrics.jsonl")]
        vb = [(r["metric"], r["value"], r["n"]) for r in read_jsonl(b / "metrics.jsonl")]
        identical = identical and va == vb
    report(13, identical, "re-running each config with its seed reproduces every metric value")

"""Conditional generation: a classifier reward log p(label | x) at alpha = 1,
sampled by posterior guidance or trained by a fine-tuning algorithm."""

import numpy as np
import pytest

from tiltlab.diffusion import PolicyNet, make_schedule, sample_trajectory
from tiltlab.guidance import GuidedPolicy, MixturePosteriorShift, value_weighted_sample
from tiltlab.harness import read_jsonl, read_samples_csv, run_experiment
from tiltlab.oracle import grid_build, grid_soft_solve, verify_theorems
from tiltlab.rewards import ClassifierReward
from tiltlab.streams import make_rng


def posterior_samples(policy, label, rng, n):
    """Value-weighted sampling with the exact noisy-label posterior shift."""
    source = MixturePosteriorShift(policy.base, policy.schedule, label, 1.0)
    return value_weighted_sample(GuidedPolicy(policy, source, 1.0), rng, n)[0]


@pytest.fixture(scope="module")
def mixture_policy(two_modes):
    return PolicyNet(make_schedule(64, 8.0), base=two_modes)


def test_right_component_dominates(mixture_policy):
    samples = posterior_samples(mixture_policy, 1, make_rng(1), 10000)
    assert (samples[:, 0] > 0).mean() >= 0.95
    assert abs(samples[:, 0].mean() - 3.0) < 0.1


def test_left_component_by_symmetry(mixture_policy):
    samples = posterior_samples(mixture_policy, 0, make_rng(2), 10000)
    assert (samples[:, 0] < 0).mean() >= 0.95
    assert abs(samples[:, 0].mean() + 3.0) < 0.1


def test_single_component_matches_unconditional(std_base):
    policy = PolicyNet(make_schedule(32, 6.0), base=std_base)
    cond = posterior_samples(policy, 0, make_rng(3), 512)
    plain = sample_trajectory(policy, make_rng(3), 512).terminal
    assert np.array_equal(cond, plain)


def test_grid_oracle_reproduces_bayes_posterior(two_modes):
    # Soft-solving with r = log p(y|x) at alpha = 1 must reproduce the
    # discretized Bayes posterior exactly.
    s = make_schedule(4, 1.0)
    policy = PolicyNet(s, base=two_modes)
    label = 1
    mdp = grid_build(policy, ClassifierReward(two_modes, label), 1.0, -9.0, 9.0, 61)
    sol = grid_soft_solve(mdp)
    rep = verify_theorems(sol)
    assert rep["theorem1_terminal_dev"] < 1e-10

    post = two_modes.responsibilities(mdp.grid.reshape(-1, 1))[:, label]
    bayes = post * sol.pre_marginals[0]
    bayes /= bayes.sum()
    assert np.abs(sol.terminal - bayes).max() < 1e-10


def classifier_run(kind, base, label, **sections):
    return {"kind": kind, "seed": 5, "base": base, "schedule": {"steps": 16, "horizon": 6.0},
            "policy": {"kind": "analytic"}, "reward": {"kind": "classifier", "label": label}, **sections}


def test_degenerate_label_rejected(tmp_path, capsys):
    # Both components sit at 0, so label 1's posterior is its prior weight, 1e-9.
    lump = {"kind": "mixture", "weights": [1.0 - 1e-9, 1e-9], "means": [[0.0], [0.0]],
            "stds": [1.0, 1.0]}
    for kind, section in (("guide", {"guide": {"estimator": "posterior", "samples": 100}}),
                          ("finetune", {"finetune": {"algorithm": "ppo", "iterations": 1}})):
        out = tmp_path / kind
        assert run_experiment(classifier_run(kind, lump, 1, **section), out) == 2
        assert "reward: label 1 has posterior mass below 1e-6" in capsys.readouterr().err
        assert not out.exists()


def test_finetune_route_runs(tmp_path, two_modes):
    base = {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-3.0], [3.0]], "stds": [1.0, 1.0]}
    cfg = classifier_run("finetune", base, 1, eval_samples=256, finetune={
        "algorithm": "ppo", "alpha": 1.0, "batch": 16, "iterations": 3, "lr": 1e-3})
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 0
    samples = read_samples_csv(out / "samples.csv")
    assert samples.shape == (256, 1)
    assert len(read_jsonl(out / "train_log.jsonl")) == 3
    # A classifier reward's run reports how well the samples hit the label.
    metrics = {r["metric"]: r["value"] for r in read_jsonl(out / "metrics.jsonl")}
    side = np.mean(two_modes.responsibilities(samples).argmax(axis=1) == 1)
    assert metrics["fraction_correct_side"] == side
    assert metrics["mean_gap_to_component"] == pytest.approx(abs(samples.mean() - 3.0), rel=1e-12)

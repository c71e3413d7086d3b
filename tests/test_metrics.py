import json

import numpy as np
import pytest

from tiltlab.errors import ContractError, NumericError
from tiltlab.harness import (
    append_metrics,
    energy_dist,
    eval_metrics,
    make_records,
    read_jsonl,
    wasserstein1,
)
from tiltlab.oracle import tilted_gaussian_target
from tiltlab.rewards import LinearReward
from tiltlab.streams import make_rng


def test_identical_sample_sets_give_zero():
    x = make_rng(1).standard_normal((500, 1))
    assert wasserstein1(x, x) == 0.0
    assert energy_dist(x, x) == 0.0


def test_shuffled_samples_give_zero():
    rng = make_rng(2)
    x = rng.standard_normal((400, 1))
    y = x[rng.permutation(400)]
    assert wasserstein1(x, y) < 1e-12
    assert energy_dist(x, y) < 1e-12


def test_w1_between_shifted_gaussians():
    # Exact quantile W1 between N(0,1) and N(1,1) is 1.
    rng = make_rng(3)
    a = rng.standard_normal((10000, 1))
    b = rng.standard_normal((10000, 1)) + 1.0
    assert abs(wasserstein1(a, b) - 1.0) < 0.05


def test_dimension_mismatch_rejected():
    with pytest.raises(ContractError):
        energy_dist(np.zeros((200, 1)), np.zeros((200, 2)))
    with pytest.raises(ContractError):
        eval_metrics(np.zeros((200, 1)), np.zeros((200, 2)))


def test_minimum_sample_count():
    with pytest.raises(ContractError):
        eval_metrics(np.zeros((50, 1)), np.zeros((200, 1)))
    with pytest.raises(ContractError):
        eval_metrics(np.zeros((200, 1)), np.zeros((50, 1)))


def test_metrics_against_analytic_reference():
    rng = make_rng(4)
    target = tilted_gaussian_target(0.0, 1.0, 1.0, 1.0)  # N(1, 1)
    samples = target.sample(rng, 20000)
    out = eval_metrics(samples, target, reward_spec=LinearReward([1.0]), rng=make_rng(5))
    assert out["mean_gap"] < 0.03
    assert out["var_gap"] < 0.05
    assert out["w1"] < 0.03
    assert abs(out["mean_reward"] - 1.0) < 0.03


def test_multidimensional_energy_distance():
    rng = make_rng(6)
    a = rng.standard_normal((600, 2))
    b = rng.standard_normal((600, 2)) + np.array([1.5, 0.0])
    assert energy_dist(a, a[rng.permutation(600)]) < 1e-12
    assert energy_dist(a, b) > 0.3


def test_metric_records_are_strict_jsonl(tmp_path):
    recs = make_records("run-x", {"w1": 0.25, "mean_gap": 0.1, "n": 100.0})
    path = tmp_path / "metrics.jsonl"
    append_metrics(path, recs)
    append_metrics(path, make_records("run-x", {"extra": 1.0}, n=7))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        obj = json.loads(line)  # strict parser
        assert set(obj) == {"run_id", "metric", "value", "n", "ts"}
    back = read_jsonl(path)
    assert back[0]["metric"] == "mean_gap"  # sorted within a batch
    assert back[-1]["n"] == 7


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_metric_writer_refuses_non_finite_values(tmp_path, bad):
    path = tmp_path / "metrics.jsonl"
    with pytest.raises(NumericError, match=r"metrics\.jsonl: non-finite value=.*metric='w1'"):
        append_metrics(path, make_records("run-x", {"mean_gap": 0.1, "w1": bad}))
    assert path.read_text() == ""  # nothing of the batch is written

import json
import warnings

import numpy as np
import pytest
import yaml

from tiltlab.harness import (
    emit_plotdata,
    main,
    read_metrics,
    read_samples_csv,
    run_experiment,
    write_samples_csv,
)
from tiltlab.oracle import tilted_gaussian_target
from tiltlab.rewards import FeedbackDataset
from tiltlab.streams import make_rng


def tiny_finetune_cfg(out=None, seed=0):
    return {
        "kind": "finetune",
        "seed": seed,
        "base": {"kind": "normal", "mean": 0.0, "std": 1.0},
        "schedule": {"steps": 8, "horizon": 3.0},
        "policy": {"kind": "residual", "hidden": [8]},
        "reward": {"kind": "linear", "a": [1.0]},
        "finetune": {"algorithm": "backprop", "alpha": 1.0, "batch": 16,
                     "iterations": 5, "lr": 0.003},
        "eval_samples": 400,
        "dump_trajectories": 3,
        "checkpoint_every": 2,
    }


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


# -- validation ------------------------------------------------------------


def test_unknown_kind_rejected(tmp_path):
    assert run_experiment({"kind": "fly"}, tmp_path / "r") == 2


def test_capability_clash_named(tmp_path, capsys):
    cfg = tiny_finetune_cfg()
    cfg["reward"] = {"kind": "blackbox", "name": "threshold"}
    code = run_experiment(cfg, tmp_path / "r")
    err = capsys.readouterr().err
    assert code == 2
    assert "differentiable" in err and "black box" in err
    assert not (tmp_path / "r").exists()  # rejected before any computation


def test_alpha_zero_for_distribution_constrained(tmp_path, capsys):
    cfg = tiny_finetune_cfg()
    cfg["finetune"]["algorithm"] = "weighted-mle"
    cfg["finetune"]["alpha"] = 0.0
    assert run_experiment(cfg, tmp_path / "r") == 2
    assert "alpha" in capsys.readouterr().err


def test_first_violated_constraint_is_named(tmp_path, capsys):
    cfg = tiny_finetune_cfg()
    cfg["schedule"]["steps"] = 0
    run_experiment(cfg, tmp_path / "r")
    assert "schedule.steps" in capsys.readouterr().err


def _malformed_configs(tmp_path):
    """Each case: (section the error must name, config)."""
    def finetune(**sections):
        cfg = tiny_finetune_cfg()
        cfg["schedule"]["steps"] = 4
        return {**cfg, **sections}

    def guide(estimator, **sections):
        cfg = {"kind": "guide", "seed": 0, "base": {"kind": "normal"},
               "schedule": {"steps": 4, "horizon": 2.0}, "policy": {"kind": "analytic"},
               "reward": {"kind": "linear", "a": [1.0]}, **sections}
        cfg["guide"] = {"estimator": estimator, "samples": 10, **cfg.get("guide", {})}
        return cfg

    mixture = {"kind": "mixture", "weights": [0.5, 0.5], "stds": [1.0, 1.0]}
    return {
        "mixture-without-means": ("base", finetune(base=mixture)),
        "ragged-means": ("base", finetune(base={**mixture, "means": [[1.0], [2.0, 3.0]]})),
        "reward-wider-than-base": ("reward", finetune(reward={"kind": "linear", "a": [1.0, 2.0]})),
        "steps-not-a-number": ("schedule.steps", finetune(schedule={"steps": "x", "horizon": 3.0})),
        "rollin-switch-above-steps": ("finetune.rollin", finetune(
            finetune={"algorithm": "pcl", "rollin": "mixture:9", "iterations": 1})),
        "affine-quadratic-reward": ("guide", guide("affine", reward={"kind": "quadratic", "A": [[1.0]]})),
        "affine-mixture-base": ("guide", guide("affine", base={**mixture, "means": [[-1.0], [1.0]]})),
        "path-integral-few-rollouts": ("guide.rollouts", guide("path-integral", guide={"rollouts": 10})),
        "posterior-label-outside-base": ("guide.label", guide("posterior", guide={"label": 3})),
        "conditional-finetune-without-section": ("finetune", {
            "kind": "conditional", "seed": 0, "base": {**mixture, "means": [[-3.0], [3.0]]},
            "schedule": {"steps": 4, "horizon": 2.0}, "policy": {"kind": "analytic"},
            "conditional": {"label": 1, "samples": 10, "method": "ppo"}}),
        "eval-missing-samples": ("eval.samples_a", {
            "kind": "eval", "eval": {"samples_a": str(tmp_path / "missing.csv"), "reference": {}}}),
    }


@pytest.mark.parametrize("case", [
    "mixture-without-means", "ragged-means", "reward-wider-than-base", "steps-not-a-number",
    "rollin-switch-above-steps", "affine-quadratic-reward", "affine-mixture-base",
    "path-integral-few-rollouts", "posterior-label-outside-base",
    "conditional-finetune-without-section", "eval-missing-samples",
])
def test_malformed_config_rejected_before_run_dir(tmp_path, capsys, case):
    section, cfg = _malformed_configs(tmp_path)[case]
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 2
    assert section in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_exit_code(tmp_path):
    cfg = tiny_finetune_cfg()
    cfg["reward"]["a"] = [1e8]  # trips the reward bound guard at runtime
    assert run_experiment(cfg, tmp_path / "r") == 3


# -- runs --------------------------------------------------------------------


def test_two_state_oracle_run(tmp_path):
    cfg = {"kind": "oracle", "seed": 0, "oracle": {"check": "two-state", "alpha": 1.0, "steps": 1}}
    out = tmp_path / "oracle"
    assert run_experiment(cfg, out) == 0
    report = json.loads((out / "oracle_report.jsonl").read_text())
    for key in ("theorem1_terminal_dev", "theorem2_marginal_dev", "theorem3_posterior_dev"):
        assert report[key] < 1e-10


def test_finetune_run_artifacts_and_determinism(tmp_path):
    cfg = tiny_finetune_cfg()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg, out_a) == 0
    assert run_experiment(cfg, out_b) == 0

    for out in (out_a, out_b):
        assert (out / "checkpoint_final.txt").exists()
        assert (out / "checkpoint_000002.txt").exists()
        assert (out / "trajectories.csv").exists()

    # metric values identical apart from the timestamp and run-identity columns
    drop = ("ts", "run_id")
    ma = [{k: v for k, v in r.items() if k not in drop} for r in read_metrics(out_a / "metrics.jsonl")]
    mb = [{k: v for k, v in r.items() if k not in drop} for r in read_metrics(out_b / "metrics.jsonl")]
    assert ma == mb
    # sample dumps byte-identical
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    # train logs identical apart from wall time
    la = [json.loads(l) for l in (out_a / "train_log.jsonl").read_text().splitlines()]
    lb = [json.loads(l) for l in (out_b / "train_log.jsonl").read_text().splitlines()]
    for ra, rb in zip(la, lb):
        ra.pop("wall_time"), rb.pop("wall_time")
        assert ra == rb


def test_trajectory_dump_schema(tmp_path):
    cfg = tiny_finetune_cfg()
    out = tmp_path / "r"
    run_experiment(cfg, out)
    header = (out / "trajectories.csv").read_text().splitlines()[0]
    assert header == "run_id,traj_id,t,x0,log_density"


def test_pretrain_run(tmp_path):
    cfg = {
        "kind": "pretrain",
        "seed": 1,
        "base": {"kind": "normal"},
        "schedule": {"steps": 8, "horizon": 3.0},
        "pretrain": {"hidden": [8], "steps": 50, "batch": 32, "lr": 0.01},
    }
    out = tmp_path / "p"
    assert run_experiment(cfg, out) == 0
    assert (out / "denoiser.txt").exists()
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 50


def test_guide_run_zero_estimator(tmp_path):
    cfg = {
        "kind": "guide",
        "seed": 0,
        "base": {"kind": "normal"},
        "schedule": {"steps": 8, "horizon": 3.0},
        "policy": {"kind": "analytic"},
        "reward": {"kind": "linear", "a": [1.0]},
        "guide": {"estimator": "zero", "samples": 300},
    }
    out = tmp_path / "g"
    assert run_experiment(cfg, out) == 0
    assert read_samples_csv(out / "samples.csv").shape == (300, 1)
    diag = json.loads((out / "diagnostics.jsonl").read_text())
    assert diag["max_shift_norm"] == 0.0


def test_conditional_run_two_dim_counts_label_component(tmp_path):
    cfg = {
        "kind": "conditional",
        "seed": 0,
        "base": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-3.0, -1.0], [3.0, 1.0]],
                 "stds": [1.0, 1.0]},
        "schedule": {"steps": 32, "horizon": 6.0},
        "policy": {"kind": "analytic"},
        "conditional": {"label": 0, "samples": 400, "method": "value-weighted"},
    }
    out = tmp_path / "c"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_metrics(out / "metrics.jsonl")}
    assert metrics["fraction_correct_side"] > 0.9
    # The gap covers both coordinates of the label's component mean.
    samples = read_samples_csv(out / "samples.csv")
    gap = np.linalg.norm(samples.mean(axis=0) - np.array([-3.0, -1.0]))
    assert metrics["mean_gap_to_component"] == pytest.approx(gap, rel=1e-12)
    assert "sample_mean" not in metrics and "target_component_mean" not in metrics


def test_finetune_log_closed_when_training_fails(tmp_path, monkeypatch, capsys):
    import gc

    from tiltlab.errors import NumericError
    from tiltlab.finetune import TrainLogRecord
    from tiltlab.harness import runner

    def failing_finetune(pre, reward, cfg, callback=None):
        callback(0, pre, TrainLogRecord(0, 1.0, 0.0, 0.5, 0.1, 0.0))
        raise NumericError("injected failure after one record")

    monkeypatch.setattr(runner, "run_finetune", failing_finetune)
    out = tmp_path / "r"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_experiment(tiny_finetune_cfg(), out) == 3
        gc.collect()
    assert "injected failure after one record" in capsys.readouterr().err
    lines = (out / "train_log.jsonl").read_text().splitlines()
    assert [json.loads(l)["iteration"] for l in lines] == [0]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_csv_loaders_close_their_files(tmp_path):
    write_samples_csv(tmp_path / "samples.csv", np.zeros((3, 2)))
    FeedbackDataset(np.zeros((3, 1)), np.zeros(3)).save_csv(tmp_path / "feedback.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_samples_csv(tmp_path / "samples.csv")
        FeedbackDataset.load_csv(tmp_path / "feedback.csv")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_eval_run_between_sample_files(tmp_path):
    rng = make_rng(7)
    from tiltlab.harness import write_samples_csv

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(a, rng.standard_normal((500, 1)))
    write_samples_csv(b, rng.standard_normal((500, 1)) + 1.0)
    cfg = {"kind": "eval", "seed": 0, "eval": {"samples_a": str(a), "samples_b": str(b)}}
    out = tmp_path / "e"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_metrics(out / "metrics.jsonl")}
    assert abs(metrics["w1"] - 1.0) < 0.15


def test_sweep_run(tmp_path):
    sub = {
        "kind": "oracle",
        "seed": 0,
        "oracle": {"check": "two-state", "alpha": 1.0, "steps": 1},
    }
    cfg = {"kind": "sweep", "seed": 0, "runs": [dict(sub, name="one"), dict(sub, name="two")]}
    out = tmp_path / "s"
    assert run_experiment(cfg, out) == 0
    assert (out / "one" / "oracle_report.jsonl").exists()
    assert (out / "two" / "oracle_report.jsonl").exists()


# -- plotdata ---------------------------------------------------------------


def test_plotdata_emission(tmp_path):
    cfg = tiny_finetune_cfg()
    out = tmp_path / "r"
    run_experiment(cfg, out)
    written = emit_plotdata(out)
    names = {p.name for p in written}
    assert {"training_curves.csv", "histogram.csv", "metrics_tidy.csv"} <= names

    curves = (out / "plotdata" / "training_curves.csv").read_text().splitlines()
    assert len(curves) - 1 == cfg["finetune"]["iterations"]

    hist = (out / "plotdata" / "histogram.csv").read_text().splitlines()
    rows = [line.split(",") for line in hist[1:]]
    density_integral = sum(float(r[1]) * float(r[2]) for r in rows)
    assert abs(density_integral - 1.0) < 1e-6

    target = tilted_gaussian_target(0.0, 1.0, 1.0, 1.0)
    for r in rows:
        want = float(target.density(np.array([[float(r[0])]]))[0])
        assert abs(float(r[3]) - want) < 1e-10


def test_plotdata_empty_dir_warns(tmp_path):
    with pytest.warns(UserWarning):
        emit_plotdata(tmp_path / "nothing")


# -- CLI ---------------------------------------------------------------------


def test_cli_round_trip(tmp_path):
    cfg_path = write_cfg(tmp_path, {"kind": "oracle", "seed": 0,
                                    "oracle": {"check": "two-state", "alpha": 1.0, "steps": 1}})
    out = tmp_path / "cli_run"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["plotdata", "--out", str(out)]) == 0


def test_cli_kind_mismatch(tmp_path):
    cfg_path = write_cfg(tmp_path, tiny_finetune_cfg())
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


def test_cli_seed_override_changes_samples(tmp_path):
    cfg_path = write_cfg(tmp_path, tiny_finetune_cfg())
    a, b = tmp_path / "s0", tmp_path / "s1"
    assert main(["finetune", "--config", str(cfg_path), "--out", str(a), "--seed", "0"]) == 0
    assert main(["finetune", "--config", str(cfg_path), "--out", str(b), "--seed", "1"]) == 0
    assert (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes()


def test_cli_missing_out(tmp_path):
    cfg_path = write_cfg(tmp_path, tiny_finetune_cfg())
    assert main(["finetune", "--config", str(cfg_path)]) == 2


def test_two_dim_finetune_reports_gap_to_factorized_target(tmp_path):
    from tiltlab.diffusion import GaussianMixture, make_schedule
    from tiltlab.oracle import chain_stats

    cfg = tiny_finetune_cfg()
    cfg["base"] = {"kind": "normal", "mean": [0.5, -1.0], "std": 1.3}
    cfg["reward"] = {"kind": "linear", "a": [1.0, -0.5]}
    out = tmp_path / "r2"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_metrics(out / "metrics.jsonl")}
    assert "target_mean" not in metrics and "target_var" not in metrics

    # Each coordinate is its own 1-D linear-Gaussian chain.
    sched = make_schedule(8, 3.0)
    mean, var = np.array([
        chain_stats(sched, GaussianMixture.single(m, 1.3)).tilted_terminal(a, 1.0)
        for m, a in [(0.5, 1.0), (-1.0, -0.5)]
    ]).T
    samples = read_samples_csv(out / "samples.csv")
    assert samples.shape == (400, 2)
    assert metrics["mean_gap_to_target"] == pytest.approx(
        np.linalg.norm(samples.mean(axis=0) - mean), rel=1e-12)
    assert metrics["var_gap_to_target"] == pytest.approx(
        np.linalg.norm(samples.var(axis=0) - var), rel=1e-12)

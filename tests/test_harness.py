import csv
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from tiltlab.harness import (
    emit_plotdata,
    main,
    read_jsonl,
    read_samples_csv,
    run_experiment,
    write_samples_csv,
)
from tiltlab.autodiff import evaluate, load_model
from tiltlab.diffusion import GaussianMixture, Trajectory, gaussian_log_density, make_schedule
from tiltlab.harness.config import validate_config
from tiltlab.harness.runner import _solve_and_dump, write_trajectories_csv
from tiltlab.oracle import chain_stats, grid_soft_solve
from tiltlab.errors import ConfigError
from tiltlab.rewards import FeedbackDataset
from tiltlab.runfiles import write_jsonl
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


# Malformed sample files: (the line an error must name, the file's text).
_BAD_SAMPLE_FILES = {
    "non-numeric": (3, "x0\r\n1.0\r\nabc\r\n"),
    "ragged": (3, "x0\r\n1.0\r\n2.0,3.0\r\n"),
    "blank-inner-line": (3, "x0\r\n1.0\r\n\r\n2.0\r\n"),
    "header-only": (2, "x0\r\n"),
    "nan-row": (59, "x0\r\n" + "0.5\r\n" * 57 + "nan\r\n" + "0.5\r\n" * 142),
    "inf-row": (200, "x0\r\n" + "0.5\r\n" * 198 + "-inf\r\n" + "0.5\r\n"),
}


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

    def oracle(check, **keys):
        return {"kind": "oracle", "seed": 0, "oracle": {"check": check, **keys}}

    def classifier(**sections):
        return finetune(base={**mixture, "means": [[-3.0], [3.0]]},
                        reward={"kind": "classifier", "label": 1}, **sections)

    def sweep(*names):
        sub = oracle("two-state", steps=1)
        return {"kind": "sweep", "seed": 0, "runs": [dict(sub, name=n) for n in names]}

    mixture = {"kind": "mixture", "weights": [0.5, 0.5], "stds": [1.0, 1.0]}
    pretrain = {"kind": "pretrain", "seed": 0, "base": {"kind": "normal"},
                "schedule": {"steps": 4, "horizon": 2.0}, "pretrain": {"steps": 5, "batch": 4}}
    grid_oracle = {"kind": "oracle", "seed": 0, "base": {"kind": "normal"},
                   "schedule": {"steps": 3, "horizon": 1.5}, "policy": {"kind": "analytic"},
                   "reward": {"kind": "linear", "a": [1.0]},
                   "oracle": {"check": "grid", "alpha": 1.0, "steps": 3,
                              "grid": {"lo": -7.0, "hi": 7.0, "n": 41}}}
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, np.zeros((100, 1)))
    few = tmp_path / "few.csv"
    write_samples_csv(few, np.zeros((50, 1)))
    bad_files = {}
    for name, (line, body) in _BAD_SAMPLE_FILES.items():
        bad_files[name] = line, tmp_path / f"{name}.csv"
        bad_files[name][1].write_text(body)
    return {
        # Each sample file is read in full before the run: the error names
        # the key, the line and the file.
        **{f"eval-samples-a-{name}": (f"eval.samples_a: line {line} of", {
            "kind": "eval", "eval": {"samples_a": str(path), "reference": {}}})
           for name, (line, path) in bad_files.items()},
        **{f"eval-samples-b-{name}": (f"eval.samples_b: line {line} of", {
            "kind": "eval", "eval": {"samples_a": str(samples), "samples_b": str(path)}})
           for name, (line, path) in bad_files.items()},
        "eval-samples-a-too-few": ("eval.samples_a: need at least 100", {
            "kind": "eval", "eval": {"samples_a": str(few), "reference": {}}}),
        "eval-samples-b-too-few": ("eval.samples_b: need at least 100", {
            "kind": "eval", "eval": {"samples_a": str(samples), "samples_b": str(few)}}),
        "mixture-without-means": ("base", finetune(base=mixture)),
        "ragged-means": ("base", finetune(base={**mixture, "means": [[1.0], [2.0, 3.0]]})),
        "reward-wider-than-base": ("reward", finetune(reward={"kind": "linear", "a": [1.0, 2.0]})),
        "steps-not-a-number": ("schedule.steps", finetune(schedule={"steps": "x", "horizon": 3.0})),
        "rollin-switch-above-steps": ("finetune.rollin", finetune(
            finetune={"algorithm": "pcl", "rollin": "mixture:9", "iterations": 1})),
        "rollin-extra-field": ("finetune.rollin", finetune(
            finetune={"algorithm": "pcl", "rollin": "current:5", "iterations": 1})),
        # A key of the deleted final-step option, split so that a search
        # for the option's name finds no live use of it.
        "final-step-noise-key": ("finetune", finetune(
            finetune={"algorithm": "backprop", "final_step_" "noise": False, "iterations": 1})),
        "affine-quadratic-reward": ("guide", guide("affine", reward={"kind": "quadratic", "A": [[1.0]]})),
        "affine-mixture-base": ("guide", guide("affine", base={**mixture, "means": [[-1.0], [1.0]]})),
        "path-integral-few-rollouts": ("guide.rollouts", guide("path-integral", guide={"rollouts": 10})),
        "posterior-label-outside-base": ("reward", guide(
            "posterior", base={**mixture, "means": [[-3.0], [3.0]]},
            reward={"kind": "classifier", "label": 3})),
        # Posterior guidance takes its label from the classifier reward.
        "posterior-linear-reward": ("guide.estimator", guide("posterior")),
        # Conditional generation is a finetune or guide run with a classifier reward.
        "conditional-kind": ("kind", {
            "kind": "conditional", "seed": 0, "base": {**mixture, "means": [[-3.0], [3.0]]},
            "schedule": {"steps": 4, "horizon": 2.0}, "policy": {"kind": "analytic"},
            "conditional": {"label": 1, "samples": 10}}),
        "conditional-finetune-without-section": ("finetune", {
            key: v for key, v in classifier().items() if key != "finetune"}),
        "conditional-rollin-above-steps": ("finetune.rollin", classifier(
            finetune={"algorithm": "pcl", "rollin": "mixture:9", "iterations": 1})),
        "eval-missing-samples": ("eval.samples_a", {
            "kind": "eval", "eval": {"samples_a": str(tmp_path / "missing.csv"), "reference": {}}}),
        # Every section validate_config reads must be a mapping.
        "guide-not-a-mapping": ("guide", {**guide("mc"), "guide": 5}),
        "oracle-not-a-mapping": ("oracle", {**grid_oracle, "oracle": 5}),
        "oracle-grid-not-a-mapping": ("oracle.grid", {
            **grid_oracle, "oracle": {**grid_oracle["oracle"], "grid": 5}}),
        "eval-not-a-mapping": ("eval", {"kind": "eval", "eval": 5}),
        "eval-reference-not-a-mapping": ("eval.reference", {
            "kind": "eval", "eval": {"samples_a": str(samples), "reference": 5}}),
        # Every key a run kind uses is cast and range-checked before the run.
        "eval-samples-not-a-number": ("eval_samples", finetune(eval_samples="x")),
        "eval-samples-zero": ("eval_samples", finetune(eval_samples=0)),
        "checkpoint-every-not-a-number": ("checkpoint_every", finetune(checkpoint_every="x")),
        "dump-trajectories-negative": ("dump_trajectories", finetune(dump_trajectories=-1)),
        "pretrain-steps-zero": ("pretrain.steps", {**pretrain, "pretrain": {"steps": 0}}),
        "pretrain-lr-not-a-number": ("pretrain.lr", {**pretrain, "pretrain": {"lr": "x"}}),
        "analytic-policy-hidden-not-widths": ("policy.hidden", finetune(
            policy={"kind": "analytic", "hidden": "x"})),
        "value-hidden-not-widths": ("finetune.value_hidden", finetune(
            finetune={"algorithm": "pcl", "iterations": 1, "value_hidden": ["a"]})),
        "lr-final-key": ("finetune", finetune(
            finetune={"algorithm": "backprop", "iterations": 2, "lr_final": 0.001})),
        # The deleted value-step learning rate, split as above.
        "value-lr-key": ("finetune", finetune(
            finetune={"algorithm": "pcl", "iterations": 1, "value_" "lr": 0.001})),
        "guide-samples-not-a-number": ("guide.samples", guide("zero", guide={"samples": "x"})),
        "guide-samples-zero": ("guide.samples", guide("zero", guide={"samples": 0})),
        "guide-fit-steps-not-a-number": ("guide.fit_steps", guide("mc", guide={"fit_steps": "x"})),
        "mala-samples-not-a-number": ("oracle.samples", oracle("mala", samples="x")),
        "mala-step-zero": ("oracle.step", oracle("mala", samples=100, step=0)),
        "tilt-var-not-a-number": ("oracle.var", oracle("tilt", var="x")),
        "two-state-steps-zero": ("oracle.steps", oracle("two-state", steps=0)),
        "two-state-init-not-numbers": ("oracle.init", oracle("two-state", init="x")),
        "grid-steps-not-a-number": ("oracle.steps", {
            **grid_oracle, "oracle": {**grid_oracle["oracle"], "steps": "x"}}),
        "eval-reference-var-not-a-number": ("eval.reference.var", {
            "kind": "eval", "eval": {"samples_a": str(samples), "reference": {"var": "x"}}}),
        # The sample dimension is read from samples_a's header before the run.
        "eval-reference-mean-wrong-dim": ("eval.reference.mean", {
            "kind": "eval", "eval": {"samples_a": str(samples), "reference": {"mean": [0.0, 0.0]}}}),
        "eval-reward-wrong-dim": ("reward", {
            "kind": "eval", "eval": {"samples_a": str(samples), "reference": {}},
            "reward": {"kind": "linear", "a": [1.0, 2.0]}}),
        "sweep-names-repeat": ("runs[1].name", sweep("same", "same")),
        "sweep-name-escapes": ("runs[0].name", sweep("../escaped")),
    }


@pytest.mark.parametrize("case", [
    "mixture-without-means", "ragged-means", "reward-wider-than-base", "steps-not-a-number",
    "rollin-switch-above-steps", "rollin-extra-field", "final-step-noise-key",
    "affine-quadratic-reward", "affine-mixture-base",
    "path-integral-few-rollouts", "posterior-label-outside-base", "posterior-linear-reward",
    "conditional-kind", "conditional-finetune-without-section", "conditional-rollin-above-steps",
    "eval-missing-samples", "guide-not-a-mapping", "oracle-not-a-mapping", "oracle-grid-not-a-mapping",
    "eval-not-a-mapping", "eval-reference-not-a-mapping",
    "eval-samples-not-a-number", "eval-samples-zero", "checkpoint-every-not-a-number",
    "dump-trajectories-negative", "pretrain-steps-zero", "pretrain-lr-not-a-number",
    "analytic-policy-hidden-not-widths", "value-hidden-not-widths", "lr-final-key", "value-lr-key",
    "guide-samples-not-a-number", "guide-samples-zero", "guide-fit-steps-not-a-number",
    "mala-samples-not-a-number", "mala-step-zero", "tilt-var-not-a-number", "two-state-steps-zero",
    "two-state-init-not-numbers", "grid-steps-not-a-number", "eval-reference-var-not-a-number",
    "eval-reference-mean-wrong-dim", "eval-reward-wrong-dim",
    "sweep-names-repeat", "sweep-name-escapes",
    *[f"eval-samples-{key}-{name}" for key in "ab" for name in _BAD_SAMPLE_FILES],
    "eval-samples-a-too-few", "eval-samples-b-too-few",
])
def test_malformed_config_rejected_before_run_dir(tmp_path, capsys, case):
    section, cfg = _malformed_configs(tmp_path)[case]
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 2
    assert section in capsys.readouterr().err
    assert not out.exists()


def test_grid_and_mala_runs_load_no_scipy(tmp_path):
    # scipy serves only the 1-D sample metrics of eval runs: importing the
    # packages and running a grid and a MALA oracle must not load any of it
    # (checked in a fresh interpreter).
    import tiltlab

    src = str(Path(tiltlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    grid = {"kind": "oracle", "seed": 0, "base": {"kind": "normal"},
            "schedule": {"steps": 3, "horizon": 1.5}, "policy": {"kind": "analytic"},
            "reward": {"kind": "linear", "a": [1.0]},
            "oracle": {"check": "grid", "alpha": 1.0, "steps": 3, "grid": {"lo": -7.0, "hi": 7.0, "n": 41}}}
    mala = {"kind": "oracle", "seed": 0, "oracle": {"check": "mala", "alpha": 1.0, "samples": 2000}}
    code = (
        "import json, sys\n"
        "import tiltlab.harness.runner, tiltlab.finetune, tiltlab.guidance, tiltlab.oracle\n"
        "from tiltlab.harness import run_experiment\n"
        "codes = [run_experiment(json.loads(cfg), out) for cfg, out in zip(sys.argv[1::2], sys.argv[2::2])]\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))}))\n"
    )
    argv = [json.dumps(grid), str(tmp_path / "grid"), json.dumps(mala), str(tmp_path / "mala")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}
    report = json.loads((tmp_path / "grid" / "oracle_report.jsonl").read_text())
    assert report["theorem1_terminal_dev"] < 1e-10


def test_numeric_failure_exit_code(tmp_path):
    cfg = tiny_finetune_cfg()
    cfg["reward"]["a"] = [1e8]  # trips the reward bound guard at runtime
    assert run_experiment(cfg, tmp_path / "r") == 3


# -- runs --------------------------------------------------------------------


def test_non_finite_report_value_exits_3_naming_file_and_key(tmp_path, capsys):
    # At alpha = 0.01 exp(v/alpha) overflows on this grid: the absolute
    # figures read inf, which no JSON-lines file takes.
    cfg = {"kind": "oracle", "seed": 0,
           "base": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-2.0], [2.0]], "stds": [1.0, 1.0]},
           "schedule": {"steps": 8, "horizon": 6.0}, "policy": {"kind": "analytic"},
           "reward": {"kind": "linear", "a": [1.0]},
           "oracle": {"check": "grid", "alpha": 0.01, "grid": {"lo": -8.0, "hi": 8.0, "n": 41}}}
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 3
    err = capsys.readouterr().err
    assert "oracle_report.jsonl" in err and "theorem2_constant_spread=inf" in err
    assert "bellman_residual=inf" in err
    for path in out.glob("*.jsonl"):
        assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()


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
    ma = [{k: v for k, v in r.items() if k not in drop} for r in read_jsonl(out_a / "metrics.jsonl")]
    mb = [{k: v for k, v in r.items() if k not in drop} for r in read_jsonl(out_b / "metrics.jsonl")]
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
    # Conditional generation by guidance: a classifier reward and the posterior estimator.
    cfg = {
        "kind": "guide",
        "seed": 0,
        "base": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-3.0, -1.0], [3.0, 1.0]],
                 "stds": [1.0, 1.0]},
        "schedule": {"steps": 32, "horizon": 6.0},
        "policy": {"kind": "analytic"},
        "reward": {"kind": "classifier", "label": 0},
        "guide": {"estimator": "posterior", "samples": 400},
    }
    out = tmp_path / "c"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_jsonl(out / "metrics.jsonl")}
    assert metrics["fraction_correct_side"] > 0.9
    # The gap covers both coordinates of the label's component mean.
    samples = read_samples_csv(out / "samples.csv")
    gap = np.linalg.norm(samples.mean(axis=0) - np.array([-3.0, -1.0]))
    assert metrics["mean_gap_to_component"] == pytest.approx(gap, rel=1e-12)
    assert "sample_mean" not in metrics and "target_component_mean" not in metrics


def test_finetuned_conditional_policy_reads_policy_keys_and_seed():
    # A finetune run with a classifier reward trains the policy, so an analytic
    # policy gets the residual net of policy.hidden and policy.activation,
    # initialised from the run's seed whatever the reward.
    chain = {"base": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-3.0], [3.0]],
                      "stds": [1.0, 1.0]},
             "schedule": {"steps": 4, "horizon": 2.0},
             "policy": {"kind": "analytic", "hidden": [8], "activation": "relu"},
             "reward": {"kind": "classifier", "label": 1}}
    cfg = {"kind": "finetune", "seed": 5, **chain, "finetune": {"algorithm": "ppo", "iterations": 1}}
    net = validate_config(cfg).policy.net
    assert net is not None and net.widths == [3, 8, 1] and net.activation == "relu"
    linear = validate_config({**cfg, "reward": {"kind": "linear", "a": [1.0]}})
    assert all(np.array_equal(net.params[k], v) for k, v in linear.policy.net.params.items())
    other_seed = validate_config({**cfg, "seed": 6}).policy.net
    assert not np.array_equal(other_seed.params["w0"], net.params["w0"])
    guided = {"kind": "guide", "seed": 5, **chain, "guide": {"estimator": "posterior", "samples": 10}}
    assert validate_config(guided).policy.net is None


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
    # The one CSV reader and the one JSON-lines reader, on good and bad files.
    write_samples_csv(tmp_path / "samples.csv", np.zeros((3, 2)))
    FeedbackDataset(np.zeros((3, 1)), np.zeros(3)).save_csv(tmp_path / "feedback.csv")
    with open(tmp_path / "log.jsonl", "w") as fh:
        write_jsonl(fh, [{"iteration": 0, "loss": 0.5}])
    (tmp_path / "bad.csv").write_text("x0\nabc\n")
    (tmp_path / "bad.jsonl").write_text("{}\nNaN\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_samples_csv(tmp_path / "samples.csv")
        FeedbackDataset.load_csv(tmp_path / "feedback.csv")
        assert read_jsonl(tmp_path / "log.jsonl") == [{"iteration": 0, "loss": 0.5}]
        for bad, reader in [("bad.csv", read_samples_csv), ("bad.csv", FeedbackDataset.load_csv),
                            ("bad.jsonl", read_jsonl)]:
            with pytest.raises(ConfigError, match="line 2 of"):
                reader(tmp_path / bad)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _csv_writer_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_grid_dump_matches_csv_writer(tmp_path):
    # The dump joins its lines itself; the bytes are csv.writer's with repr'd floats.
    cfg = {"kind": "oracle", "seed": 0, "base": {"kind": "normal"},
           "schedule": {"steps": 3, "horizon": 1.5}, "policy": {"kind": "analytic"},
           "reward": {"kind": "linear", "a": [1.0]},
           "oracle": {"check": "grid", "alpha": 1.0, "steps": 3, "grid": {"lo": -7.0, "hi": 7.0, "n": 41}}}
    mdp = validate_config(cfg).opts.mdp
    _solve_and_dump(mdp, tmp_path)
    sol = grid_soft_solve(mdp)
    rows = [[t, j, repr(float(mdp.grid[j])), repr(float(sol.values[t, j])), repr(float(sol.marginals[t, j])),
             repr(float(sol.pre_marginals[t, j])), repr(float(sol.constants[t]))]
            for t in range(mdp.n_steps + 1) for j in range(mdp.n_states)]
    header = ["t", "state", "x", "value", "marginal", "pre_marginal", "constant"]
    assert (tmp_path / "solved_grid.csv").read_bytes() == _csv_writer_reference(tmp_path / "ref.csv", header, rows)


def test_sample_and_trajectory_dumps_match_csv_writer(tmp_path):
    rng = make_rng(3)
    samples = rng.standard_normal((5, 2))
    samples[0] = [np.nan, -np.inf]
    samples[1] = [-0.0, 1e-310]
    write_samples_csv(tmp_path / "samples.csv", samples)
    ref = _csv_writer_reference(tmp_path / "ref.csv", ["x0", "x1"],
                                [[repr(float(v)) for v in row] for row in samples])
    assert (tmp_path / "samples.csv").read_bytes() == ref

    traj = Trajectory(rng.standard_normal((4, 3, 2)), rng.standard_normal((3, 3, 2)))
    run_id = 'a,"b'  # a run id csv.writer must quote
    write_trajectories_csv(tmp_path / "traj.csv", run_id, traj, 0.3)
    # x_t's density around the mean it was drawn from; x_T has none
    rows = [[run_id, i, t, *[repr(float(v)) for v in traj.states[t, i]],
             "" if t == 3 else repr(gaussian_log_density(traj.states[t, i], traj.means[t, i], 0.3))]
            for i in range(3) for t in range(3, -1, -1)]
    ref = _csv_writer_reference(tmp_path / "ref.csv", ["run_id", "traj_id", "t", "x0", "x1", "log_density"], rows)
    assert (tmp_path / "traj.csv").read_bytes() == ref


def test_eval_run_between_sample_files(tmp_path):
    rng = make_rng(7)
    from tiltlab.harness import write_samples_csv

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(a, rng.standard_normal((500, 1)))
    write_samples_csv(b, rng.standard_normal((500, 1)) + 1.0)
    cfg = {"kind": "eval", "seed": 0, "eval": {"samples_a": str(a), "samples_b": str(b)}}
    opts = validate_config(cfg).opts  # the samples, read once at validation
    assert opts.samples_a.shape == opts.samples_b.shape == (500, 1)
    out = tmp_path / "e"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_jsonl(out / "metrics.jsonl")}
    assert abs(metrics["w1"] - 1.0) < 0.15
    # With samples_b given, a reference beside it is unused and not validated.
    cfg["eval"]["reference"] = None
    assert run_experiment(cfg, tmp_path / "e2") == 0


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

    # The overlay is the chain-tilted target that metrics.jsonl measures gaps against.
    mean, var = chain_stats(make_schedule(8, 3.0), GaussianMixture.single(0.0, 1.0)).tilted_terminal(1.0, 1.0)
    for r in rows:
        want = np.exp(-(float(r[0]) - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        assert abs(float(r[3]) - want) < 1e-10


def test_plotdata_two_dim_pcl_run(tmp_path):
    # The value slices run along x0 with the other coordinate held at 0.
    cfg = tiny_finetune_cfg()
    cfg["base"] = {"kind": "normal", "mean": [0.0, 0.0], "std": 1.0}
    cfg["reward"] = {"kind": "linear", "a": [1.0, -0.5]}
    cfg["finetune"] = {"algorithm": "pcl", "alpha": 1.0, "batch": 16, "iterations": 2,
                       "lr": 0.003, "value_hidden": [8]}
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 0
    assert main(["plotdata", "--out", str(out)]) == 0
    slices = (out / "plotdata" / "value_slices.csv").read_text().splitlines()
    assert slices[0] == "t,x,value"
    assert len(slices) == 1 + 81 * (cfg["schedule"]["steps"] + 1)
    t, x, value = slices[1 + 81 * 3].split(",")
    point = make_schedule(8, 3.0).net_input(np.array([[float(x), 0.0]]), 3)
    assert (t, x) == ("3", "-4.0")
    assert float(value) == pytest.approx(evaluate(load_model(out / "value_final.txt"), point)[0, 0], rel=1e-12)


def test_plotdata_on_corrupted_samples_exits_2(tmp_path, capsys):
    cfg = {"kind": "oracle", "seed": 0, "oracle": {"check": "mala", "alpha": 1.0, "samples": 200}}
    out = tmp_path / "r"
    assert run_experiment(cfg, out) == 0
    (out / "samples.csv").write_text("x0\r\n0.5\r\nabc\r\n")
    assert main(["plotdata", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3 of" in err and "samples.csv" in err


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


def test_cli_has_no_conditional_subcommand(tmp_path, capsys):
    # Conditional generation runs as `guide` or `finetune` with a classifier reward.
    cfg_path = write_cfg(tmp_path, {"kind": "conditional"})
    with pytest.raises(SystemExit) as exc:
        main(["conditional", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice: 'conditional'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_two_dim_finetune_reports_gap_to_factorized_target(tmp_path):
    cfg = tiny_finetune_cfg()
    cfg["base"] = {"kind": "normal", "mean": [0.5, -1.0], "std": 1.3}
    cfg["reward"] = {"kind": "linear", "a": [1.0, -0.5]}
    out = tmp_path / "r2"
    assert run_experiment(cfg, out) == 0
    metrics = {r["metric"]: r["value"] for r in read_jsonl(out / "metrics.jsonl")}
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

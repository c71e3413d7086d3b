"""Experiment execution: one config in, one artifact directory out.

A run executes from the :class:`~.config.Run` that ``validate_config``
read before its directory exists; nothing here reads the YAML tree
except to keep a copy of it. Each run owns its output directory: the
resolved config copy, JSON-lines metric records, CSV sample/trajectory
dumps, training logs, checkpoints, and oracle reports. Given the same
(config, seed) the artifacts are identical apart from the timestamp
columns.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from ..autodiff import save_model
from ..diffusion import gaussian_log_density, sample_trajectory, train_denoiser
from ..errors import CapabilityError, ConfigError, ContractError, CoverageError, NumericError, ShapeError
from ..finetune import run_finetune
from ..guidance import (
    AffineValueShift, FittedValueShift, GuidedPolicy, MixturePosteriorShift, PathIntegralShift, TweedieShift,
    ZeroShift, fit_value_mc, fit_value_softq, value_weighted_sample,
)
from ..oracle import GridMDP, chain_stats, grid_soft_solve, mala_sample, verify_theorems
from ..rewards import ClassifierReward, eval_reward
from ..runfiles import csv_field, float_cells, sample_header, write_csv, write_jsonl, write_samples_csv
from ..streams import BRANCH_EVAL, BRANCH_FIT, BRANCH_MCMC, BRANCH_PRETRAIN, make_rng
from .config import Run, validate_config
from .metrics import append_metrics, eval_metrics, make_records

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

VALIDATION_ERRORS = (ConfigError, ContractError, CapabilityError, CoverageError, ShapeError, IndexError)


def run_experiment(cfg: dict, out_dir: str | Path) -> int:
    """Read, execute, persist; returns the process exit code."""
    try:
        run = validate_config(cfg)
    except VALIDATION_ERRORS as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _execute(run, Path(out_dir))


def _execute(run: Run, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(yaml.safe_dump(run.tree, sort_keys=True))
    try:
        _RUNS[run.kind](run, out)
    except VALIDATION_ERRORS as exc:
        print(f"run aborted by contract violation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def write_trajectories_csv(path: Path, run_id: str, traj, rev_var: float) -> None:
    """One row per trajectory and step, t from T down to 0; x_T has no log density.
    Each other row's density is that of x_t around the mean it was drawn from."""
    m, T = traj.batch, traj.n_steps
    states = traj.states[::-1].transpose(1, 0, 2)        # (m, T+1, d), t descending
    densities = gaussian_log_density(traj.states[:-1], traj.means, rev_var)
    cells = float_cells(densities[::-1].T)               # m rows of t = T-1 .. 0
    log_density = []
    for i in range(m):
        log_density += ["", *cells[i * T:(i + 1) * T]]
    write_csv(path, ["run_id", "traj_id", "t", *sample_header(traj.dim), "log_density"],
              [[[csv_field(run_id)] * (m * (T + 1)), [str(i) for i in range(m) for _ in range(T + 1)],
                [str(t) for t in range(T, -1, -1)] * m,
                *[float_cells(states[:, :, k]) for k in range(traj.dim)], log_density]])


def _run_pretrain(run: Run, out: Path) -> None:
    o = run.opts
    model, losses = train_denoiser(run.base, run.schedule, make_rng(run.seed, BRANCH_PRETRAIN),
                                   hidden=o.hidden, steps=o.steps, batch=o.batch, lr=o.lr)
    save_model(out / "denoiser.txt", model)
    with open(out / "train_log.jsonl", "w") as fh:
        write_jsonl(fh, [{"iteration": i, "loss": loss} for i, loss in enumerate(losses)])
    tail = float(np.mean(losses[-100:]))
    append_metrics(out / "metrics.jsonl",
                   make_records(out.name, {"final_denoising_loss": tail}, n=len(losses)))


def _run_finetune(run: Run, out: Path) -> None:
    o = run.opts
    with open(out / "train_log.jsonl", "w") as log_fh:
        def callback(i, policy, rec):
            write_jsonl(log_fh, [asdict(rec)])
            if o.checkpoint_every and (i + 1) % o.checkpoint_every == 0:
                save_model(out / f"checkpoint_{i + 1:06d}.txt", policy.net)

        result = run_finetune(run.policy, run.reward, run.finetune, callback=callback)
    save_model(out / "checkpoint_final.txt", result.policy.net)
    if result.value is not None:
        save_model(out / "value_final.txt", result.value)

    traj = sample_trajectory(result.policy, make_rng(run.seed, BRANCH_EVAL), o.eval_samples)
    write_samples_csv(out / "samples.csv", traj.terminal)
    if o.dump_trajectories:
        small = sample_trajectory(result.policy, make_rng(run.seed, BRANCH_EVAL, 1), o.dump_trajectories)
        write_trajectories_csv(out / "trajectories.csv", out.name, small,
                               result.policy.schedule.rev_var)

    metrics = {"mean_reward": float(eval_reward(run.reward, traj.terminal).mean())}
    metrics.update(_target_metrics(run.target, traj.terminal))
    metrics.update(_label_metrics(run.reward, traj.terminal))
    append_metrics(out / "metrics.jsonl", make_records(out.name, metrics, n=o.eval_samples))


def _target_metrics(target: tuple[np.ndarray, np.ndarray] | None, samples: np.ndarray) -> dict:
    """Moment gaps against the run's exact target (:func:`exact_target`) when it exists.

    Gaps are Euclidean norms over coordinates (the ``var_gap`` convention
    of :func:`eval_metrics`); the target itself is reported in 1-D.
    """
    if target is None:
        return {}
    mean, var = target
    out = {
        "mean_gap_to_target": float(np.linalg.norm(samples.mean(axis=0) - mean)),
        "var_gap_to_target": float(np.linalg.norm(samples.var(axis=0) - var)),
    }
    if mean.shape == (1,):
        out.update(target_mean=float(mean[0]), target_var=float(var[0]))
    return out


def _label_metrics(reward, samples: np.ndarray) -> dict:
    """For a classifier reward, the share of samples whose most likely component
    is the label, and the distance of the sample mean from that component's mean."""
    if not isinstance(reward, ClassifierReward):
        return {}
    mix, label = reward.mixture, reward.label
    return {
        "fraction_correct_side": float(np.mean(mix.responsibilities(samples).argmax(axis=1) == label)),
        "mean_gap_to_component": float(np.linalg.norm(samples.mean(axis=0) - mix.means[label])),
    }


def _run_guide(run: Run, out: Path) -> None:
    policy, reward, o = run.policy, run.reward, run.opts
    fit_rng = make_rng(run.seed, BRANCH_FIT)
    if o.estimator == "zero":
        source = ZeroShift(policy.dim)
    elif o.estimator == "mc":
        source = FittedValueShift(fit_value_mc(policy, reward, o.alpha, fit_rng, budget=o.budget,
                                               steps=o.fit_steps, hidden=o.hidden))
    elif o.estimator == "softq":
        source = FittedValueShift(fit_value_softq(policy, reward, o.alpha, fit_rng, n_states=o.n_states,
                                                  inner_draws=o.inner_draws, hidden=o.hidden))
    elif o.estimator == "tweedie":
        source = TweedieShift(policy, reward, o.alpha)
    elif o.estimator == "path-integral":
        source = PathIntegralShift(policy, reward, o.alpha, o.rollouts, fit_rng)
    elif o.estimator == "affine":
        source = AffineValueShift(chain_stats(policy.schedule, run.base), float(reward.a[0]), o.alpha)
    else:  # posterior
        source = MixturePosteriorShift(reward.mixture, policy.schedule, reward.label, o.alpha)

    samples, diag = value_weighted_sample(GuidedPolicy(policy, source, o.alpha),
                                          make_rng(run.seed, BRANCH_EVAL), o.samples)
    write_samples_csv(out / "samples.csv", samples)
    with open(out / "diagnostics.jsonl", "w") as fh:
        write_jsonl(fh, [{"estimator": o.estimator, **diag}])
    metrics = {"mean_reward": float(eval_reward(reward, samples).mean()),
               "max_shift_norm": diag["max_shift_norm"]}
    metrics.update(_target_metrics(run.target, samples))
    metrics.update(_label_metrics(reward, samples))
    append_metrics(out / "metrics.jsonl", make_records(out.name, metrics, n=o.samples))


def _run_oracle(run: Run, out: Path) -> None:
    o = run.opts
    if o.check in ("two-state", "grid"):
        report = _solve_and_dump(o.mdp, out)
    elif o.check == "tilt":
        report = {"tilted_mean": float(o.tilt.mean[0]), "tilted_var": o.tilt.var}
    else:  # mala
        target = o.tilt
        res = mala_sample(
            lambda x: float(target.log_density(x)[0]),
            lambda x: -(x - target.mean) / target.var,
            n=o.samples,
            step=o.step,
            rng=make_rng(run.seed, BRANCH_MCMC),
            dim=target.dim,
        )
        write_samples_csv(out / "samples.csv", res.samples)
        report = {
            "acceptance_rate": res.acceptance_rate,
            "sample_mean": float(res.samples.mean()),
            "sample_var": float(res.samples.var()),
            "target_mean": float(target.mean[0]),
            "target_var": target.var,
        }
    with open(out / "oracle_report.jsonl", "w") as fh:
        write_jsonl(fh, [{"check": o.check, **report}])
    append_metrics(out / "metrics.jsonl", make_records(out.name, report, n=0))


def _solve_and_dump(mdp: GridMDP, out: Path) -> dict:
    sol = grid_soft_solve(mdp)
    report = verify_theorems(sol)
    n = mdp.n_states
    states, xs = [str(j) for j in range(n)], float_cells(mdp.grid)
    # One block of rows per step, so the text never holds the whole grid.
    write_csv(out / "solved_grid.csv", ["t", "state", "x", "value", "marginal", "pre_marginal", "constant"],
              ([[str(t)] * n, states, xs, float_cells(sol.values[t]), float_cells(sol.marginals[t]),
                float_cells(sol.pre_marginals[t]), [constant] * n]
               for t, constant in enumerate(float_cells(sol.constants))))
    return report


def _run_eval(run: Run, out: Path) -> None:
    o = run.opts
    metrics = eval_metrics(o.samples_a, o.reference if o.samples_b is None else o.samples_b,
                           reward_spec=run.reward, rng=make_rng(run.seed, BRANCH_EVAL))
    append_metrics(out / "metrics.jsonl", make_records(out.name, metrics))


def _run_sweep(run: Run, out: Path) -> None:
    summary = [{"name": name, "exit_code": _execute(sub, out / name)} for name, sub in run.runs]
    with open(out / "sweep_summary.jsonl", "w") as fh:
        write_jsonl(fh, summary)
    failed = [s for s in summary if s["exit_code"]]
    if failed:
        raise ConfigError(f"sweep sub-runs failed: {failed}")


_RUNS = {"pretrain": _run_pretrain, "finetune": _run_finetune, "guide": _run_guide,
         "oracle": _run_oracle, "eval": _run_eval, "sweep": _run_sweep}

"""Experiment execution: one config in, one artifact directory out.

Each run owns its output directory: the resolved config copy, JSON-lines
metric records, CSV sample/trajectory dumps, training logs, checkpoints,
and oracle reports. Given the same (config, seed) the artifacts are
identical apart from the timestamp columns.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from ..autodiff import save_model
from ..diffusion import GaussianMixture, sample_trajectory, train_denoiser
from ..errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    CoverageError,
    NumericError,
    ShapeError,
)
from ..finetune import run_finetune
from ..guidance import (
    GuidedPolicy,
    MixturePosteriorShift,
    PathIntegralShift,
    TweedieShift,
    ZeroShift,
    FittedValueShift,
    affine_shift_from_chain,
    conditional_generate,
    fit_value_mc,
    fit_value_softq,
    value_weighted_sample,
)
from ..oracle import GridMDP, chain_stats, grid_build, grid_soft_solve, mala_sample, tilted_gaussian_target, verify_theorems
from ..rewards import LinearReward, eval_reward
from ..streams import BRANCH_EVAL, BRANCH_FIT, BRANCH_INIT, BRANCH_MCMC, BRANCH_PRETRAIN, make_rng
from . import config as cfgmod
from .metrics import append_metrics, eval_metrics, make_records

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

VALIDATION_ERRORS = (ConfigError, ContractError, CapabilityError, CoverageError, ShapeError, IndexError)


def run_experiment(cfg: dict, out_dir: str | Path) -> int:
    """Validate, execute, persist; returns the process exit code."""
    out = Path(out_dir)
    try:
        cfgmod.validate_config(cfg)
    except VALIDATION_ERRORS as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(yaml.safe_dump(cfg, sort_keys=True))
    try:
        _dispatch(cfg, out)
    except VALIDATION_ERRORS as exc:
        print(f"run aborted by contract violation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _dispatch(cfg: dict, out: Path) -> None:
    kind = cfg["kind"]
    if kind == "pretrain":
        _run_pretrain(cfg, out)
    elif kind == "finetune":
        _run_finetune(cfg, out)
    elif kind == "guide":
        _run_guide(cfg, out)
    elif kind == "oracle":
        _run_oracle(cfg, out)
    elif kind == "conditional":
        _run_conditional(cfg, out)
    elif kind == "eval":
        _run_eval(cfg, out)
    elif kind == "sweep":
        _run_sweep(cfg, out)


def _run_id(out: Path) -> str:
    return out.name


def write_samples_csv(path: Path, samples: np.ndarray) -> None:
    samples = np.atleast_2d(samples)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(samples.shape[1])])
        for row in samples:
            w.writerow([repr(float(v)) for v in row])


def read_samples_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def write_trajectories_csv(path: Path, run_id: str, traj) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "traj_id", "t", *[f"x{i}" for i in range(traj.dim)], "log_density"])
        for i in range(traj.batch):
            for t in range(traj.n_steps, -1, -1):
                lp = "" if t == traj.n_steps else repr(float(traj.log_probs[t, i]))
                w.writerow([run_id, i, t, *[repr(float(v)) for v in traj.states[t, i]], lp])


def _run_pretrain(cfg: dict, out: Path) -> None:
    seed = cfg.get("seed", 0)
    base = cfgmod.build_base(cfg)
    schedule = cfgmod.build_schedule(cfg)
    p = cfg.get("pretrain", {})
    model, losses = train_denoiser(
        base, schedule, make_rng(seed, BRANCH_PRETRAIN),
        hidden=tuple(p.get("hidden", (32, 32))),
        steps=int(p.get("steps", 2000)),
        batch=int(p.get("batch", 128)),
        lr=float(p.get("lr", 1e-2)),
    )
    save_model(out / "denoiser.txt", model)
    with open(out / "train_log.jsonl", "w") as fh:
        for i, loss in enumerate(losses):
            fh.write(json.dumps({"iteration": i, "loss": loss}) + "\n")
    tail = float(np.mean(losses[-100:]))
    append_metrics(out / "metrics.jsonl",
                   make_records(_run_id(out), {"final_denoising_loss": tail}, n=len(losses)))


def _run_finetune(cfg: dict, out: Path) -> None:
    seed = cfg.get("seed", 0)
    pre = cfgmod.build_policy(cfg)
    if pre.net is None:
        from ..diffusion import add_residual_net

        pre = add_residual_net(pre, make_rng(seed, BRANCH_INIT),
                               hidden=tuple(cfg.get("policy", {}).get("hidden", (32, 32))))
    reward = cfgmod.build_reward(cfg)
    fcfg = dataclasses.replace(cfgmod.build_finetune_config(cfg), seed=seed)
    ckpt_every = int(cfg.get("checkpoint_every", 0))

    with open(out / "train_log.jsonl", "w") as log_fh:
        def callback(i, policy, rec):
            log_fh.write(rec.to_json() + "\n")
            if ckpt_every and (i + 1) % ckpt_every == 0:
                save_model(out / f"checkpoint_{i + 1:06d}.txt", policy.net)

        result = run_finetune(pre, reward, fcfg, callback=callback)
    save_model(out / "checkpoint_final.txt", result.policy.net)
    if result.value is not None:
        save_model(out / "value_final.txt", result.value)

    n_eval = int(cfg.get("eval_samples", 4000))
    traj = sample_trajectory(result.policy, make_rng(seed, BRANCH_EVAL), n_eval,
                             final_step_noise=fcfg.final_step_noise)
    write_samples_csv(out / "samples.csv", traj.terminal)
    n_dump = int(cfg.get("dump_trajectories", 0))
    if n_dump:
        small = sample_trajectory(result.policy, make_rng(seed, BRANCH_EVAL, 1), n_dump,
                                  final_step_noise=fcfg.final_step_noise)
        write_trajectories_csv(out / "trajectories.csv", _run_id(out), small)

    metrics = {"mean_reward": float(eval_reward(reward, traj.terminal).mean())}
    metrics.update(_target_metrics(cfg, traj.terminal, fcfg.alpha, fcfg.final_step_noise))
    append_metrics(out / "metrics.jsonl", make_records(_run_id(out), metrics, n=n_eval))


def _target_metrics(cfg: dict, samples: np.ndarray, alpha: float, final_noise: bool) -> dict:
    """Moment gaps against the exact chain-tilted target when it exists.

    An isotropic single-Gaussian base with a linear reward factorizes the
    chain by coordinate, so each coordinate's target comes from its own
    1-D chain. Gaps are Euclidean norms over coordinates (the ``var_gap``
    convention of :func:`eval_metrics`); the target itself is reported in 1-D.
    """
    base = cfgmod.build_base(cfg)
    reward = cfgmod.build_reward(cfg)
    if base.n_components != 1 or not isinstance(reward, LinearReward) or alpha <= 0:
        return {}
    schedule = cfgmod.build_schedule(cfg)
    mean, var = np.array([
        chain_stats(schedule, GaussianMixture.single(m, base.scales[0]), final_noise)
        .tilted_terminal(float(a), alpha)
        for m, a in zip(base.means[0], reward.a)
    ]).T
    out = {
        "mean_gap_to_target": float(np.linalg.norm(samples.mean(axis=0) - mean)),
        "var_gap_to_target": float(np.linalg.norm(samples.var(axis=0) - var)),
    }
    if base.dim == 1:
        out.update(target_mean=float(mean[0]), target_var=float(var[0]))
    return out


def _run_guide(cfg: dict, out: Path) -> None:
    seed = cfg.get("seed", 0)
    policy = cfgmod.build_policy(cfg)
    reward = cfgmod.build_reward(cfg)
    g = cfg.get("guide", {})
    alpha = float(g.get("alpha", 1.0))
    estimator = g["estimator"]
    fit_rng = make_rng(seed, BRANCH_FIT)

    if estimator == "zero":
        source = ZeroShift(policy.dim)
    elif estimator == "mc":
        source = FittedValueShift(fit_value_mc(
            policy, reward, alpha, fit_rng,
            budget=int(g.get("budget", 2000)), steps=int(g.get("fit_steps", 4000)),
            hidden=tuple(g.get("hidden", (32, 32))),
        ))
    elif estimator == "softq":
        source = FittedValueShift(fit_value_softq(
            policy, reward, alpha, fit_rng,
            n_states=int(g.get("n_states", 256)), inner_draws=int(g.get("inner_draws", 64)),
            hidden=tuple(g.get("hidden", (32, 32))),
        ))
    elif estimator == "tweedie":
        source = TweedieShift(policy, reward, alpha)
    elif estimator == "path-integral":
        source = PathIntegralShift(policy, reward, alpha, int(g.get("rollouts", 256)), fit_rng)
    elif estimator == "affine":
        cs = chain_stats(policy.schedule, cfgmod.build_base(cfg))
        source = affine_shift_from_chain(cs, float(np.atleast_1d(reward.a)[0]), alpha)
    elif estimator == "posterior":
        source = MixturePosteriorShift(cfgmod.build_base(cfg), policy.schedule,
                                       int(g.get("label", 0)), alpha)
    else:  # pragma: no cover - validated earlier
        raise ConfigError(f"unknown estimator {estimator}")

    n = int(g.get("samples", 4000))
    samples, diag = value_weighted_sample(GuidedPolicy(policy, source, alpha),
                                          make_rng(seed, BRANCH_EVAL), n)
    write_samples_csv(out / "samples.csv", samples)
    with open(out / "diagnostics.jsonl", "w") as fh:
        fh.write(json.dumps({"estimator": estimator, **diag}) + "\n")
    metrics = {"mean_reward": float(eval_reward(reward, samples).mean()),
               "max_shift_norm": diag["max_shift_norm"]}
    metrics.update(_target_metrics(cfg, samples, alpha, True))
    append_metrics(out / "metrics.jsonl", make_records(_run_id(out), metrics, n=n))


def _run_oracle(cfg: dict, out: Path) -> None:
    o = cfg["oracle"]
    check = o["check"]
    alpha = float(o.get("alpha", 1.0))
    if check == "two-state":
        r = np.asarray(o.get("reward", [0.0, float(np.log(2.0))]), dtype=np.float64)
        mdp = GridMDP(
            grid=np.array([0.0, 1.0]),
            weights=np.array([1.0, 1.0]),
            init=np.asarray(o.get("init", [0.5, 0.5]), dtype=np.float64),
            trans=np.full((int(o.get("steps", 1)), 2, 2), 0.5),
            reward=r,
            alpha=alpha,
        )
        report = _solve_and_dump(mdp, out)
    elif check == "grid":
        policy = cfgmod.build_policy(cfg)
        reward = cfgmod.build_reward(cfg)
        grid = o["grid"]
        mdp = grid_build(policy, reward, alpha, float(grid["lo"]), float(grid["hi"]),
                         int(grid["n"]), n_steps=o.get("steps"))
        report = _solve_and_dump(mdp, out)
    elif check == "tilt":
        target = tilted_gaussian_target(o.get("mean", 0.0), float(o.get("var", 1.0)),
                                        o.get("slope", 1.0), alpha)
        report = {"tilted_mean": float(target.mean[0]), "tilted_var": target.var}
    else:  # mala
        target = tilted_gaussian_target(o.get("mean", 0.0), float(o.get("var", 1.0)),
                                        o.get("slope", 1.0), alpha)
        res = mala_sample(
            lambda x: float(target.log_density(x)[0]),
            lambda x: -(x - target.mean) / target.var,
            n=int(o.get("samples", 20000)),
            step=float(o.get("step", 0.5)),
            rng=make_rng(cfg.get("seed", 0), BRANCH_MCMC),
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
        fh.write(json.dumps({"check": check, **report}) + "\n")
    append_metrics(out / "metrics.jsonl", make_records(_run_id(out), report, n=0))


def _solve_and_dump(mdp: GridMDP, out: Path) -> dict:
    sol = grid_soft_solve(mdp)
    report = verify_theorems(sol)
    with open(out / "solved_grid.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "state", "x", "value", "marginal", "pre_marginal", "constant"])
        for t in range(mdp.n_steps + 1):
            for j in range(mdp.n_states):
                w.writerow([t, j, repr(float(mdp.grid[j])), repr(float(sol.values[t, j])),
                            repr(float(sol.marginals[t, j])), repr(float(sol.pre_marginals[t, j])),
                            repr(float(sol.constants[t]))])
    return report


def _run_conditional(cfg: dict, out: Path) -> None:
    seed = cfg.get("seed", 0)
    policy = cfgmod.build_policy(cfg)
    c = cfg.get("conditional", {})
    label = int(c["label"])
    n = int(c.get("samples", 4000))
    method = c.get("method", "value-weighted")
    fcfg = None
    if method != "value-weighted":
        fcfg = dataclasses.replace(cfgmod.build_finetune_config({**cfg, "reward": {"kind": "classifier", "label": label}}),
                                   seed=seed)
    samples, _ = conditional_generate(policy, label, make_rng(seed, BRANCH_EVAL), n,
                                      alpha=float(c.get("alpha", 1.0)), method=method,
                                      finetune_cfg=fcfg)
    write_samples_csv(out / "samples.csv", samples)
    base = cfgmod.build_base(cfg)
    correct = float(np.mean(base.responsibilities(samples).argmax(axis=1) == label))
    metrics = {
        "fraction_correct_side": correct,
        "mean_gap_to_component": float(np.linalg.norm(samples.mean(axis=0) - base.means[label])),
    }
    append_metrics(out / "metrics.jsonl", make_records(_run_id(out), metrics, n=n))


def _run_eval(cfg: dict, out: Path) -> None:
    e = cfg["eval"]
    a = read_samples_csv(e["samples_a"])
    if "samples_b" in e:
        ref = read_samples_csv(e["samples_b"])
    else:
        r = e["reference"]
        ref = tilted_gaussian_target(r.get("mean", 0.0), float(r.get("var", 1.0)),
                                     r.get("slope", 0.0), float(r.get("alpha", 1.0)))
    reward = cfgmod.build_reward(cfg) if "reward" in cfg else None
    metrics = eval_metrics(a, ref, reward_spec=reward,
                           rng=make_rng(cfg.get("seed", 0), BRANCH_EVAL))
    append_metrics(out / "metrics.jsonl", make_records(_run_id(out), metrics))


def _run_sweep(cfg: dict, out: Path) -> None:
    jobs = int(cfg.get("jobs", 1))
    runs = cfg["runs"]
    names = [sub.get("name", f"run_{i:03d}") for i, sub in enumerate(runs)]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(lambda args: run_experiment(args[0], out / args[1]),
                                  zip(runs, names)))
    else:
        codes = [run_experiment(sub, out / name) for sub, name in zip(runs, names)]
    summary = [{"name": n, "exit_code": c} for n, c in zip(names, codes)]
    (out / "sweep_summary.jsonl").write_text("\n".join(json.dumps(s) for s in summary) + "\n")
    if any(codes):
        raise ConfigError(f"sweep sub-runs failed: {[s for s in summary if s['exit_code']]}")

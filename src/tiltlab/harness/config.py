"""Run configuration: YAML schema, full up-front validation, object builders.

A run is one YAML tree (see configs/ for annotated examples). Everything
is validated before any computation; the first violated constraint is
named in the raised ConfigError. The only override outside the file is
the CLI --seed / --out pair, so a run is reproducible from the file
alone.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from ..autodiff import load_model
from ..diffusion import GaussianMixture, PolicyNet, add_residual_net, make_schedule
from ..errors import CapabilityError, ConfigError
from ..finetune import FineTuneConfig
from ..rewards import (
    BlackBoxReward,
    ClassifierReward,
    LearnedReward,
    LinearReward,
    QuadraticReward,
)

RUN_KINDS = ("pretrain", "finetune", "guide", "oracle", "conditional", "eval", "sweep")
ESTIMATORS = ("mc", "softq", "tweedie", "path-integral", "affine", "posterior", "zero")
ORACLE_CHECKS = ("grid", "two-state", "tilt", "mala")

# Named non-differentiable rewards usable from config files.
BLACK_BOXES = {
    "threshold": lambda x: (x[:, 0] > 0.0).astype(float),
    "abs-sum": lambda x: np.abs(x).sum(axis=1),
}


def load_config(path) -> dict:
    cfg = yaml.safe_load(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} is not a key-value tree")
    return cfg


def validate_config(cfg: dict) -> None:
    """Raise ConfigError (or CapabilityError) naming the first violation."""
    kind = cfg.get("kind")
    if kind not in RUN_KINDS:
        raise ConfigError(f"kind: expected one of {RUN_KINDS}, got {kind!r}")
    if not isinstance(cfg.get("seed", 0), int) or cfg.get("seed", 0) < 0:
        raise ConfigError("seed: must be a nonnegative integer")

    if kind == "sweep":
        runs = cfg.get("runs")
        if not isinstance(runs, list) or not runs:
            raise ConfigError("runs: a sweep needs a nonempty list of sub-configs")
        for i, sub in enumerate(runs):
            try:
                validate_config(sub)
            except (ConfigError, CapabilityError) as exc:
                raise type(exc)(f"runs[{i}].{exc}") from None
        return

    if kind in ("pretrain", "finetune", "guide", "conditional"):
        _validate_base(cfg)
        _validate_schedule(cfg)
    if kind in ("finetune", "guide", "oracle"):
        _validate_reward(cfg)
    if kind == "finetune":
        ft = build_finetune_config(cfg)
        reward = build_reward(cfg)
        ft.check_reward(reward)
    if kind == "guide":
        g = cfg.get("guide", {})
        if g.get("estimator") not in ESTIMATORS:
            raise ConfigError(f"guide.estimator: expected one of {ESTIMATORS}")
        if float(g.get("alpha", 1.0)) <= 0.0:
            raise ConfigError("guide.alpha: must be positive")
        if g.get("estimator") == "tweedie" and not build_reward(cfg).differentiable:
            raise CapabilityError("guide.estimator: tweedie requires a differentiable reward")
    if kind == "oracle":
        o = cfg.get("oracle", {})
        if o.get("check") not in ORACLE_CHECKS:
            raise ConfigError(f"oracle.check: expected one of {ORACLE_CHECKS}")
        if float(o.get("alpha", 1.0)) <= 0.0:
            raise ConfigError("oracle.alpha: must be positive")
        if o.get("check") == "grid":
            _validate_base(cfg)
            _validate_schedule(cfg)
            grid = o.get("grid", {})
            if int(grid.get("n", 0)) < 11:
                raise ConfigError("oracle.grid.n: need at least 11 nodes")
            if not float(grid.get("hi", 0)) > float(grid.get("lo", 0)):
                raise ConfigError("oracle.grid: hi must exceed lo")
    if kind == "conditional":
        c = cfg.get("conditional", {})
        base = build_base(cfg)
        if not 0 <= int(c.get("label", -1)) < base.n_components:
            raise ConfigError("conditional.label: outside the mixture's components")
    if kind == "eval":
        e = cfg.get("eval", {})
        if "samples_a" not in e:
            raise ConfigError("eval.samples_a: a sample CSV path is required")
        if "samples_b" not in e and "reference" not in e:
            raise ConfigError("eval: need samples_b or an analytic reference")


def _validate_base(cfg: dict) -> None:
    base = cfg.get("base")
    if not isinstance(base, dict):
        raise ConfigError("base: section is required")
    kind = base.get("kind", "normal")
    if kind not in ("normal", "mixture"):
        raise ConfigError(f"base.kind: expected normal or mixture, got {kind!r}")
    if kind == "normal" and float(base.get("std", 1.0)) <= 0.0:
        raise ConfigError("base.std: must be positive")
    if kind == "mixture":
        w = base.get("weights")
        if not w or abs(sum(w) - 1.0) > 1e-9:
            raise ConfigError("base.weights: must be present and sum to 1")
        if any(s <= 0 for s in base.get("stds", [])):
            raise ConfigError("base.stds: must be positive")


def _validate_schedule(cfg: dict) -> None:
    sch = cfg.get("schedule")
    if not isinstance(sch, dict):
        raise ConfigError("schedule: section is required")
    if int(sch.get("steps", 0)) < 1:
        raise ConfigError("schedule.steps: must be >= 1")
    if float(sch.get("horizon", 0.0)) <= 0.0:
        raise ConfigError("schedule.horizon: must be positive")
    rv = sch.get("rev_var")
    if rv is not None and float(rv) <= 0.0:
        raise ConfigError("schedule.rev_var: must be positive when given")


def _validate_reward(cfg: dict) -> None:
    r = cfg.get("reward")
    if cfg.get("kind") == "oracle" and cfg.get("oracle", {}).get("check") in ("two-state", "tilt", "mala"):
        return  # these checks carry their own parameters
    if not isinstance(r, dict):
        raise ConfigError("reward: section is required")
    kind = r.get("kind")
    if kind not in ("linear", "quadratic", "classifier", "blackbox", "learned"):
        raise ConfigError(f"reward.kind: unknown kind {kind!r}")
    if kind == "blackbox" and r.get("name") not in BLACK_BOXES:
        raise ConfigError(f"reward.name: unknown black box (choose from {sorted(BLACK_BOXES)})")
    if kind == "learned" and not Path(r.get("checkpoint", "")).exists():
        raise ConfigError("reward.checkpoint: learned reward needs an existing checkpoint file")


# -- builders -------------------------------------------------------------


def build_base(cfg: dict) -> GaussianMixture:
    base = cfg["base"]
    if base.get("kind", "normal") == "normal":
        mean = np.atleast_1d(np.asarray(base.get("mean", 0.0), dtype=np.float64))
        return GaussianMixture.single(mean, float(base.get("std", 1.0)))
    means = np.atleast_2d(np.asarray(base["means"], dtype=np.float64))
    if means.shape[0] != len(base["weights"]):
        means = means.T
    return GaussianMixture(
        np.asarray(base["weights"], dtype=np.float64),
        means,
        np.asarray(base["stds"], dtype=np.float64),
    )


def build_schedule(cfg: dict):
    sch = cfg["schedule"]
    return make_schedule(
        int(sch["steps"]),
        float(sch["horizon"]),
        rev_var=None if sch.get("rev_var") is None else float(sch["rev_var"]),
    )


def build_policy(cfg: dict) -> PolicyNet:
    base = build_base(cfg)
    schedule = build_schedule(cfg)
    pol = cfg.get("policy", {"kind": "analytic"})
    kind = pol.get("kind", "analytic")
    if kind == "analytic":
        return PolicyNet(schedule, base=base)
    if kind == "residual":
        p = PolicyNet(schedule, base=base)
        if pol.get("checkpoint"):
            from dataclasses import replace

            return replace(p, net=load_model(pol["checkpoint"]))
        from ..streams import BRANCH_INIT, make_rng

        return add_residual_net(p, make_rng(int(cfg.get("seed", 0)), BRANCH_INIT),
                                hidden=tuple(pol.get("hidden", (32, 32))),
                                activation=pol.get("activation", "tanh"))
    if kind == "mlp":
        if not pol.get("checkpoint"):
            raise ConfigError("policy.checkpoint: an mlp policy needs a trained checkpoint")
        return PolicyNet(schedule, base=None, net=load_model(pol["checkpoint"]))
    raise ConfigError(f"policy.kind: unknown kind {kind!r}")


def build_reward(cfg: dict):
    r = cfg["reward"]
    kind = r["kind"]
    if kind == "linear":
        return LinearReward(np.asarray(r["a"], dtype=np.float64))
    if kind == "quadratic":
        return QuadraticReward(
            np.asarray(r["A"], dtype=np.float64),
            np.asarray(r.get("b", np.zeros(np.atleast_2d(r["A"]).shape[0])), dtype=np.float64),
            float(r.get("c", 0.0)),
        )
    if kind == "classifier":
        return ClassifierReward(build_base(cfg), int(r["label"]))
    if kind == "blackbox":
        return BlackBoxReward(BLACK_BOXES[r["name"]], differentiable=False, name=r["name"])
    if kind == "learned":
        return LearnedReward(load_model(r["checkpoint"]))
    raise ConfigError(f"reward.kind: unknown kind {kind!r}")


def build_finetune_config(cfg: dict) -> FineTuneConfig:
    ft = dict(cfg.get("finetune", {}))
    ft.setdefault("seed", cfg.get("seed", 0))
    if "value_hidden" in ft:
        ft["value_hidden"] = tuple(ft["value_hidden"])
    known = {f for f in FineTuneConfig.__dataclass_fields__}
    unknown = set(ft) - known
    if unknown:
        raise ConfigError(f"finetune: unknown keys {sorted(unknown)}")
    fcfg = FineTuneConfig(**ft)
    fcfg.validate()
    return fcfg

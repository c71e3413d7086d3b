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
from ..errors import CapabilityError, ConfigError, ContractError, NumericError, ShapeError
from ..finetune import FineTuneConfig, rollin_switch
from ..rewards import (
    BlackBoxReward,
    ClassifierReward,
    LearnedReward,
    LinearReward,
    QuadraticReward,
    eval_reward,
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
    """Raise ConfigError (or CapabilityError) naming the first violation.

    Besides the per-section checks, this builds the base, schedule, policy
    and reward the run will build, evaluates the reward on one zero row of
    the base's dimension, and checks the constraints that span sections,
    so a malformed tree fails before its run directory exists.
    """
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

    grid_oracle = False
    if kind == "oracle":
        o = _section(cfg, "oracle")
        if o.get("check") not in ORACLE_CHECKS:
            raise ConfigError(f"oracle.check: expected one of {ORACLE_CHECKS}")
        if _num("oracle.alpha", o.get("alpha", 1.0)) <= 0.0:
            raise ConfigError("oracle.alpha: must be positive")
        grid_oracle = o.get("check") == "grid"
    if kind in ("pretrain", "finetune", "guide", "conditional") or grid_oracle:
        base = _named("base", _validate_base, cfg)
        schedule = _named("schedule", _validate_schedule, cfg)
    if kind in ("finetune", "guide", "conditional") or grid_oracle:
        policy = _named("policy", build_policy, cfg)
        if policy.dim != base.dim:
            raise ConfigError("policy.checkpoint: network width does not match the base dimension")
    if kind in ("finetune", "guide") or grid_oracle:
        reward = _named("reward", _validate_reward, cfg, base.dim)

    if kind == "finetune":
        ft = _named("finetune", build_finetune_config, cfg)
        ft.check_reward(reward)
        rollin_switch(ft.rollin, schedule.n_steps)
    if kind == "guide":
        g = _section(cfg, "guide")
        estimator = g.get("estimator")
        if estimator not in ESTIMATORS:
            raise ConfigError(f"guide.estimator: expected one of {ESTIMATORS}")
        if _num("guide.alpha", g.get("alpha", 1.0)) <= 0.0:
            raise ConfigError("guide.alpha: must be positive")
        if estimator == "tweedie" and not reward.differentiable:
            raise CapabilityError("guide.estimator: tweedie requires a differentiable reward")
        if estimator == "affine" and not (isinstance(reward, LinearReward)
                                          and base.n_components == 1 and base.dim == 1):
            raise ConfigError("guide.estimator: affine needs a linear reward on a 1-D one-component base")
        if estimator == "path-integral" and _num("guide.rollouts", g.get("rollouts", 256), int) < 100:
            raise ConfigError("guide.rollouts: path-integral needs at least 100 continuation rollouts")
        if estimator == "posterior" and not 0 <= _num("guide.label", g.get("label", 0), int) < base.n_components:
            raise ConfigError("guide.label: outside the mixture's components")
        if estimator == "mc" and _num("guide.budget", g.get("budget", 2000), int) < 100:
            raise ConfigError("guide.budget: need at least 100 trajectories")
        if estimator == "softq" and _num("guide.inner_draws", g.get("inner_draws", 64), int) < 2:
            raise ConfigError("guide.inner_draws: need at least 2 inner draws")
    if grid_oracle:
        grid = _section(cfg, "oracle.grid")
        if _num("oracle.grid.n", grid.get("n", 0), int) < 11:
            raise ConfigError("oracle.grid.n: need at least 11 nodes")
        if not _num("oracle.grid.hi", grid.get("hi", 0)) > _num("oracle.grid.lo", grid.get("lo", 0)):
            raise ConfigError("oracle.grid: hi must exceed lo")
    if kind == "conditional":
        c = _section(cfg, "conditional")
        if not 0 <= _num("conditional.label", c.get("label", -1), int) < base.n_components:
            raise ConfigError("conditional.label: outside the mixture's components")
        if c.get("method", "value-weighted") != "value-weighted":
            rollin_switch(_named("finetune", build_finetune_config, cfg).rollin, schedule.n_steps)
    if kind == "eval":
        e = _section(cfg, "eval")
        if "samples_a" not in e:
            raise ConfigError("eval.samples_a: a sample CSV path is required")
        if "samples_b" not in e:
            if "reference" not in e:
                raise ConfigError("eval: need samples_b or an analytic reference")
            _section(cfg, "eval.reference")
        for key in ("samples_a", "samples_b"):
            if key in e and not Path(str(e[key])).is_file():
                raise ConfigError(f"eval.{key}: no sample file at {e[key]!r}")
        if "reward" in cfg:
            _named("reward", build_reward, cfg)


# What the build_* functions raise on a malformed tree; _named reports it as the section's.
_MALFORMED = (ConfigError, ContractError, ShapeError, NumericError, IndexError,
              KeyError, TypeError, ValueError, OSError)


def _named(section: str, fn, *args):
    """Call ``fn``; re-raise a failure on a malformed tree as a ConfigError naming ``section``."""
    try:
        return fn(*args)
    except _MALFORMED as exc:
        if isinstance(exc, ConfigError) and str(exc).startswith(section):
            raise
        raise ConfigError(f"{section}: {exc}") from None


def _section(cfg: dict, path: str) -> dict:
    """The mapping at the dotted ``path``, empty when absent; anything but a mapping is a ConfigError."""
    node = cfg
    for key in path.split("."):
        node = node.get(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected a mapping")
    return node


def _num(key: str, value, cast=float):
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _validate_base(cfg: dict) -> GaussianMixture:
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
        if "means" not in base:
            raise ConfigError("base.means: a mixture needs one mean per component")
    return build_base(cfg)


def _validate_schedule(cfg: dict):
    sch = cfg.get("schedule")
    if not isinstance(sch, dict):
        raise ConfigError("schedule: section is required")
    if _num("schedule.steps", sch.get("steps", 0), int) < 1:
        raise ConfigError("schedule.steps: must be >= 1")
    if _num("schedule.horizon", sch.get("horizon", 0.0)) <= 0.0:
        raise ConfigError("schedule.horizon: must be positive")
    rv = sch.get("rev_var")
    if rv is not None and _num("schedule.rev_var", rv) <= 0.0:
        raise ConfigError("schedule.rev_var: must be positive when given")
    return build_schedule(cfg)


def _validate_reward(cfg: dict, dim: int):
    """Check the reward section, build it, and evaluate it at one zero row."""
    r = cfg.get("reward")
    if not isinstance(r, dict):
        raise ConfigError("reward: section is required")
    kind = r.get("kind")
    if kind not in ("linear", "quadratic", "classifier", "blackbox", "learned"):
        raise ConfigError(f"reward.kind: unknown kind {kind!r}")
    if kind == "blackbox" and r.get("name") not in BLACK_BOXES:
        raise ConfigError(f"reward.name: unknown black box (choose from {sorted(BLACK_BOXES)})")
    if kind == "learned" and not Path(r.get("checkpoint", "")).exists():
        raise ConfigError("reward.checkpoint: learned reward needs an existing checkpoint file")
    reward = build_reward(cfg)
    eval_reward(reward, np.zeros((1, dim)))
    return reward


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

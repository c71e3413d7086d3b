"""Run configuration: the one reader of a run's YAML tree.

A run is one YAML tree (see configs/ for annotated examples).
:func:`validate_config` reads it once, before any computation: for the
run's kind it casts, defaults and range-checks every key the kind uses,
builds the kind's objects, and returns them as a :class:`Run`. The first
violated constraint is named, by its dotted key, in the raised
ConfigError. The runner and plotdata work from the Run alone. The only
override outside the file is the CLI --seed / --out pair, so a run is
reproducible from the file alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from ..autodiff import load_model
from ..diffusion import DiffusionSchedule, GaussianMixture, PolicyNet, add_residual_net, make_schedule
from ..errors import CapabilityError, ConfigError, ContractError, CoverageError, NumericError, ShapeError
from ..finetune import ALGORITHMS, FineTuneConfig, rollin_switch
from ..oracle import GridMDP, chain_stats, grid_build, tilted_gaussian_target
from ..rewards import (
    BlackBoxReward, ClassifierReward, LearnedReward, LinearReward, QuadraticReward, eval_reward,
)
from ..runfiles import read_samples_csv
from ..streams import BRANCH_INIT, make_rng
from .metrics import MIN_SAMPLES

RUN_KINDS = ("pretrain", "finetune", "guide", "oracle", "conditional", "eval", "sweep")
ESTIMATORS = ("mc", "softq", "tweedie", "path-integral", "affine", "posterior", "zero")
ORACLE_CHECKS = ("grid", "two-state", "tilt", "mala")
REWARD_KINDS = ("linear", "quadratic", "classifier", "blackbox", "learned")

# Named non-differentiable rewards usable from config files.
BLACK_BOXES = {
    "threshold": lambda x: (x[:, 0] > 0.0).astype(float),
    "abs-sum": lambda x: np.abs(x).sum(axis=1),
}

# Files a sweep writes into its own directory, so no sub-run may take their names.
SWEEP_FILES = ("config.yaml", "sweep_summary.jsonl")


@dataclass
class Run:
    """One read run: what its kind uses, cast, defaulted, range-checked and built."""

    kind: str
    seed: int
    tree: dict                  # the tree as given; the run directory keeps a copy
    opts: SimpleNamespace = field(default_factory=SimpleNamespace)  # the kind's own keys
    base: GaussianMixture | None = None
    schedule: DiffusionSchedule | None = None
    policy: PolicyNet | None = None
    reward: object | None = None
    finetune: FineTuneConfig | None = None
    target: tuple[np.ndarray, np.ndarray] | None = None  # see exact_target
    runs: list[tuple[str, Run]] = field(default_factory=list)  # a sweep's named sub-runs


def load_config(path) -> dict:
    cfg = yaml.safe_load(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} is not a key-value tree")
    return cfg


def validate_config(cfg: dict) -> Run:
    """Read ``cfg`` once into a Run; raise ConfigError (or CapabilityError)
    naming the first violation.

    Beyond casting and range-checking each key, this builds the base,
    schedule, policy, reward and oracle objects the run uses, evaluates
    the reward on one zero row of the base's dimension, and checks the
    constraints that span sections, so a malformed tree fails before its
    run directory exists.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a mapping of sections")
    kind = cfg.get("kind")
    if kind not in RUN_KINDS:
        raise ConfigError(f"kind: expected one of {RUN_KINDS}, got {kind!r}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    run = Run(kind, seed, cfg)
    _READERS[kind](run, cfg)
    return run


def exact_target(base: GaussianMixture, schedule: DiffusionSchedule, reward,
                 alpha: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-coordinate (mean, var) of the exact chain-tilted target, or None
    when no oracle covers the run.

    An isotropic single-Gaussian base with a linear reward factorizes the
    chain by coordinate, so each coordinate's target comes from its own
    1-D chain.
    """
    if base.n_components != 1 or not isinstance(reward, LinearReward) or alpha <= 0:
        return None
    mean, var = np.array([
        chain_stats(schedule, GaussianMixture.single(m, base.scales[0]))
        .tilted_terminal(float(a), alpha)
        for m, a in zip(base.means[0], reward.a)
    ]).T
    return mean, var


# -- one reader per run kind -------------------------------------------------


def _read_pretrain(run: Run, cfg: dict) -> None:
    run.base, run.schedule = _named("base", _base, cfg), _named("schedule", _schedule, cfg)
    p = _Keys(cfg, "pretrain")
    run.opts = SimpleNamespace(hidden=p.widths("hidden", (32, 32)), steps=p.integer("steps", 2000),
                               batch=p.integer("batch", 128), lr=p.real("lr", 1e-2, positive=True))


def _read_finetune(run: Run, cfg: dict) -> None:
    _read_chain(run, cfg, trainable=True)
    _read_reward(run, cfg)
    run.finetune = _named("finetune", _finetune_config, cfg, run.seed, run.schedule, run.reward)
    top = _Keys(cfg)
    run.opts = SimpleNamespace(eval_samples=top.integer("eval_samples", 4000),
                               dump_trajectories=top.integer("dump_trajectories", 0, least=0),
                               checkpoint_every=top.integer("checkpoint_every", 0, least=0))
    run.target = exact_target(run.base, run.schedule, run.reward, run.finetune.alpha)


def _read_guide(run: Run, cfg: dict) -> None:
    _read_chain(run, cfg)
    _read_reward(run, cfg)
    g = _Keys(cfg, "guide")
    est = g.choice("estimator", ESTIMATORS)
    o = run.opts = SimpleNamespace(estimator=est, alpha=g.real("alpha", 1.0, positive=True),
                                   samples=g.integer("samples", 4000))
    if est == "mc":
        o.budget, o.fit_steps = g.integer("budget", 2000, least=100), g.integer("fit_steps", 4000)
    elif est == "softq":
        o.n_states, o.inner_draws = g.integer("n_states", 256), g.integer("inner_draws", 64, least=2)
    elif est == "path-integral":
        o.rollouts = g.integer("rollouts", 256, least=100)
    elif est == "posterior":
        o.label = _label(g, "label", 0, run.base)
    elif est == "tweedie" and not run.reward.differentiable:
        raise CapabilityError("guide.estimator: tweedie requires a differentiable reward")
    elif est == "affine" and not (isinstance(run.reward, LinearReward)
                                  and run.base.n_components == 1 and run.base.dim == 1):
        raise ConfigError("guide.estimator: affine needs a linear reward on a 1-D one-component base")
    if est in ("mc", "softq"):
        o.hidden = g.widths("hidden", (32, 32))
    run.target = exact_target(run.base, run.schedule, run.reward, o.alpha)


def _read_oracle(run: Run, cfg: dict) -> None:
    o = _Keys(cfg, "oracle")
    check = o.choice("check", ORACLE_CHECKS)
    alpha = o.real("alpha", 1.0, positive=True)
    run.opts = SimpleNamespace(check=check, alpha=alpha)
    if check == "two-state":
        init, reward = o.array("init", [0.5, 0.5]), o.array("reward", [0.0, float(np.log(2.0))])
        if init.shape != (2,) or reward.shape != (2,):
            raise ConfigError("oracle: a two-state oracle needs two entries in init and in reward")
        trans = np.full((o.integer("steps", 1), 2, 2), 0.5)
        run.opts.mdp = _named("oracle.init", GridMDP, np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                              init, trans, reward, alpha)
    elif check == "grid":
        _read_chain(run, cfg)
        _read_reward(run, cfg)
        steps = None if o.node.get("steps") is None else o.integer("steps", None)
        if (steps or 0) > run.schedule.n_steps:
            raise ConfigError(f"oracle.steps: outside [1, {run.schedule.n_steps}]")
        grid = _Keys(cfg, "oracle.grid")
        run.opts.mdp = _named("oracle.grid", grid_build, run.policy, run.reward, alpha,
                              grid.real("lo", None), grid.real("hi", None),
                              grid.integer("n", None, least=11), steps)
    else:
        run.opts.tilt = _tilted(o, 1.0, alpha)
        if check == "mala":
            run.opts.samples = o.integer("samples", 20000)
            run.opts.step = o.real("step", 0.5, positive=True)


def _read_conditional(run: Run, cfg: dict) -> None:
    _read_chain(run, cfg)
    if run.policy.base is None:
        raise ConfigError("policy.kind: conditional generation needs an analytic mixture base")
    c = _Keys(cfg, "conditional")
    label = _label(c, "label", None, run.base)
    method = c.node.get("method", "value-weighted")
    run.opts = SimpleNamespace(label=label, samples=c.integer("samples", 4000), method=method,
                               alpha=c.real("alpha", 1.0, positive=True))
    if method != "value-weighted":
        run.finetune = _named("finetune", _finetune_config, cfg, run.seed, run.schedule,
                              ClassifierReward(run.base, label))
        if method != run.finetune.algorithm:
            raise ConfigError(f"conditional.method: {method!r} is neither value-weighted nor "
                              f"finetune.algorithm ({run.finetune.algorithm!r})")


def _read_eval(run: Run, cfg: dict) -> None:
    e = _Keys(cfg, "eval")
    if "samples_a" not in e.node:
        raise ConfigError("eval.samples_a: a sample CSV path is required")
    if "samples_b" not in e.node and "reference" not in e.node:
        raise ConfigError("eval: need samples_b or an analytic reference")
    samples = {key: _named(f"eval.{key}", read_samples_csv, str(e.node[key]))
               for key in ("samples_a", "samples_b") if key in e.node}
    for key, rows in samples.items():
        if rows.shape[0] < MIN_SAMPLES:
            raise ConfigError(f"eval.{key}: need at least {MIN_SAMPLES} samples, got {rows.shape[0]}")
    dim = samples["samples_a"].shape[1]
    if "samples_b" in samples and samples["samples_b"].shape[1] != dim:
        raise ConfigError(f"eval.samples_b: its dimension differs from samples_a's ({dim})")
    run.opts = SimpleNamespace(samples_a=samples["samples_a"], samples_b=samples.get("samples_b"))
    if "samples_b" not in samples:
        r = _Keys(cfg, "eval.reference")
        run.opts.reference = _tilted(r, 0.0, r.real("alpha", 1.0, positive=True))
        if run.opts.reference.dim != dim:
            raise ConfigError(f"eval.reference.mean: dimension {run.opts.reference.dim}, "
                              f"the samples have {dim}")
    if "reward" in cfg:
        _read_reward(run, cfg, dim)


def _read_sweep(run: Run, cfg: dict) -> None:
    subs = cfg.get("runs")
    if not isinstance(subs, list) or not subs:
        raise ConfigError("runs: a sweep needs a nonempty list of sub-configs")
    for i, sub in enumerate(subs):
        try:
            sub_run = validate_config(sub)
        except (ConfigError, CapabilityError) as exc:
            raise type(exc)(f"runs[{i}].{exc}") from None
        name = sub.get("name", f"run_{i:03d}")
        if (not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name
                or name in SWEEP_FILES or name in dict(run.runs)):
            raise ConfigError(f"runs[{i}].name: {name!r} repeats or is not a single path component")
        run.runs.append((name, sub_run))


_READERS = {"pretrain": _read_pretrain, "finetune": _read_finetune, "guide": _read_guide,
            "oracle": _read_oracle, "conditional": _read_conditional, "eval": _read_eval,
            "sweep": _read_sweep}


# -- sections shared by several kinds -------------------------------------------


def _read_chain(run: Run, cfg: dict, trainable: bool = False) -> None:
    """Base, schedule and policy."""
    run.base, run.schedule = _named("base", _base, cfg), _named("schedule", _schedule, cfg)
    run.policy = _named("policy", _policy, cfg, run.base, run.schedule, run.seed, trainable)


def _base(cfg: dict) -> GaussianMixture:
    b = _Keys(cfg, "base", required=True)
    if b.choice("kind", ("normal", "mixture"), "normal") == "normal":
        return GaussianMixture.single(b.array("mean", 0.0), b.real("std", 1.0, positive=True))
    weights = b.array("weights", None)
    means = np.atleast_2d(b.array("means", None))
    if means.shape[0] != weights.size:
        means = means.T
    return GaussianMixture(weights, means, b.array("stds", None))


def _schedule(cfg: dict) -> DiffusionSchedule:
    s = _Keys(cfg, "schedule", required=True)
    steps, horizon = s.integer("steps", None), s.real("horizon", None, positive=True)
    rev_var = None if s.node.get("rev_var") is None else s.real("rev_var", None, positive=True)
    return make_schedule(steps, horizon, rev_var=rev_var)


def _policy(cfg: dict, base: GaussianMixture, schedule: DiffusionSchedule, seed: int,
            trainable: bool) -> PolicyNet:
    """The run's policy; ``trainable`` gives an analytic one the zero-output
    residual net (``policy.hidden``, ``policy.activation``) that fine-tuning trains."""
    p = _Keys(cfg, "policy")
    kind = p.choice("kind", ("analytic", "residual", "mlp"), "analytic")
    checkpoint = p.node.get("checkpoint")
    if kind == "mlp" and not checkpoint:
        raise ConfigError("policy.checkpoint: an mlp policy needs a trained checkpoint")
    if kind != "analytic" and checkpoint:
        policy = PolicyNet(schedule, base=None if kind == "mlp" else base, net=load_model(checkpoint))
    elif kind == "residual" or trainable:
        policy = add_residual_net(PolicyNet(schedule, base=base), make_rng(seed, BRANCH_INIT),
                                  hidden=p.widths("hidden", (32, 32)),
                                  activation=p.node.get("activation", "tanh"))
    else:
        policy = PolicyNet(schedule, base=base)
    if policy.dim != base.dim:
        raise ConfigError("policy.checkpoint: network width does not match the base dimension")
    return policy


def _read_reward(run: Run, cfg: dict, dim: int | None = None) -> None:
    """The reward, evaluated at one zero row of dimension ``dim``, by default
    the base's; not evaluated when neither is known."""
    run.reward = _named("reward", _reward, cfg, run.base)
    if dim is None and run.base is not None:
        dim = run.base.dim
    if dim is not None:
        _named("reward", eval_reward, run.reward, np.zeros((1, dim)))


def _reward(cfg: dict, base: GaussianMixture | None):
    r = _Keys(cfg, "reward", required=True)
    kind = r.choice("kind", REWARD_KINDS)
    if kind == "linear":
        return LinearReward(r.array("a", None))
    if kind == "quadratic":
        A = r.array("A", None)
        return QuadraticReward(A, r.array("b", np.zeros(np.atleast_2d(A).shape[0])), r.real("c", 0.0))
    if kind == "classifier":
        return ClassifierReward(base or _named("base", _base, cfg), r.integer("label", None, least=0))
    if kind == "blackbox":
        name = r.choice("name", tuple(BLACK_BOXES))
        return BlackBoxReward(BLACK_BOXES[name], differentiable=False, name=name)
    return LearnedReward(_named("reward.checkpoint", load_model, r.node.get("checkpoint", "")))


def _finetune_config(cfg: dict, seed: int, schedule: DiffusionSchedule, reward) -> FineTuneConfig:
    """The finetune section as a FineTuneConfig seeded with the run's seed,
    checked against the reward and the schedule."""
    ft = _Keys(cfg, "finetune")
    unknown = set(ft.node) - set(FineTuneConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"finetune: unknown keys {sorted(unknown)}")
    kw = dict(ft.node, algorithm=ft.choice("algorithm", ALGORITHMS), seed=seed)
    for key in ("batch", "iterations", "ppo_epochs"):
        if key in kw:
            kw[key] = ft.integer(key, None)
    for key in ("alpha", "lr", "clip"):
        if key in kw:
            kw[key] = ft.real(key, None)
    if kw.get("value_lr") is not None:
        kw["value_lr"] = ft.real("value_lr", None, positive=True)
    if "value_hidden" in kw:
        kw["value_hidden"] = ft.widths("value_hidden", None)
    fcfg = FineTuneConfig(**kw)
    fcfg.check_reward(reward)
    rollin_switch(fcfg.rollin, schedule.n_steps)
    return fcfg


def _label(keys: _Keys, key: str, default, base: GaussianMixture) -> int:
    label = keys.integer(key, default, least=0)
    if label >= base.n_components:
        raise ConfigError(f"{keys.name(key)}: outside the mixture's components")
    return label


def _tilted(keys: _Keys, slope: float, alpha: float):
    """The Gaussian tilt a section describes by ``mean``, ``var`` and ``slope``."""
    return _named(keys.path, tilted_gaussian_target, keys.array("mean", 0.0),
                  keys.real("var", 1.0, positive=True), keys.array("slope", slope), alpha)


# -- reading keys -----------------------------------------------------------------

# What the builders raise on a malformed tree; _named reports it as the section's.
_MALFORMED = (ConfigError, ContractError, CoverageError, ShapeError, NumericError, IndexError,
              KeyError, TypeError, ValueError, OSError)


def _named(section: str, fn, *args):
    """Call ``fn``; re-raise a failure on a malformed tree as a ConfigError naming ``section``."""
    try:
        return fn(*args)
    except _MALFORMED as exc:
        if isinstance(exc, ConfigError) and str(exc).startswith(section):
            raise
        raise ConfigError(f"{section}: {exc}") from None


def _section(cfg: dict, path: str, required: bool = False) -> dict:
    """The mapping at the dotted ``path``, empty when absent (a ConfigError when
    ``required``); anything but a mapping is a ConfigError."""
    node = cfg
    for key in path.split("."):
        if required and key not in node:
            raise ConfigError(f"{path}: section is required")
        node = node.get(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected a mapping")
    return node


class _Keys:
    """The keys of one section (the top level when ``path`` is empty), each
    read under its dotted name."""

    def __init__(self, cfg: dict, path: str = "", required: bool = False):
        self.path = path
        self.node = _section(cfg, path, required) if path else cfg

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def choice(self, key: str, options: tuple, default=None):
        value = self.node.get(key, default)
        if value not in options:
            raise ConfigError(f"{self.name(key)}: expected one of {options}, got {value!r}")
        return value

    def real(self, key: str, default, positive: bool = False) -> float:
        value = self.node.get(key, default)
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        if not math.isfinite(x) or (positive and x <= 0.0):
            raise ConfigError(f"{self.name(key)}: expected a {'positive' if positive else 'finite'} "
                              f"number, got {value!r}")
        return x

    def integer(self, key: str, default, least: int = 1) -> int:
        value = self.node.get(key, default)
        try:
            n = int(value)
            ok = n == float(value) and n >= least
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{self.name(key)}: expected an integer >= {least}, got {value!r}")
        return n

    def array(self, key: str, default) -> np.ndarray:
        value = self.node.get(key, default)
        try:
            a = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            a = np.array(math.nan)
        if a.size == 0 or not np.all(np.isfinite(a)):
            raise ConfigError(f"{self.name(key)}: expected finite numbers, got {value!r}")
        return a

    def widths(self, key: str, default) -> tuple[int, ...]:
        value = self.node.get(key, default)
        if not (isinstance(value, (list, tuple))
                and all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in value)):
            raise ConfigError(f"{self.name(key)}: expected a list of positive integers, got {value!r}")
        return tuple(value)

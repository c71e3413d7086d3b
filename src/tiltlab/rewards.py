"""Reward functions: analytic, black-box, classifier, and regressed.

Every reward is evaluated batched: x of shape (m, d) -> values (m,).
Gradients are exact where the functional form allows it; asking a
non-differentiable black box for one is a capability error, which the
harness checks before any training starts. Evaluations above 1e6 in
magnitude trip a numeric guard because exp(r/alpha) terms appear in the
downstream weighted losses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gaussmix
from .autodiff import (
    MlpModel,
    Node,
    Tape,
    adam_init,
    bind_params,
    descend,
    evaluate,
    forward_on_tape,
    init_mlp,
    input_gradient,
    zero_mlp,
)
from .diffusion.base import GaussianMixture
from .errors import (
    CapabilityError, ConfigError, ContractError, NumericError, ShapeError, TargetDegeneracyError,
)
from .runfiles import float_cells, read_table, sample_header, write_csv

REWARD_BOUND = 1e6


@dataclass(frozen=True)
class LinearReward:
    a: np.ndarray  # (d,)

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=np.float64)))

    differentiable = True


@dataclass(frozen=True)
class QuadraticReward:
    """r(x) = x^T A x + b^T x + c with A symmetric."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        if not np.allclose(A, A.T):
            raise ContractError("quadratic reward matrix must be symmetric")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=np.float64)))
        object.__setattr__(self, "c", float(self.c))

    differentiable = True


@dataclass(frozen=True)
class BlackBoxReward:
    """Opaque handle; the flag says whether a gradient callable exists."""

    fn: Callable[[np.ndarray], np.ndarray]
    differentiable: bool = False
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "black-box"


@dataclass(frozen=True)
class ClassifierReward:
    """r(x) = log p(y = label | x) under a Gaussian-mixture class model."""

    mixture: GaussianMixture
    label: int

    def __post_init__(self):
        if not 0 <= self.label < self.mixture.n_components:
            raise IndexError(f"label {self.label} outside the mixture's components")

    differentiable = True


def check_label_mass(reward: ClassifierReward) -> None:
    """Reject a label whose posterior never rises above 1e-6 on the support."""
    base, n_probe = reward.mixture, 512
    lo = (base.means.min(axis=0) - 6.0 * base.scales.max()).min()
    hi = (base.means.max(axis=0) + 6.0 * base.scales.max()).max()
    if base.dim == 1:
        probe = np.linspace(lo, hi, n_probe).reshape(-1, 1)
    else:
        grid = np.linspace(lo, hi, int(np.ceil(n_probe ** (1.0 / base.dim))))
        mesh = np.meshgrid(*([grid] * base.dim))
        probe = np.stack([m.ravel() for m in mesh], axis=1)
    post = base.responsibilities(probe)[:, reward.label]
    if post.max() < 1e-6:
        raise TargetDegeneracyError(
            f"label {reward.label} has posterior mass below 1e-6 everywhere on the support"
        )


@dataclass(frozen=True)
class LearnedReward:
    model: MlpModel

    differentiable = True


RewardSpec = LinearReward | QuadraticReward | BlackBoxReward | ClassifierReward | LearnedReward


def _batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(1, -1) if x.ndim == 1 else x


def eval_reward(spec: RewardSpec, x) -> np.ndarray:
    """Reward values, shape (m,)."""
    x = _batch(x)
    if isinstance(spec, LinearReward):
        if x.shape[1] != spec.a.shape[0]:
            raise ShapeError(f"linear reward expects dimension {spec.a.shape[0]}")
        vals = x @ spec.a
    elif isinstance(spec, QuadraticReward):
        vals = np.einsum("mi,ij,mj->m", x, spec.A, x) + x @ spec.b + spec.c
    elif isinstance(spec, BlackBoxReward):
        vals = np.asarray(spec.fn(x), dtype=np.float64).reshape(-1)
    elif isinstance(spec, ClassifierReward):
        vals = classifier_log_likelihood(spec.mixture, x, spec.label)
    elif isinstance(spec, LearnedReward):
        vals = evaluate(spec.model, x)[:, 0]
    else:
        raise ContractError(f"unknown reward spec {type(spec)}")
    if not np.all(np.isfinite(vals)) or np.any(np.abs(vals) > REWARD_BOUND):
        raise NumericError("reward evaluation outside the +-1e6 guard")
    return vals


def grad_reward(spec: RewardSpec, x) -> np.ndarray:
    """Exact reward gradients, shape (m, d)."""
    x = _batch(x)
    if isinstance(spec, LinearReward):
        return np.broadcast_to(spec.a, x.shape).copy()
    if isinstance(spec, QuadraticReward):
        return 2.0 * x @ spec.A + spec.b
    if isinstance(spec, ClassifierReward):
        mix = spec.mixture
        return gaussmix.component_posterior_grad(x, mix.log_weights, mix.means, mix.variances, spec.label)
    if isinstance(spec, LearnedReward):
        return input_gradient(spec.model, x)
    if isinstance(spec, BlackBoxReward):
        if not spec.differentiable or spec.grad_fn is None:
            raise CapabilityError("black-box reward declared non-differentiable")
        return np.asarray(spec.grad_fn(x), dtype=np.float64)
    raise ContractError(f"unknown reward spec {type(spec)}")


def reward_on_tape(tape: Tape, spec: RewardSpec, x: Node) -> Node:
    """Record per-row reward values (m,) with x live on the tape."""
    if isinstance(spec, LinearReward):
        a = tape.constant(np.broadcast_to(spec.a, x.value.shape))
        return tape.sum_cols(tape.mul(x, a))
    if isinstance(spec, QuadraticReward):
        xa = tape.matmul(x, tape.constant(spec.A))
        quad = tape.sum_cols(tape.mul(x, xa))
        lin = tape.sum_cols(tape.mul(x, tape.constant(np.broadcast_to(spec.b, x.value.shape))))
        return tape.shift(tape.add(quad, lin), spec.c)
    if isinstance(spec, LearnedReward):
        out = forward_on_tape(tape, spec.model, bind_params(tape, spec.model.params), x)
        return tape.sum_cols(out)
    if isinstance(spec, ClassifierReward):
        mix = spec.mixture
        comp_nodes = []
        for k in range(mix.n_components):
            mean_k = tape.constant(np.broadcast_to(mix.means[k], x.value.shape))
            lp = tape.gaussian_logpdf(x, mean_k, float(mix.variances[k]))
            comp_nodes.append(tape.shift(lp, float(mix.log_weights[k])))
        # log-sum-exp with a detached max shift (exact for gradients)
        hi = np.max([n.value for n in comp_nodes], axis=0)
        total = None
        for n in comp_nodes:
            e = tape.exp(tape.sub(n, tape.constant(hi)))
            total = e if total is None else tape.add(total, e)
        lse = tape.add(tape.log(total), tape.constant(hi))
        return tape.sub(comp_nodes[spec.label], lse)
    if isinstance(spec, BlackBoxReward):
        raise CapabilityError("cannot put a black-box reward on the tape")
    raise ContractError(f"unknown reward spec {type(spec)}")


def classifier_log_likelihood(mixture: GaussianMixture, x, y: int) -> np.ndarray:
    """Exact log posterior probability of component y given x."""
    if not 0 <= y < mixture.n_components:
        raise IndexError(f"label {y} outside [0, {mixture.n_components})")
    return gaussmix.component_posterior_logprob(
        _batch(x), mixture.log_weights, mixture.means, mixture.variances, y
    )


# -- offline feedback -----------------------------------------------------


@dataclass
class FeedbackDataset:
    """(x, r(x)) pairs with a provenance tag naming the sampler that made x."""

    x: np.ndarray  # (n, d)
    r: np.ndarray  # (n,)
    provenance: str = "unknown"

    def __post_init__(self):
        self.x = _batch(self.x)
        self.r = np.asarray(self.r, dtype=np.float64).reshape(-1)
        if self.x.shape[0] != self.r.shape[0]:
            raise ShapeError("x and r row counts disagree")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.r))):
            raise NumericError("feedback data contains non-finite values")

    def __len__(self) -> int:
        return self.x.shape[0]

    def save_csv(self, path) -> None:
        """Write the samples' columns x0..x{d-1}, then r."""
        write_csv(path, [*sample_header(self.x.shape[1]), "r"],
                  [[*(float_cells(col) for col in self.x.T), float_cells(self.r)]])

    @classmethod
    def load_csv(cls, path, provenance: str | None = None) -> "FeedbackDataset":
        header, data = read_table(path)
        if len(header) < 2 or header != [*sample_header(len(header) - 1), "r"]:
            raise ConfigError(f"line 1 of {path}: header {header} is not x0..x{{d-1}},r")
        return cls(data[:, :-1], data[:, -1], provenance or str(path))


def fit_reward_regressor(
    data: FeedbackDataset,
    rng: np.random.Generator,
    hidden=(32, 32),
    steps: int = 3000,
    batch: int = 64,
    lr: float = 1e-2,
    holdout_frac: float = 0.2,
) -> tuple[LearnedReward, dict]:
    """Squared-error fit of r(x); returns the learned spec and a fit report."""
    if len(data) < 10:
        raise ContractError(f"need at least 10 samples to fit a regressor, got {len(data)}")
    d = data.x.shape[1]
    if np.all(np.ptp(data.x, axis=0) == 0.0):
        warnings.warn("degenerate feedback data (all x identical); returning a constant model")
        model = zero_mlp([d, 4, 1])
        model.params["b1"] = np.array([float(data.r.mean())])
        rep = {"train_rmse": float(data.r.std()), "holdout_rmse": float(data.r.std()), "degenerate": True}
        return LearnedReward(model), rep

    perm = rng.permutation(len(data))
    n_hold = max(1, int(round(holdout_frac * len(data))))
    hold, train = perm[:n_hold], perm[n_hold:]
    x_tr, r_tr = data.x[train], data.r[train]

    model = init_mlp([d, *hidden, 1], rng)
    params, state = model.params, adam_init(model.params)
    for _ in range(steps):
        idx = rng.integers(0, len(train), size=min(batch, len(train)))
        tape = Tape()
        nodes = bind_params(tape, params)
        pred = forward_on_tape(tape, model, nodes, tape.constant(x_tr[idx]))
        resid = tape.sub(pred, tape.constant(r_tr[idx][:, None]))
        loss = tape.scale(tape.sumall(tape.square(resid)), 1.0 / len(idx))
        params, state, _ = descend(loss, nodes, params, state, lr)

    spec = LearnedReward(MlpModel(model.widths, model.activation, params))
    rep = {
        "train_rmse": _rmse(spec, data.x[train], data.r[train]),
        "holdout_rmse": _rmse(spec, data.x[hold], data.r[hold]),
        "degenerate": False,
    }
    return spec, rep


def _rmse(spec: LearnedReward, x, r) -> float:
    return float(np.sqrt(np.mean((eval_reward(spec, x) - r) ** 2)))

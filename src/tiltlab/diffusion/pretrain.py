"""Denoising-score-matching pretraining of an eps-prediction network."""

from __future__ import annotations

import numpy as np

from ..autodiff import MlpModel, Tape, adam_init, bind_params, descend, evaluate, forward_on_tape, init_mlp
from ..errors import ContractError
from .base import GaussianMixture
from .schedule import DiffusionSchedule, forward_perturb


def denoising_loss(model, schedule: DiffusionSchedule, x0, t, noise) -> float:
    """Mean squared noise-prediction error over a batch of (x0, t, noise).

    ``model`` is an MlpModel or any callable (x_t, t) -> prediction, so
    oracle predictors can be scored directly.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    noise = np.atleast_2d(np.asarray(noise, dtype=np.float64))
    t = np.asarray(t, dtype=np.int64).ravel()
    if x0.shape[0] == 0:
        raise ContractError("denoising loss needs a nonempty batch")
    x_t = forward_perturb(schedule, x0, t, noise)
    if isinstance(model, MlpModel):
        pred = evaluate(model, schedule.net_input(x_t, t))
    else:
        pred = np.asarray(model(x_t, t), dtype=np.float64)
    return float(((noise - pred) ** 2).sum(axis=1).mean())


def train_denoiser(
    base: GaussianMixture,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    hidden=(32, 32),
    steps: int = 2000,
    batch: int = 128,
    lr: float = 1e-2,
    activation: str = "tanh",
) -> tuple[MlpModel, list[float]]:
    """Fit eps(x_t, t) by stochastic regression on fresh perturbation draws."""
    d = base.dim
    model = init_mlp([d + 2, *hidden, d], rng, activation)
    params = model.params
    state = adam_init(params)
    losses = []
    for _ in range(steps):
        x0 = base.sample(rng, batch)
        t = rng.integers(1, schedule.n_steps + 1, size=batch)
        noise = rng.standard_normal((batch, d))
        x_t = forward_perturb(schedule, x0, t, noise)

        tape = Tape()
        nodes = bind_params(tape, params)
        inp = tape.constant(schedule.net_input(x_t, t))
        pred = forward_on_tape(tape, model, nodes, inp)
        resid = tape.sub(tape.constant(noise), pred)
        loss = tape.scale(tape.sumall(tape.square(resid)), 1.0 / batch)
        params, state, _ = descend(loss, nodes, params, state, lr)
        losses.append(float(loss.value))
    return MlpModel(model.widths, model.activation, params), losses

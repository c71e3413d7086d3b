"""Adam with bias correction, as a pure function of (params, grads, state),
and the one descent step every trained net takes through it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ShapeError
from .tape import Node, gradient


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One update; returns fresh params and state, inputs untouched."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ShapeError("params, grads and state must hold identical blocks")
    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for '{k}'")
        m = beta1 * state.m[k] + (1.0 - beta1) * g
        v = beta2 * state.v[k] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[k], new_v[k] = m, v
    return new_params, AdamState(new_m, new_v, t)


def descend(
    loss: Node,
    nodes: dict[str, Node],
    params: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState, float]:
    """One Adam step down ``loss``; returns (params, state, gradient norm).

    ``nodes`` maps each block name to its leaf on the loss's tape. The
    gradients are taken in sorted-name order and the norm is the
    Euclidean norm over all blocks.
    """
    names = sorted(params)
    grads = dict(zip(names, gradient(loss, [nodes[k] for k in names])))
    params, state = adam_step(params, grads, state, lr)
    return params, state, float(np.sqrt(sum((g * g).sum() for g in grads.values())))

"""Small dense feed-forward networks on top of the tape.

A model is a widths list plus named parameter blocks ("w0", "b0", ...).
The same parameters drive two execution paths: a fast pure-numpy forward
(:func:`evaluate`) and a recorded forward on a :class:`~.tape.Tape`
(:func:`forward_on_tape`) for training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .tape import Node, Tape, gradient

_ACTIVATIONS = ("tanh", "relu")


@dataclass
class MlpModel:
    """Feed-forward net: affine layers with a pointwise nonlinearity between them.

    The final layer is linear. ``widths`` includes the input width (time
    features count toward it) and the output width.
    """

    widths: list[int]
    activation: str = "tanh"
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.widths) < 2 or any(int(w) <= 0 for w in self.widths):
            raise ConfigError(f"widths must be >= 2 positive integers, got {self.widths}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation '{self.activation}'")
        expected = expected_param_count(self.widths)
        actual = sum(int(np.asarray(v).size) for v in self.params.values())
        if actual != expected:
            raise ConfigError(f"parameter count {actual} does not match widths (need {expected})")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


def expected_param_count(widths) -> int:
    return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))


def init_mlp(widths, rng: np.random.Generator, activation: str = "tanh") -> MlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = {}
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[f"w{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
    return MlpModel(list(widths), activation, params)


def zero_mlp(widths, activation: str = "tanh") -> MlpModel:
    """All-zero parameters; evaluates to zero everywhere."""
    params = {}
    for i in range(len(widths) - 1):
        params[f"w{i}"] = np.zeros((widths[i], widths[i + 1]))
        params[f"b{i}"] = np.zeros(widths[i + 1])
    return MlpModel(list(widths), activation, params)


def residual_mlp(widths, rng: np.random.Generator, activation: str = "tanh") -> MlpModel:
    """Glorot interior with an all-zero final layer.

    Evaluates to exactly zero everywhere (so a residual policy starts at
    precisely the pre-trained point) while keeping gradient flow through
    the hidden layers alive; an all-zero net would train only its output
    bias.
    """
    model = init_mlp(widths, rng, activation)
    last = len(widths) - 2
    model.params[f"w{last}"] = np.zeros_like(model.params[f"w{last}"])
    model.params[f"b{last}"] = np.zeros_like(model.params[f"b{last}"])
    return model


def copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def param_distance(a: dict, b: dict) -> float:
    """Euclidean distance between two parameter sets with matching blocks."""
    return float(np.sqrt(sum(((a[k] - b[k]) ** 2).sum() for k in a)))


def evaluate(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Pure forward pass; (m, in_width) -> (m, out_width)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != model.in_width:
        raise ShapeError(f"input shape {x.shape} does not match model input width {model.in_width}")
    act = np.tanh if model.activation == "tanh" else lambda h: np.maximum(h, 0.0)
    h = x
    for i in range(model.n_layers):
        h = h @ model.params[f"w{i}"] + model.params[f"b{i}"]
        if i < model.n_layers - 1:
            h = act(h)
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite values in network forward pass")
    return h[0] if squeeze else h


def bind_params(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Node]:
    return {name: tape.param(value) for name, value in params.items()}


def forward_on_tape(tape: Tape, model: MlpModel, param_nodes: dict[str, Node], x: Node) -> Node:
    """Record the same forward pass as :func:`evaluate` on the tape."""
    h = x
    for i in range(model.n_layers):
        h = tape.affine(h, param_nodes[f"w{i}"], param_nodes[f"b{i}"])
        if i < model.n_layers - 1:
            h = tape.tanh(h) if model.activation == "tanh" else tape.relu(h)
    return h


def input_gradient(model: MlpModel, x: np.ndarray, cotangent: np.ndarray | None = None) -> np.ndarray:
    """d/dx of sum(model(x) * cotangent) at fixed parameters, shape of ``x``.

    Without a cotangent every output counts once: the gradient of the
    summed outputs.
    """
    tape = Tape()
    xn = tape.param(x)
    out = forward_on_tape(tape, model, bind_params(tape, model.params), xn)
    if cotangent is not None:
        out = tape.mul(out, tape.constant(cotangent))
    (gx,) = gradient(tape.sumall(out), [xn])
    return gx

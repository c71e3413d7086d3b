from .tape import Node, Tape, gradient
from .nets import (
    MlpModel,
    bind_params,
    copy_params,
    evaluate,
    expected_param_count,
    forward_on_tape,
    has_zero_output,
    init_mlp,
    input_gradient,
    param_distance,
    residual_mlp,
    zero_mlp,
)
from .optim import AdamState, adam_init, adam_step, descend
from .checkpoint import load_model, load_params, save_model, save_params

__all__ = [
    "Node", "Tape", "gradient",
    "MlpModel", "bind_params", "copy_params", "evaluate", "expected_param_count",
    "forward_on_tape", "has_zero_output", "init_mlp", "input_gradient", "param_distance",
    "residual_mlp", "zero_mlp",
    "AdamState", "adam_init", "adam_step", "descend",
    "load_model", "load_params", "save_model", "save_params",
]

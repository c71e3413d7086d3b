from .config import ALGORITHMS, FineTuneConfig, TrainLogRecord, rollin_switch
from .common import (
    differentiable_rollout,
    kl_penalty,
    rollin_trajectory,
    stabilized_weights,
    step_kl_terms,
)
from .ppo import ppo_iteration, ppo_signals, ppo_surrogate_value
from .backprop import reward_backprop_iteration
from .weighted_mle import collect_mle_tuples, reward_weighted_mle_iteration
from .pcl import one_step_residuals, pcl_iteration, pcl_residual_arrays, pcl_value_loss
from .driver import FineTuneResult, run_finetune

__all__ = [
    "ALGORITHMS", "FineTuneConfig", "TrainLogRecord", "rollin_switch",
    "differentiable_rollout", "kl_penalty", "rollin_trajectory",
    "stabilized_weights", "step_kl_terms",
    "ppo_iteration", "ppo_signals", "ppo_surrogate_value",
    "reward_backprop_iteration",
    "collect_mle_tuples", "reward_weighted_mle_iteration",
    "one_step_residuals", "pcl_iteration", "pcl_residual_arrays", "pcl_value_loss",
    "FineTuneResult", "run_finetune",
]

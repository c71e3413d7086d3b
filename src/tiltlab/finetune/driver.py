"""Outer training loop shared by the four algorithms."""

from __future__ import annotations

from dataclasses import dataclass

from ..autodiff import MlpModel, adam_init, init_mlp
from ..diffusion.policy import PolicyNet
from ..errors import ContractError
from ..rewards import RewardSpec
from ..streams import BRANCH_INIT, BRANCH_ROLLOUT, make_rng
from .backprop import reward_backprop_iteration
from .config import FineTuneConfig, TrainLogRecord
from .pcl import pcl_iteration
from .ppo import ppo_iteration
from .weighted_mle import reward_weighted_mle_iteration


@dataclass
class FineTuneResult:
    policy: PolicyNet
    value: MlpModel | None
    records: list[TrainLogRecord]


def run_finetune(
    pre_policy: PolicyNet,
    reward_spec: RewardSpec,
    cfg: FineTuneConfig,
    callback=None,
) -> FineTuneResult:
    """Initialize at the pre-trained parameters and run S iterations.

    Every iteration draws its own stream from (seed, iteration), so a rerun
    with the same config reproduces the records exactly. ``callback``
    receives (iteration, policy, record) after each update.
    """
    cfg.check_reward(reward_spec)
    if pre_policy.net is None:
        raise ContractError(
            "the pre-trained policy has no trainable parameters; call add_residual_net first"
        )
    policy = pre_policy.snapshot()
    opt = adam_init(policy.params)

    value = None
    opt_value = None
    if cfg.algorithm == "pcl":
        d = policy.dim
        value = init_mlp([d + 2, *cfg.value_hidden, 1], make_rng(cfg.seed, BRANCH_INIT))
        opt_value = adam_init(value.params)

    records: list[TrainLogRecord] = []
    for s in range(cfg.iterations):
        rng = make_rng(cfg.seed, BRANCH_ROLLOUT, s)
        if cfg.algorithm == "ppo":
            policy, opt, rec = ppo_iteration(policy, pre_policy, reward_spec, cfg, rng, opt, s)
        elif cfg.algorithm == "backprop":
            policy, opt, rec = reward_backprop_iteration(policy, pre_policy, reward_spec, cfg, rng, opt, s)
        elif cfg.algorithm == "weighted-mle":
            policy, opt, rec = reward_weighted_mle_iteration(policy, pre_policy, reward_spec, cfg, rng, opt, s)
        elif cfg.algorithm == "pcl":
            policy, value, opt, opt_value, rec = pcl_iteration(
                policy, pre_policy, value, reward_spec, cfg, rng, opt, opt_value, s
            )
        else:  # pragma: no cover - config validation rejects this earlier
            raise ContractError(f"unknown algorithm {cfg.algorithm}")
        records.append(rec)
        if callback is not None:
            callback(s, policy, rec)
    return FineTuneResult(policy, value, records)

"""Direct reward backpropagation through the reparameterized chain.

The whole rollout is recorded on the tape with frozen noises, so the
terminal sample is a differentiable function of the parameters, and one
ascent step is taken on

    (1/m) sum_i [ r(x_0^i(theta)) - alpha * sum_t ||rho_theta - rho_pre||^2 / (2 sigma^2(t)) ].

Requires a differentiable reward; the config check rejects black boxes
before this runs.
"""

from __future__ import annotations

import time

import numpy as np

from ..autodiff import AdamState, Tape, descend
from ..diffusion.policy import PolicyNet
from ..errors import CapabilityError
from ..rewards import RewardSpec, eval_reward, reward_on_tape
from .common import bind_policy, differentiable_rollout
from .config import FineTuneConfig, TrainLogRecord


def reward_backprop_iteration(
    policy: PolicyNet,
    pre_policy: PolicyNet,
    reward_spec: RewardSpec,
    cfg: FineTuneConfig,
    rng: np.random.Generator,
    opt: AdamState,
    iteration: int = 0,
) -> tuple[PolicyNet, AdamState, TrainLogRecord]:
    if not reward_spec.differentiable:
        raise CapabilityError("reward backpropagation needs a differentiable reward")
    t0 = time.perf_counter()
    tape = Tape()
    nodes = bind_policy(tape, policy, trainable=True)
    pre_nodes = bind_policy(tape, pre_policy, trainable=False)
    terminal, kl = differentiable_rollout(
        tape, policy, pre_policy, nodes, pre_nodes, cfg.batch, rng)
    r = reward_on_tape(tape, reward_spec, terminal)
    objective = tape.sub(r, tape.scale(kl, cfg.alpha))
    loss = tape.scale(tape.sumall(objective), -1.0 / cfg.batch)
    params, opt, grad_norm = descend(loss, nodes, policy.params, opt, cfg.lr)

    record = TrainLogRecord(
        iteration=iteration,
        mean_reward=float(eval_reward(reward_spec, terminal.value).mean()),
        kl_estimate=float(kl.value.mean()),
        loss=float(loss.value),
        grad_norm=grad_norm,
        wall_time=time.perf_counter() - t0,
    )
    return policy.with_params(params), opt, record

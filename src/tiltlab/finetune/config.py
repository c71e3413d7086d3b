"""Fine-tuning configuration, capability checks, and the training log record."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CapabilityError, ConfigError
from ..rewards import RewardSpec

ALGORITHMS = ("ppo", "backprop", "weighted-mle", "pcl")


def rollin_switch(rollin: str, n_steps: int | None = None) -> int | None:
    """The roll-in's switch index: a row runs the current policy at steps
    t > switch and the pre-trained one at t <= switch.

    ``current`` is 0, ``pretrained`` is ``n_steps`` and ``mixture:<k>`` is k.
    Any other string raises ConfigError, and so does k > ``n_steps`` when
    ``n_steps`` is given (without it, only the string's form is checked).
    """
    if rollin == "current":
        return 0
    if rollin == "pretrained":
        return n_steps
    kind, _, k = str(rollin).partition(":")
    if kind != "mixture" or not k.isdecimal():
        raise ConfigError(f"finetune.rollin: expected current, pretrained or mixture:<k>, got {rollin!r}")
    if n_steps is not None and int(k) > n_steps:
        raise ConfigError(f"finetune.rollin: switch index outside [0, {n_steps}]")
    return int(k)


@dataclass(frozen=True)
class FineTuneConfig:
    algorithm: str
    alpha: float = 1.0
    batch: int = 64            # m
    iterations: int = 100      # S
    lr: float = 1e-3           # gamma
    clip: float = 0.2          # PPO clip radius
    ppo_epochs: int = 1
    rollin: str = "current"    # current | pretrained | mixture:<k>
    seed: int = 0
    value_hidden: tuple[int, ...] = (32, 32)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{self.algorithm}' (choose from {ALGORITHMS})")
        if self.batch < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if not 0.0 < self.clip < 1.0:
            raise ConfigError(f"clip radius must lie in (0, 1), got {self.clip}")
        if self.ppo_epochs < 1:
            raise ConfigError(f"ppo_epochs must be >= 1, got {self.ppo_epochs}")
        if self.alpha < 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.algorithm in ("weighted-mle", "pcl") and self.alpha <= 0.0:
            raise ConfigError(f"{self.algorithm} is not well-defined at alpha = 0")
        rollin_switch(self.rollin)

    def check_reward(self, spec: RewardSpec) -> None:
        """Reject capability clashes before any computation starts."""
        self.validate()
        if self.algorithm == "backprop" and not spec.differentiable:
            raise CapabilityError(
                "reward backpropagation requires a differentiable reward; "
                "this spec is a non-differentiable black box"
            )


@dataclass
class TrainLogRecord:
    iteration: int
    mean_reward: float
    kl_estimate: float
    loss: float
    grad_norm: float
    wall_time: float

"""Value-weighted sampling and conditional generation.

The guided chain never touches the pre-trained parameters: every step
adds sigma^2(t) grad v / alpha from a shift source to the pre-trained
mean and samples with the unchanged reverse variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion.base import GaussianMixture
from ..diffusion.policy import PolicyNet, sample_trajectory
from ..errors import TargetDegeneracyError
from ..rewards import ClassifierReward
from .sources import MixturePosteriorShift


@dataclass(frozen=True)
class GuidedPolicy:
    """Pre-trained policy plus a value-gradient shift source."""

    pre_policy: PolicyNet
    source: object  # exposes shift(x, t) -> (m, d)
    alpha: float


def value_weighted_sample(
    guided: GuidedPolicy,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, dict]:
    """Run the shifted reverse chain; returns terminal samples and shift diagnostics.

    The diagnostics are the mean row norms of the shifts the chain applied,
    step T first.
    """
    recorder = _ShiftNorms(guided.source)
    traj = sample_trajectory(guided.pre_policy, rng, n, shift_source=recorder)
    diagnostics = {
        "mean_shift_norm_per_step": recorder.norms,
        "max_shift_norm": max(recorder.norms) if recorder.norms else 0.0,
    }
    return traj.terminal, diagnostics


@dataclass
class _ShiftNorms:
    """Passes a source's shifts through, recording each call's mean row norm."""

    source: object
    norms: list[float] = field(default_factory=list)

    def shift(self, x, t):
        sh = self.source.shift(x, t)
        self.norms.append(float(np.sqrt((sh * sh).sum(axis=1)).mean()))
        return sh


def conditional_generate(
    base_policy: PolicyNet,
    label: int,
    rng: np.random.Generator,
    n: int,
    alpha: float = 1.0,
    method: str = "value-weighted",
    finetune_cfg=None,
) -> tuple[np.ndarray, dict]:
    """Sample approximately from p(. | label) proportional to p(label | .) p_pre(.).

    Sets the reward to the classifier log likelihood log p(label | x) with
    alpha = 1 by default. ``method`` is either "value-weighted" (closed-form
    noisy-posterior guidance, no parameter updates) or the name of a
    fine-tuning algorithm, in which case ``finetune_cfg`` drives training.
    """
    base = base_policy.base
    if base is None:
        raise TargetDegeneracyError("conditional generation needs an analytic mixture base")
    reward = ClassifierReward(base, label)
    _check_label_mass(base, label)

    if method == "value-weighted":
        source = MixturePosteriorShift(base, base_policy.schedule, label, alpha)
        guided = GuidedPolicy(base_policy, source, alpha)
        return value_weighted_sample(guided, rng, n)

    from ..diffusion.policy import add_residual_net
    from ..finetune import run_finetune

    if finetune_cfg is None:
        raise TargetDegeneracyError("fine-tune based conditional generation needs a config")
    pre = base_policy if base_policy.net is not None else add_residual_net(base_policy)
    result = run_finetune(pre, reward, finetune_cfg)
    samples = sample_trajectory(result.policy, rng, n).terminal
    return samples, {"records": result.records}


def _check_label_mass(base: GaussianMixture, label: int, n_probe: int = 512) -> None:
    """Reject labels whose posterior never rises above 1e-6 on the support."""
    lo = (base.means.min(axis=0) - 6.0 * base.scales.max()).min()
    hi = (base.means.max(axis=0) + 6.0 * base.scales.max()).max()
    if base.dim == 1:
        probe = np.linspace(lo, hi, n_probe).reshape(-1, 1)
    else:
        grid = np.linspace(lo, hi, int(np.ceil(n_probe ** (1.0 / base.dim))))
        mesh = np.meshgrid(*([grid] * base.dim))
        probe = np.stack([m.ravel() for m in mesh], axis=1)
    post = base.responsibilities(probe)[:, label]
    if post.max() < 1e-6:
        raise TargetDegeneracyError(
            f"label {label} has posterior mass below 1e-6 everywhere on the support"
        )

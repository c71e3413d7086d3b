"""Value-weighted sampling.

The guided chain never touches the pre-trained parameters: every step
adds sigma^2(t) grad v / alpha from a shift source to the pre-trained
mean and samples with the unchanged reverse variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion.policy import PolicyNet, sample_trajectory


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

from .schedule import DiffusionSchedule, forward_perturb, make_schedule
from .base import GaussianMixture
from .policy import (
    PolicyNet,
    Trajectory,
    add_residual_net,
    analytic_eps,
    gaussian_log_density,
    log_probs_under,
    means_on_tape,
    means_under,
    reverse_mean,
    reverse_mean_on_tape,
    sample_trajectory,
)
from .pretrain import denoising_loss, train_denoiser

__all__ = [
    "DiffusionSchedule", "forward_perturb", "make_schedule",
    "GaussianMixture",
    "PolicyNet", "Trajectory", "add_residual_net", "analytic_eps",
    "gaussian_log_density", "log_probs_under", "means_on_tape", "means_under", "reverse_mean",
    "reverse_mean_on_tape", "sample_trajectory",
    "denoising_loss", "train_denoiser",
]

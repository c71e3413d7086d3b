from .value_models import ValueModel, fit_value_mc, fit_value_softq, log_mean_exp_backup
from .sources import (
    AffineValueShift,
    FittedValueShift,
    MixturePosteriorShift,
    PathIntegralShift,
    TweedieShift,
    ZeroShift,
    path_integral_grad,
    tweedie_posterior_mean,
    tweedie_value_grad,
)
from .sampling import GuidedPolicy, value_weighted_sample

__all__ = [
    "ValueModel", "fit_value_mc", "fit_value_softq", "log_mean_exp_backup",
    "AffineValueShift", "FittedValueShift", "MixturePosteriorShift", "PathIntegralShift",
    "TweedieShift", "ZeroShift", "path_integral_grad",
    "tweedie_posterior_mean", "tweedie_value_grad",
    "GuidedPolicy", "value_weighted_sample",
]
